// Command perfbench is the repository benchmark. It runs one named workload
// against the public entry points of the lscatter packages, checks that the
// outputs are correct, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
// With --trace 1 the workload runs twice, untraced and then traced, followed
// by a kernel probe; the metrics are the per-layer metrics, derived from
// spans recorded around each call into the program, and the spans are
// written under .bench_build/traces.
//
// Run it from the repository root through the wrapper that builds it:
//
//	python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0
//
// README.md in this directory explains the workloads, metrics and layers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lscatter/internal/experiments"
)

// workDir holds everything a run leaves behind, relative to the repository
// root the benchmark runs from.
const workDir = ".bench_build"

// runDeadline bounds one invocation; a hung run exits without a result.
const runDeadline = 175 * time.Second

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// layerMetrics lists the per-layer metrics reported with --trace 1. A layer
// a workload leaves idle reports 0. The artifact timings follow the
// experiment registry.
func layerMetrics() []metricDef {
	var defs []metricDef
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments.artifact." + id + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"experiments.sweep.self_ms", "ms"},
		{"ltephy.cache_hit_ratio", "ratio"},
		{"tag.sync_ns_per_sample", "ns"},
		{"bits.viterbi_ns_per_bit", "ns"},
		{"modem.demap_ns_per_symbol", "ns"},
		{"channel.multipath_ns_per_sample", "ns"},
		{"dsp.fft_ns_per_point", "ns"},
		{"rng.norm_ns_per_draw", "ns"},
		{"core.semi_us_per_link", "us"},
		{"core.exact_ms_per_subframe", "ms"},
		{"experiments.deploy_ms", "ms"},
		{"serve.self_ms", "ms"},
		{"serve.submit_ms", "ms"},
		{"serve.job.self_ms", "ms"},
		{"store.disk_put_ms", "ms"},
		{"serve.coalesced_ratio", "ratio"},
		{"serve.computed_ratio", "ratio"},
		{"gen_lag_ms", "ms"},
		{"serve.submit_us", "us"},
		{"serve.results_us", "us"},
		{"serve.op.self_us", "us"},
		{"serve.spec_us", "us"},
		{"store.mem_get_us", "us"},
		{"store.disk_get_us", "us"},
		{"store.mem_hit_ratio", "ratio"},
		{"store.disk_hit_ratio", "ratio"},
		{"trace.overhead_p50_ms", "ms"},
		{"trace.overhead_tail_ms", "ms"},
		{"trace.overhead_ops_per_s", "1/s"},
	}...)
}

// runConfig is what a workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil for the untraced run
}

// runResult is what one run of a workload measured.
type runResult struct {
	setup      []float64 // seconds per set-up
	lat        []float64 // milliseconds per operation
	p50        float64   // median latency in ms when not median(lat)
	opsPerS    float64
	allocMB    float64 // heap allocated per operation
	liveHeapMB float64 // heap in use after a GC at the end of the window
	cacheMB    float64 // of which the waveform cache's samples
	attempted  int
	failed     int
	notes      []string           // extra human-readable lines
	layers     map[string]float64 // per-layer metrics (traced run only)
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type workload func(ctx context.Context, cfg runConfig) (*runResult, error)

var workloads = map[string]workload{
	"paper-sweep":   runPaperSweep,
	"serve-compute": runServeCompute,
	"serve-cached":  runServeCached,
}

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, serve-compute or serve-cached")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measurement window per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := checkBenchmarkFile(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its deadline")
		os.Exit(3)
	})
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  GOMAXPROCS %d  %s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	ctx := context.Background()
	cfg := runConfig{seed: *seed, seconds: *seconds}
	var out map[string]float64
	var defs []metricDef
	var attempted, failed int

	base, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e2e := endToEnd(base, "untraced")
	attempted, failed = base.attempted, base.failed
	if *trace == 0 {
		out, defs = e2e, e2eMetrics
	} else {
		cfg.tr = newTracer()
		traced, err := run(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		tracedE2E := endToEnd(traced, "traced")
		probe, err := kernelProbe(cfg.seed, cfg.tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println("-- kernel bytes per item --")
		for _, n := range probe.notes {
			fmt.Println("  " + n)
		}
		attempted += traced.attempted + probe.attempted
		failed += traced.failed + probe.failed
		out = map[string]float64{
			"trace.overhead_p50_ms":    tracedE2E["p50_ms"] - e2e["p50_ms"],
			"trace.overhead_tail_ms":   tracedE2E["tail_ms"] - e2e["tail_ms"],
			"trace.overhead_ops_per_s": tracedE2E["ops_per_s"] - e2e["ops_per_s"],
		}
		for _, src := range []map[string]float64{traced.layers, probe.layers} {
			for k, v := range src {
				out[k] = v
			}
		}
		defs = layerMetrics()
		if err := reportTrace(*name, cfg, defs, out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := emit(defs, out, attempted, failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// endToEnd derives the end-to-end metrics of one run and prints them.
func endToEnd(r *runResult, label string) map[string]float64 {
	pct, tailV, beyond := tail(r.lat)
	p50 := r.p50
	if p50 == 0 {
		p50 = median(r.lat)
	}
	m := map[string]float64{
		"setup_s":      median(r.setup),
		"ops_per_s":    r.opsPerS,
		"p50_ms":       p50,
		"tail_ms":      tailV,
		"alloc_mb":     r.allocMB,
		"live_heap_mb": r.liveHeapMB,
	}
	failedRatio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Printf("-- end-to-end (%s) --\n", label)
	fmt.Printf("  setup_s       %12.4f s    median of %d set-ups\n", m["setup_s"], len(r.setup))
	fmt.Printf("  ops_per_s     %12.4f 1/s\n", m["ops_per_s"])
	fmt.Printf("  p50_ms        %12.4f ms   n=%d\n", m["p50_ms"], len(r.lat))
	fmt.Printf("  tail_ms       %12.4f ms   p%g, %d samples beyond\n", tailV, pct, beyond)
	fmt.Printf("  alloc_mb      %12.4f MB   per operation\n", m["alloc_mb"])
	fmt.Printf("  live_heap_mb  %12.4f MB   of which the waveform cache holds %.1f MB\n", m["live_heap_mb"], r.cacheMB)
	fmt.Printf("  failed_ratio  %12.4f      %d of %d operations\n", failedRatio, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	return m
}

// reportTrace prints the per-layer metrics and the self-time table and
// writes the spans to the trace file.
func reportTrace(workload string, cfg runConfig, defs []metricDef, layers map[string]float64) error {
	spans := cfg.tr.snapshot()
	sum := summarize(spans)
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("-- self time per layer (traced run) --")
	fmt.Printf("  %-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, n := range names {
		l := sum[n]
		fmt.Printf("  %-28s %8d %12.2f %12.2f %12.1f\n", n, l.Count, l.TotalMs, l.SelfMs, l.MedianUs)
	}
	fmt.Println("-- per-layer --")
	for _, d := range defs {
		fmt.Printf("  %-45s %14.4f %s\n", d.name, layers[d.name], d.unit)
	}
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", workload, cfg.seed))
	meta := map[string]any{"workload": workload, "seed": cfg.seed, "seconds": cfg.seconds, "metrics": layers}
	if err := writeTrace(path, meta, spans, sum); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("  spans: %d recorded, written to %s\n", len(spans), path)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line. Every defined metric is reported; a computed
// metric that is not defined is a benchmark bug.
func emit(defs []metricDef, values map[string]float64, attempted, failed int) error {
	known := map[string]bool{}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		known[d.name] = true
		metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for k := range values {
		if !known[k] {
			return fmt.Errorf("metric %q is not defined", k)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, max(attempted, 1), failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkBenchmarkFile verifies that BENCHMARK.json, when present, defines
// exactly the metrics this program reports.
func checkBenchmarkFile() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var doc struct {
		E2E   []struct{ Name, Unit string } `json:"end_to_end"`
		Layer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	same := func(file []struct{ Name, Unit string }, defs []metricDef) bool {
		if len(file) != len(defs) {
			return false
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				return false
			}
		}
		return true
	}
	if !same(doc.E2E, e2eMetrics) || !same(doc.Layer, layerMetrics()) {
		return errors.New("BENCHMARK.json metrics differ from the ones this program reports")
	}
	return nil
}
