package main

import (
	"context"
	"fmt"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"lscatter/internal/exec"
	"lscatter/internal/experiments"
	"lscatter/internal/ltephy"
)

const (
	// minSweeps keeps at least 136 artifact samples per run, so the tail is
	// always the 90th percentile with at least ten samples beyond it, and
	// each artifact's time is a median of at least four.
	minSweeps = 4
	// directWorkers run the untimed direct check.
	directWorkers = 2
)

// spanExecutor records a span around every artifact job it forwards.
type spanExecutor struct {
	inner  exec.Executor
	tr     *tracer
	parent int
}

func (e *spanExecutor) Submit(ctx context.Context, job exec.Job) ([]byte, error) {
	id := e.tr.begin("experiments.artifact", job.ID, e.parent)
	defer e.tr.end(id)
	return e.inner.Submit(ctx, job)
}

// runPaperSweep regenerates the whole artifact registry sequentially, as
// `lscatter-bench -all` does, starting every sweep from a cold waveform
// cache. One operation is one artifact job.
func runPaperSweep(ctx context.Context, cfg runConfig) (*runResult, error) {
	ids := experiments.IDs()
	res := &runResult{layers: map[string]float64{}}
	var (
		sweepS    []float64
		allocs    []float64
		hitRatios []float64
		selfMs    []float64
		reference []string // rendered tables of the first sweep
		perID     = map[string][]float64{}
		wallMs    = map[string][]float64{}
		measured  time.Duration
	)
	for i := 0; i < minSweeps || measured.Seconds() < cfg.seconds; i++ {
		// Set-up: what a fresh `lscatter-bench -all` process does before
		// its first artifact. The previous sweep's garbage is collected
		// first, outside the timer, so that collection is not counted.
		debug.FreeOSMemory()
		t0 := time.Now()
		ltephy.SharedCache.Reset()
		if err := coldStart(ctx, ids); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		var results []*experiments.Result
		var err error
		root := 0
		if cfg.tr == nil {
			results, err = experiments.RunAll(ctx, cfg.seed, 1)
		} else {
			root = cfg.tr.begin("experiments.sweep", "", 0)
			ex := &spanExecutor{inner: &exec.Local{Run: experiments.ExecRunner()}, tr: cfg.tr, parent: root}
			results, err = experiments.RunAllOn(ctx, ex, cfg.seed, 1)
			cfg.tr.end(root)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", i, err)
		}
		measured += wall
		sweepS = append(sweepS, wall.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(len(ids)))
		hitRatios = append(hitRatios, ltephy.SharedStats().HitRate())

		renders := checkSweep(res, ids, results, reference)
		if reference == nil {
			reference = renders
		}
		for _, r := range results {
			if r != nil && r.Metrics != nil {
				res.lat = append(res.lat, r.Metrics.WallSeconds*1e3)
				wallMs[r.ID] = append(wallMs[r.ID], r.Metrics.WallSeconds*1e3)
			}
		}
		if cfg.tr != nil {
			spans := cfg.tr.snapshot()
			self := selfTimes(spans)
			for _, s := range spans {
				switch {
				case s.ID == root:
					selfMs = append(selfMs, float64(self[s.ID])/1e6)
				case s.Parent == root:
					perID[s.Attr] = append(perID[s.Attr], s.dur().Seconds())
				}
			}
		}
	}
	res.liveHeapMB, res.cacheMB = liveHeapMB(), waveformCacheMB()
	res.opsPerS = float64(len(ids)) / median(sweepS)
	// The median artifact sits between two artifacts' times; taking each
	// artifact's median first keeps one sweep's jitter in either of them
	// from moving it.
	var perArtifact []float64
	for _, ms := range wallMs {
		perArtifact = append(perArtifact, median(ms))
	}
	res.p50 = median(perArtifact)
	res.allocMB = median(allocs)
	res.notes = append(res.notes,
		fmt.Sprintf("sweep_s       %12.4f s    median of %d cold sweeps (min %.4f, max %.4f)",
			median(sweepS), len(sweepS), quantile(sweepS, 0), quantile(sweepS, 1)),
		fmt.Sprintf("ltephy cache hit ratio %.6f", median(hitRatios)))

	checkDirect(res, cfg.seed, ids, reference)

	if cfg.tr != nil {
		for _, id := range ids {
			res.layers["experiments.artifact."+id+"_s"] = median(perID[id])
		}
		res.layers["experiments.sweep.self_ms"] = median(selfMs)
		res.layers["ltephy.cache_hit_ratio"] = median(hitRatios)
	}
	return res, nil
}

// coldStart runs a fresh lscatter-bench process to the point where its
// artifact registry is ready, listing the artifacts, and checks the list.
// This is the process and package start-up every `lscatter-bench -all` pays;
// the benchmark's own process paid it once, before the first sweep.
func coldStart(ctx context.Context, ids []string) error {
	out, err := osexec.CommandContext(ctx, filepath.Join(workDir, "lscatter-bench"), "-list").Output()
	if err != nil {
		return fmt.Errorf("lscatter-bench -list: %w", err)
	}
	if got := strings.Fields(string(out)); !slices.Equal(got, ids) {
		return fmt.Errorf("lscatter-bench -list printed %d IDs, the registry has %d", len(got), len(ids))
	}
	return nil
}

// checkSweep counts one operation per artifact job and fails the jobs whose
// result is missing, empty, mislabelled, or renders differently from the
// same artifact in the first sweep at this seed.
func checkSweep(res *runResult, ids []string, results []*experiments.Result, reference []string) []string {
	renders := make([]string, len(ids))
	res.attempted += len(ids)
	if len(results) != len(ids) {
		res.fail("sweep returned %d results for %d artifacts", len(results), len(ids))
		return renders
	}
	for i, r := range results {
		switch {
		case r == nil:
			res.fail("artifact %s: no result", ids[i])
		case r.ID != ids[i]:
			res.fail("artifact %s: result is labelled %s", ids[i], r.ID)
		case len(r.Rows) == 0:
			res.fail("artifact %s: no rows", ids[i])
		default:
			renders[i] = r.Render()
			if reference != nil && renders[i] != reference[i] {
				res.fail("artifact %s: table differs between sweeps at one seed", ids[i])
			}
		}
	}
	return renders
}

// checkDirect recomputes every artifact through the raw runner, outside the
// executor and the result encoding, and compares the rendered tables with
// the sweep's. It is not timed, so it runs on both CPUs.
func checkDirect(res *runResult, seed uint64, ids []string, reference []string) {
	renders := make([]string, len(ids))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < directWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if run, ok := experiments.Lookup(ids[i]); ok {
					renders[i] = run(experiments.DeriveSeed(seed, ids[i])).Render()
				}
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, id := range ids {
		res.attempted++
		if _, ok := experiments.Lookup(id); !ok {
			res.fail("artifact %s: not in the registry", id)
		} else if renders[i] != reference[i] {
			res.fail("artifact %s: swept table differs from a direct run", id)
		}
	}
}
