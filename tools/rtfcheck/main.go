// Command rtfcheck gates the transport real-time factor against a recorded
// baseline. It reads the "rtf" object of a lscatter-bench -metrics report
// (normally BENCH_R3.json), re-measures the fixed-point streamer at the
// baseline's bandwidth on one goroutine, and exits nonzero when the fresh
// measurement falls more than the allowed percentage below the recorded
// headline — the regression gate behind `make rtf-check`. The absolute
// ≥10x-real-time target at 20 MHz is checked too (advisory by default, since
// CI machines differ from the machine the baseline was recorded on; pass
// -require-target to enforce it).
//
// Usage: go run ./tools/rtfcheck [-max-regress pct] [-subframes n] [-require-target] BASELINE.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lscatter/internal/experiments"
	"lscatter/internal/ltephy"
)

// target is the repo's absolute headline: simulated seconds per wall second
// the fixed-point transport must sustain at 20 MHz on one core.
const target = 10.0

func main() {
	maxRegress := flag.Float64("max-regress", 10, "fail if the streamer RTF falls more than this percent below the baseline")
	subframes := flag.Int("subframes", 2000, "timed subframes for the fresh measurement")
	requireTarget := flag.Bool("require-target", false, "also fail if the fresh 20 MHz RTF is below the absolute 10x target")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rtfcheck [-max-regress pct] [-subframes n] [-require-target] BASELINE.json")
		os.Exit(2)
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtfcheck:", err)
		os.Exit(2)
	}
	var base experiments.Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "rtfcheck: %s: %v\n", flag.Arg(0), err)
		os.Exit(2)
	}
	if base.RTF == nil || base.RTF.RTF <= 0 {
		fmt.Fprintf(os.Stderr, "rtfcheck: %s has no rtf baseline — record one with `lscatter-bench -all -rtf -metrics %s`\n",
			flag.Arg(0), flag.Arg(0))
		os.Exit(2)
	}

	// Re-measure at the baseline's bandwidth (the recorded reports use the
	// 20 MHz headline; the name round-trips through ltephy's numerology).
	bw := ltephy.BW20
	for _, b := range ltephy.Bandwidths {
		if b.String() == base.RTF.BW {
			bw = b
			break
		}
	}
	fresh := experiments.RunRTF(experiments.RTFConfig{BW: bw, Subframes: *subframes})
	fmt.Println(fresh.Render())

	delta := (fresh.RTF - base.RTF.RTF) / base.RTF.RTF * 100
	fmt.Printf("\nbaseline transport RTF: %.2fx (%s)\n", base.RTF.RTF, base.RTF.CPU)
	fmt.Printf("fresh    transport RTF: %.2fx (%+.1f%%)\n", fresh.RTF, delta)

	fail := false
	if delta < -*maxRegress {
		fmt.Printf("FAIL: transport RTF regressed %.1f%% (limit %.1f%%)\n", -delta, *maxRegress)
		fail = true
	}
	if fresh.RTF < target && bw == ltephy.BW20 {
		msg := "note"
		if *requireTarget {
			msg = "FAIL"
			fail = true
		}
		fmt.Printf("%s: fresh 20 MHz RTF %.2fx is below the %.0fx real-time target (see docs/PERFORMANCE.md)\n",
			msg, fresh.RTF, target)
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("OK: real-time factor within thresholds")
}
