// Command lscatter-sim evaluates one LScatter link scenario and prints the
// resulting throughput, BER and link-budget diagnostics.
//
// Usage:
//
//	lscatter-sim -bw 20 -enb-tag 3 -tag-ue 80 -power 10 -exponent 2.2
//	lscatter-sim -bw 1.4 -mode exact -subframes 5
//	lscatter-sim -bw 1.4 -mode exact -impair moderate
//	lscatter-sim -bw 1.4 -mode exact -cfo 800 -sfo-ppm 2 -adc-bits 8
//	lscatter-sim -sweep 10:200:10 -parallel 0
//
// A -sweep evaluates one link per distance step; -parallel fans the points
// out over a worker pool (0 = NumCPU). Every point is seeded independently,
// so the printed table is identical at any worker count.
//
// Fault injection (exact mode only): -impair selects a named level of the
// resilience ladder (off, mild, moderate, severe; see docs/RESILIENCE.md),
// and -cfo/-sfo-ppm/-adc-bits/-jitter-rms switch on individual stages on
// top of (or instead of) the level.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/exec"
	"lscatter/internal/experiments"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
)

// sweepPoints evaluates one core.Run per distance on a pool of workers and
// returns the reports in point order.
func sweepPoints(cfgs []core.LinkConfig, workers int) []core.LinkReport {
	reports := make([]core.LinkReport, len(cfgs))
	_ = exec.Each(context.Background(), len(cfgs), workers, func(_ context.Context, i int) error {
		reports[i] = core.Run(cfgs[i])
		return nil
	})
	return reports
}

// impairmentFor assembles the fault-injection config from the -impair level
// and the individual stage flags (which override or extend the level). It
// returns nil when no fault injection is requested.
func impairmentFor(level string, cfoHz, sfoPPM float64, adcBits int, jitterRMS float64) (*impair.Config, error) {
	var ic impair.Config
	switch level {
	case "", "off":
	default:
		found := false
		for _, lvl := range experiments.ImpairmentLevels() {
			if lvl.Name == level {
				ic = lvl.Impair
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown impairment level %q (use off, mild, moderate or severe)", level)
		}
	}
	if cfoHz != 0 {
		ic.CFO = impair.CFOConfig{Enabled: true, OffsetHz: cfoHz}
	}
	if sfoPPM != 0 {
		ic.SFO = impair.SFOConfig{Enabled: true, PPM: sfoPPM}
	}
	if adcBits != 0 {
		ic.ADC = impair.ADCConfig{Enabled: true, Bits: adcBits}
	}
	if jitterRMS != 0 {
		ic.Jitter = impair.JitterConfig{Enabled: true, RMSSamples: jitterRMS}
	}
	if !ic.Active() {
		return nil, nil
	}
	return &ic, nil
}

func bandwidthFlag(v string) (ltephy.Bandwidth, error) {
	for _, bw := range ltephy.Bandwidths {
		if v+"MHz" == bw.String() {
			return bw, nil
		}
	}
	return 0, fmt.Errorf("unknown bandwidth %q (use 1.4, 3, 5, 10, 15 or 20)", v)
}

func main() {
	var (
		bwStr     = flag.String("bw", "20", "LTE bandwidth in MHz (1.4, 3, 5, 10, 15, 20)")
		enbTag    = flag.Float64("enb-tag", 3, "eNodeB-to-tag distance in feet")
		tagUE     = flag.Float64("tag-ue", 3, "tag-to-UE distance in feet")
		enbUE     = flag.Float64("enb-ue", 0, "eNodeB-to-UE distance in feet (default: sum of the hops)")
		power     = flag.Float64("power", 10, "eNodeB transmit power in dBm")
		exponent  = flag.Float64("exponent", 2.2, "path-loss exponent")
		nlos      = flag.Bool("nlos", false, "non-line-of-sight fading")
		mode      = flag.String("mode", "analytic", "evaluation mode: analytic or exact")
		subframes = flag.Int("subframes", 5, "subframes to simulate in exact mode")
		seed      = flag.Uint64("seed", 1, "random seed")
		sweep     = flag.String("sweep", "", "sweep tag-to-UE distance: \"start:stop:step\" in feet, prints a table")
		parallel  = flag.Int("parallel", 1, "worker count for -sweep (0 = NumCPU, 1 = sequential)")
		level     = flag.String("impair", "", "impairment level for exact mode: off, mild, moderate or severe")
		cfoHz     = flag.Float64("cfo", 0, "carrier-frequency offset in Hz (exact mode; enables the CFO stage)")
		sfoPPM    = flag.Float64("sfo-ppm", 0, "sampling clock offset in ppm (exact mode; enables the SFO stage)")
		adcBits   = flag.Int("adc-bits", 0, "ADC resolution in bits (exact mode; enables the ADC stage)")
		jitterRMS = flag.Float64("jitter-rms", 0, "tag timing jitter RMS in basic-timing units (exact mode)")
	)
	flag.Parse()

	bw, err := bandwidthFlag(*bwStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := core.DefaultLinkConfig(bw)
	cfg.TxPowerDBm = *power
	cfg.ENodeBToTagM = channel.FeetToMeters(*enbTag)
	cfg.TagToUEM = channel.FeetToMeters(*tagUE)
	if *enbUE > 0 {
		cfg.ENodeBToUEM = channel.FeetToMeters(*enbUE)
	} else {
		cfg.ENodeBToUEM = channel.FeetToMeters(*enbTag + *tagUE)
	}
	cfg.PathLossExponent = *exponent
	cfg.LoS = !*nlos
	cfg.Seed = *seed
	cfg.Subframes = *subframes
	if *mode == "exact" {
		cfg.Mode = core.Exact
	}

	ic, err := impairmentFor(*level, *cfoHz, *sfoPPM, *adcBits, *jitterRMS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ic != nil {
		if cfg.Mode != core.Exact {
			fmt.Fprintln(os.Stderr, "impairments need -mode exact (the analytic model has no waveform to corrupt)")
			os.Exit(2)
		}
		cfg.Impair = ic
	}

	if *sweep != "" {
		var start, stop, step float64
		if _, err := fmt.Sscanf(*sweep, "%g:%g:%g", &start, &stop, &step); err != nil || step <= 0 || stop < start {
			fmt.Fprintf(os.Stderr, "bad sweep %q, want start:stop:step in feet\n", *sweep)
			os.Exit(2)
		}
		var dists []float64
		var cfgs []core.LinkConfig
		for d := start; d <= stop+1e-9; d += step {
			c := cfg
			c.TagToUEM = channel.FeetToMeters(d)
			c.ENodeBToUEM = channel.FeetToMeters(*enbTag + d)
			dists = append(dists, d)
			cfgs = append(cfgs, c)
		}
		reports := sweepPoints(cfgs, *parallel)
		fmt.Printf("tag-UE (ft)  throughput (Mbps)  BER        scatter SNR (dB)\n")
		for i, rep := range reports {
			fmt.Printf("%-11.0f  %-17.3f  %-9.3g  %.1f\n",
				dists[i], rep.ThroughputBps/1e6, rep.BER, rep.ScatterSNRdB)
		}
		return
	}

	rep := core.Run(cfg)
	fmt.Printf("LScatter link: %s, %.0f dBm, eNB-tag %.0f ft, tag-UE %.0f ft, exponent %.1f\n",
		bw, *power, *enbTag, *tagUE, *exponent)
	fmt.Printf("  tag hears eNodeB : %v\n", rep.TagHearsENodeB)
	fmt.Printf("  LTE decode       : %v (direct SNR %.1f dB)\n", rep.LTEOK, rep.DirectSNRdB)
	fmt.Printf("  preamble sync    : %v\n", rep.Synced)
	fmt.Printf("  scatter unit SNR : %.1f dB\n", rep.ScatterSNRdB)
	fmt.Printf("  BER              : %.3g\n", rep.BER)
	fmt.Printf("  raw rate         : %.2f Mbps\n", rep.RawRateBps/1e6)
	fmt.Printf("  throughput       : %.2f Mbps\n", rep.ThroughputBps/1e6)
	if rep.BitsCompared > 0 {
		fmt.Printf("  bits compared    : %d (exact mode)\n", rep.BitsCompared)
	}
}
