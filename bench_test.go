package lscatter

// One benchmark per table and figure of the paper's evaluation, each wrapping
// the corresponding reproduction runner in internal/experiments, plus
// system-level micro-benchmarks of the hot signal path. Run them all with:
//
//	go test -bench=. -benchmem .
//
// The per-artifact benchmarks exist so "regenerate figure X" is a single
// target with tracked cost; the Result they produce is identical to what
// cmd/lscatter-bench prints.

import (
	"context"
	"math"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/enodeb"
	"lscatter/internal/experiments"
	"lscatter/internal/fleet"
	"lscatter/internal/ltephy"
)

var benchSink *experiments.Result

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("artifact %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		benchSink = runner(uint64(i) + 1)
	}
	if benchSink == nil || len(benchSink.Rows) == 0 {
		b.Fatalf("artifact %s produced no rows", id)
	}
}

// Table 1: excitation-signal feature matrix.
func BenchmarkTable1Features(b *testing.B) { benchArtifact(b, "T1") }

// Figure 4: the motivating spectrum measurements.
func BenchmarkFig4aWiFiSpectrogram(b *testing.B) { benchArtifact(b, "F4a") }
func BenchmarkFig4bLTESpectrogram(b *testing.B)  { benchArtifact(b, "F4b") }
func BenchmarkFig4cOccupancyCDF(b *testing.B)    { benchArtifact(b, "F4c") }

// Figure 8: synchronization-circuit stage outputs.
func BenchmarkFig8SyncCircuit(b *testing.B) { benchArtifact(b, "F8") }

// Figure 12: constellation rotation from the phase offset.
func BenchmarkFig12PhaseOffset(b *testing.B) { benchArtifact(b, "F12") }

// Figures 16/17: smart-home day.
func BenchmarkFig16SmartHomeDay(b *testing.B)  { benchArtifact(b, "F16") }
func BenchmarkFig17HomeOccupancy(b *testing.B) { benchArtifact(b, "F17") }

// Figure 18: throughput vs LTE bandwidth.
func BenchmarkFig18Bandwidth(b *testing.B) { benchArtifact(b, "F18") }

// Figure 19: home-distance matrix.
func BenchmarkFig19DistanceMatrix(b *testing.B) { benchArtifact(b, "F19") }

// Figures 21/22: shopping mall day.
func BenchmarkFig21MallDay(b *testing.B)       { benchArtifact(b, "F21") }
func BenchmarkFig22MallOccupancy(b *testing.B) { benchArtifact(b, "F22") }

// Figures 23/24: mall distance sweeps.
func BenchmarkFig23MallDistance(b *testing.B) { benchArtifact(b, "F23") }
func BenchmarkFig24MallBER(b *testing.B)      { benchArtifact(b, "F24") }

// Figures 26/27: outdoor day.
func BenchmarkFig26OutdoorDay(b *testing.B)       { benchArtifact(b, "F26") }
func BenchmarkFig27OutdoorOccupancy(b *testing.B) { benchArtifact(b, "F27") }

// Figures 28/29: outdoor distance sweeps.
func BenchmarkFig28OutdoorDistance(b *testing.B) { benchArtifact(b, "F28") }
func BenchmarkFig29OutdoorBER(b *testing.B)      { benchArtifact(b, "F29") }

// Figure 30: 40 dBm range frontier.
func BenchmarkFig30RangeFrontier(b *testing.B) { benchArtifact(b, "F30") }

// Figure 31: synchronization accuracy CDF.
func BenchmarkFig31SyncAccuracy(b *testing.B) { benchArtifact(b, "F31") }

// Figure 32: impact on existing LTE (bit-true chain).
func BenchmarkFig32LTEImpact(b *testing.B) { benchArtifact(b, "F32") }

// Figure 33b: continuous-authentication update rate.
func BenchmarkFig33bAuthUpdateRate(b *testing.B) { benchArtifact(b, "F33b") }

// §4.8: the power budget table.
func BenchmarkPowerBudget(b *testing.B) { benchArtifact(b, "P48") }

// Ablations of the design choices called out in DESIGN.md.
func BenchmarkAblationRefinement(b *testing.B)   { benchArtifact(b, "A1") }
func BenchmarkAblationSideband(b *testing.B)     { benchArtifact(b, "A2") }
func BenchmarkAblationPSSBoost(b *testing.B)     { benchArtifact(b, "A3") }
func BenchmarkAblationOversampling(b *testing.B) { benchArtifact(b, "A4") }
func BenchmarkAblationCoding(b *testing.B)       { benchArtifact(b, "A5") }

// Model-vs-chain cross validation.
func BenchmarkValidationModelVsChain(b *testing.B) { benchArtifact(b, "V1") }

// Extensions: coverage-map analog, interference analysis, multi-tag scaling.
func BenchmarkFig3Coverage(b *testing.B)    { benchArtifact(b, "F3") }
func BenchmarkInterferencePSD(b *testing.B) { benchArtifact(b, "I1") }
func BenchmarkMultiTagScaling(b *testing.B) { benchArtifact(b, "M1") }

// City-scale fleet: 10^6 tags over three venues and four diurnal hours.
func BenchmarkCityScaleFleet(b *testing.B) { benchArtifact(b, "C1") }

// Fleet-engine scaling sweep at fixed aggregate load: the same city demand
// (50 msg/s) spread over ever more parked tags. The event-driven scheduler's
// work is O(events), so ns/op should stay nearly flat from 10^3 to 10^6 tags
// — this sweep, recorded in BENCH_R3.json, is the artifact behind that claim
// (tools/fleetcheck enforces the ratio in `make fleet-check`).

var fleetSink fleet.Report

func benchFleet(b *testing.B, tags int) {
	b.Helper()
	sim := fleet.NewSim(fleet.SimConfig{
		Config:         fleet.Config{MAC: fleet.AlohaCapture, Seed: 1},
		Tags:           tags,
		DurationSec:    30,
		TotalMsgPerSec: 50,
		NoiseW:         1e-13,
		RxPowerW: func(tag int) float64 {
			return 1e-9 * math.Pow(10, -float64(tag%64)/32)
		},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleetSink = sim.Run(12, 30)
	}
	if fleetSink.Delivered == 0 {
		b.Fatal("fleet benchmark delivered nothing")
	}
}

func BenchmarkFleet1kTags(b *testing.B)   { benchFleet(b, 1_000) }
func BenchmarkFleet10kTags(b *testing.B)  { benchFleet(b, 10_000) }
func BenchmarkFleet100kTags(b *testing.B) { benchFleet(b, 100_000) }
func BenchmarkFleet1MTags(b *testing.B)   { benchFleet(b, 1_000_000) }

// Whole-harness benchmarks: every artifact, sequential vs worker pool. Both
// reset the shared waveform cache each iteration so they measure cold runs
// and stay comparable; the pool's speedup over sequential scales with the
// cores available (on a single-core runner the two are equivalent).

var harnessSink []*experiments.Result

// BenchmarkAllSequential regenerates every artifact on one worker.
func BenchmarkAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ltephy.SharedCache.Reset()
		harnessSink = experiments.All(1)
	}
	if len(harnessSink) == 0 {
		b.Fatal("harness produced no results")
	}
}

// BenchmarkAllParallel regenerates every artifact on an 8-worker pool. Its
// output is byte-identical to BenchmarkAllSequential by construction.
func BenchmarkAllParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ltephy.SharedCache.Reset()
		var err error
		harnessSink, err = experiments.RunAll(context.Background(), 1, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(harnessSink) == 0 {
		b.Fatal("harness produced no results")
	}
}

// System micro-benchmarks: the end-to-end chain itself.

var reportSink core.LinkReport

// BenchmarkExactChainSubframe1_4MHz measures the bit-true pipeline: one
// 1.4 MHz subframe through eNodeB -> tag -> channel -> UE (LTE decode,
// reference regeneration, backscatter demodulation).
func BenchmarkExactChainSubframe1_4MHz(b *testing.B) {
	cfg := core.DefaultLinkConfig(ltephy.BW1_4)
	cfg.Mode = core.Exact
	cfg.Subframes = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		reportSink = core.Run(cfg)
	}
}

// BenchmarkExactChainSubframe5MHz is the same chain at 5 MHz.
func BenchmarkExactChainSubframe5MHz(b *testing.B) {
	cfg := core.DefaultLinkConfig(ltephy.BW5)
	cfg.Mode = core.Exact
	cfg.Subframes = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		reportSink = core.Run(cfg)
	}
}

// BenchmarkPipelineExact measures the staged simlink engine end to end: a
// four-subframe exact-mode session (the golden-vector configuration) per
// iteration, covering Session stepping, the tag bank, the two-hop channel,
// the Link combine and the demod sink's bit accounting. Its allocation count
// is the canary for pipeline-layer regressions under `make bench-compare`.
func BenchmarkPipelineExact(b *testing.B) {
	cfg := core.DefaultLinkConfig(ltephy.BW1_4)
	cfg.Mode = core.Exact
	cfg.Subframes = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		reportSink = core.Run(cfg)
	}
}

// BenchmarkSemiAnalyticLink measures the closed-form evaluator used by the
// parameter sweeps.
func BenchmarkSemiAnalyticLink(b *testing.B) {
	cfg := core.DefaultLinkConfig(ltephy.BW20)
	cfg.TagToUEM = channel.FeetToMeters(100)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		reportSink = core.Run(cfg)
	}
}

var gridSink *ltephy.Grid

// BenchmarkDemodulate measures the per-subframe OFDM demodulator at 20 MHz
// (14 forward FFTs plus grid extraction) — the front of every receive chain.
func BenchmarkDemodulate(b *testing.B) {
	p := ltephy.DefaultParams(ltephy.BW20)
	enb := enodeb.New(enodeb.DefaultConfig(ltephy.BW20))
	sf := enb.NextSubframe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ltephy.Demodulate(p, sf.Samples, sf.Index)
		if err != nil {
			b.Fatal(err)
		}
		gridSink = g
	}
}
