package tag

import (
	"math"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/stats"
)

// truePSSTimes returns the instants (seconds) at which PSS symbols begin in
// a stream of n subframes.
func truePSSTimes(p ltephy.Params, nSubframes int) []float64 {
	var out []float64
	sfDur := ltephy.SubframeDuration
	for sf := 0; sf < nSubframes; sf++ {
		if sf%5 != 0 {
			continue
		}
		off := float64(ltephy.UsefulStart(p, ltephy.PSSSymbolIndex)) / p.SampleRate()
		out = append(out, float64(sf)*sfDur+off)
	}
	return out
}

func runSync(t testing.TB, nSubframes int, noiseW float64, seed uint64) ([]Detection, *SyncCircuit, ltephy.Params) {
	t.Helper()
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	e := enodeb.New(cfg)
	sc := NewSyncCircuit(cfg.Params, SyncConfig{})
	r := rng.New(seed)
	var dets []Detection
	for i := 0; i < nSubframes; i++ {
		sf := e.NextSubframe()
		buf := sf.Samples
		if noiseW > 0 {
			buf = append([]complex128(nil), buf...)
			channel.AWGN(r, buf, noiseW)
		}
		dets = append(dets, sc.Process(buf)...)
	}
	return dets, sc, cfg.Params
}

func TestSyncDetectsPSSPeriodically(t *testing.T) {
	dets, _, _ := runSync(t, 40, 0, 1)
	if len(dets) < 5 {
		t.Fatalf("only %d detections in 40 ms", len(dets))
	}
	// Detections must be ~5 ms apart (the PSS period).
	for i := 1; i < len(dets); i++ {
		gap := dets[i].Time - dets[i-1].Time
		if math.Abs(gap-ltephy.PSSPeriod) > 0.5e-3 {
			t.Fatalf("detection gap %v s, want ~5 ms", gap)
		}
	}
}

func TestSyncErrorDistribution(t *testing.T) {
	// The paper's Fig 31: sync errors (detection latency vs the true PSS
	// time, as an LTE receiver would measure it) concentrate in the tens of
	// microseconds with small jitter.
	dets, sc, p := runSync(t, 60, 0, 2)
	if len(dets) < 8 {
		t.Fatalf("too few detections: %d", len(dets))
	}
	truth := truePSSTimes(p, 60)
	var errors []float64
	for _, d := range dets {
		est := sc.EstimatePSSTime(d)
		// match to nearest true PSS
		best := math.Inf(1)
		for _, tt := range truth {
			if e := est - tt; math.Abs(e) < math.Abs(best) {
				best = e
			}
		}
		errors = append(errors, best*1e6) // us
	}
	mean := stats.Mean(errors)
	std := stats.Std(errors)
	if math.Abs(mean) > 40 {
		t.Fatalf("calibrated sync error mean = %v us, want within ±40", mean)
	}
	if std > 15 {
		t.Fatalf("sync jitter std = %v us, want < 15", std)
	}
}

func TestSyncSurvivesNoise(t *testing.T) {
	// 10 dB in-band SNR: the analog detector must still find the PSS cadence.
	noise := 0.01 * 0.1 // tx power 10 mW, SNR 10 dB over full band
	dets, _, _ := runSync(t, 40, noise, 3)
	if len(dets) < 5 {
		t.Fatalf("only %d detections under noise", len(dets))
	}
	gaps := 0
	for i := 1; i < len(dets); i++ {
		gap := dets[i].Time - dets[i-1].Time
		if math.Abs(gap-ltephy.PSSPeriod) < 0.5e-3 {
			gaps++
		}
	}
	if gaps < (len(dets)-1)*3/4 {
		t.Fatalf("only %d/%d gaps near 5 ms under noise", gaps, len(dets)-1)
	}
}

func TestSyncNoFalseAlarmsWithoutPSSBoost(t *testing.T) {
	// With the PSS boost removed the envelope is nearly flat: the comparator
	// should fire rarely if at all.
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	cfg.Params.PSSBoostDB = 0
	e := enodeb.New(cfg)
	sc := NewSyncCircuit(cfg.Params, SyncConfig{})
	var dets []Detection
	for i := 0; i < 40; i++ {
		dets = append(dets, sc.Process(e.NextSubframe().Samples)...)
	}
	// Allow a few spurious edges but far fewer than the 8 PSS occurrences.
	if len(dets) > 4 {
		t.Fatalf("%d detections with no PSS boost (envelope should be flat)", len(dets))
	}
}

func TestSyncTraceRecordsStages(t *testing.T) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	e := enodeb.New(cfg)
	sc := NewSyncCircuit(cfg.Params, SyncConfig{Trace: true})
	for i := 0; i < 20; i++ {
		sc.Process(e.NextSubframe().Samples)
	}
	tr := sc.Trace()
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	want := int(0.020 * tr.SampleRate)
	if len(tr.Envelope) < want-10 || len(tr.Envelope) > want+10 {
		t.Fatalf("trace length %d, want ~%d", len(tr.Envelope), want)
	}
	if len(tr.Average) != len(tr.Envelope) || len(tr.Comparator) != len(tr.Envelope) {
		t.Fatal("stage traces have different lengths")
	}
	// The envelope trace must show the PSS peaks: max over a window around
	// each PSS clearly above the median level.
	med := stats.Median(tr.Envelope[len(tr.Envelope)/2:])
	lo, hi := stats.MinMax(tr.Envelope[len(tr.Envelope)/2:])
	if hi < 1.3*med {
		t.Fatalf("envelope peaks not distinct: max %v vs median %v (min %v)", hi, med, lo)
	}
}

func TestSyncInternalRateReasonable(t *testing.T) {
	for _, bw := range []ltephy.Bandwidth{ltephy.BW1_4, ltephy.BW5, ltephy.BW20} {
		p := ltephy.DefaultParams(bw)
		sc := NewSyncCircuit(p, SyncConfig{})
		r := sc.InternalRate()
		if r < 1.8e6 || r > 4e6 {
			t.Fatalf("%v: internal rate %v, want ~1.92-3.84 MHz", bw, r)
		}
	}
}

func TestNominalDelayPositiveAndSmall(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	sc := NewSyncCircuit(p, SyncConfig{})
	d := sc.NominalDelay()
	if d <= 0 || d > 500e-6 {
		t.Fatalf("nominal delay = %v s, want (0, 500us]", d)
	}
}

// processReference is the Process that SyncCircuit had before its decimator
// computed only kept outputs: every cascade stage filters every input sample
// and then drops the outputs its phase does not keep. Process must match it
// bit for bit.
func processReference(s *SyncCircuit, x []complex128) []Detection {
	var dets []Detection
	for _, v := range x {
		s.samplesIn++
		keep := true
		for st := range s.firs {
			v = s.firs[st].ProcessSample(v)
			s.phase[st]++
			if s.phase[st] < s.decim[st] {
				keep = false
				break
			}
			s.phase[st] = 0
		}
		if keep {
			dets = s.detect(v, dets)
		}
	}
	return dets
}

// syncStream returns n subframes of the default eNodeB waveform at bw with
// AWGN of power noiseW.
func syncStream(bw ltephy.Bandwidth, n int, noiseW float64, seed uint64) (ltephy.Params, []complex128) {
	cfg := enodeb.DefaultConfig(bw)
	e := enodeb.New(cfg)
	var x []complex128
	for i := 0; i < n; i++ {
		x = append(x, e.NextSubframe().Samples...)
	}
	channel.AWGN(rng.New(seed), x, noiseW)
	return cfg.Params, x
}

func TestSyncProcessMatchesReference(t *testing.T) {
	for _, bw := range []ltephy.Bandwidth{ltephy.BW1_4, ltephy.BW5, ltephy.BW20} {
		p, x := syncStream(bw, 12, 1e-3, uint64(bw)+1)
		cfg := SyncConfig{Trace: true, TimingJitterRMS: 2e-6, JitterSeed: 5}
		got, want := NewSyncCircuit(p, cfg), NewSyncCircuit(p, cfg)
		if len(got.decim) == 0 {
			t.Fatalf("%v: no decimation stage to compare", bw)
		}
		// Uneven blocks, so stages carry their phase across calls.
		r := rng.New(uint64(bw))
		var gd, wd []Detection
		for len(x) > 0 {
			n := min(len(x), 1+r.Intn(50000))
			gd = append(gd, got.Process(x[:n])...)
			wd = append(wd, processReference(want, x[:n])...)
			x = x[n:]
		}
		if len(wd) == 0 {
			t.Fatalf("%v: reference made no detections", bw)
		}
		if len(gd) != len(wd) {
			t.Fatalf("%v: %d detections, reference %d", bw, len(gd), len(wd))
		}
		for i := range wd {
			if gd[i].SampleIndex != wd[i].SampleIndex || math.Float64bits(gd[i].Time) != math.Float64bits(wd[i].Time) {
				t.Fatalf("%v: detection %d = %+v, reference %+v", bw, i, gd[i], wd[i])
			}
		}
		gt, wt := got.Trace(), want.Trace()
		if len(gt.Envelope) != len(wt.Envelope) || string(gt.Comparator) != string(wt.Comparator) {
			t.Fatalf("%v: trace lengths or comparator outputs differ from reference", bw)
		}
		for i := range wt.Envelope {
			if math.Float64bits(gt.Envelope[i]) != math.Float64bits(wt.Envelope[i]) ||
				math.Float64bits(gt.Average[i]) != math.Float64bits(wt.Average[i]) {
				t.Fatalf("%v: trace sample %d differs from reference", bw, i)
			}
		}
	}
}

// benchSync times a sync-circuit Process over 5 ms of a 20 MHz stream.
func benchSync(b *testing.B, process func(*SyncCircuit, []complex128) []Detection) {
	p, x := syncStream(ltephy.BW20, 5, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process(NewSyncCircuit(p, SyncConfig{}), x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/sample")
}

func BenchmarkSyncProcess(b *testing.B)          { benchSync(b, (*SyncCircuit).Process) }
func BenchmarkSyncProcessReference(b *testing.B) { benchSync(b, processReference) }
