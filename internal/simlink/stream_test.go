package simlink

import (
	"math"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/fxp"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

// replaySource serves a precomputed radio frame cyclically — the Session
// twin of the Streamer's repeated-ambient contract.
type replaySource struct {
	frames [][]complex128
	n      int
}

func (s *replaySource) NextSubframe() *enodeb.Subframe {
	idx := s.n % len(s.frames)
	s.n++
	return &enodeb.Subframe{Index: idx, Samples: s.frames[idx]}
}

func streamTestConfig(noiseW float64, timingUnits int) StreamConfig {
	return StreamConfig{
		ENodeB: enodeb.DefaultConfig(ltephy.BW1_4),
		Tag: tag.ModConfig{
			Params:           ltephy.DefaultParams(ltephy.BW1_4),
			Mode:             tag.DSB,
			TimingErrorUnits: timingUnits,
		},
		DirectGainDB: -40,
		TagGainDB:    -70,
		NoisePowerW:  noiseW,
		Seed:         9,
	}
}

// TestStreamerMatchesFloatSession pins the noiseless Streamer sample-exact
// (within one Q1.15 quantization step) against the Session run
// over the same ambient frame, gains and payload bits — the conformance
// pre-pass behind the real-time-factor headline (docs/PERFORMANCE.md).
func TestStreamerMatchesFloatSession(t *testing.T) {
	cfg := streamTestConfig(0, 2)
	st := NewStreamer(cfg)
	const subframes = 12 // wraps the radio frame once

	type produced struct {
		idx  int
		rx   *fxp.Buf
		bits [][]byte
	}
	var outs []produced
	for i := 0; i < subframes; i++ {
		idx, rx, bits := st.Materialize()
		outs = append(outs, produced{idx, rx, bits})
	}

	// Float reference: the same chain as a Session, with the Streamer's
	// payload bits queued up front in schedule order.
	mod := tag.NewModulator(cfg.Tag)
	for _, o := range outs {
		for _, sym := range o.bits {
			if len(sym) != mod.PerSymbolBits() {
				t.Fatalf("materialized symbol carries %d bits, want %d", len(sym), mod.PerSymbolBits())
			}
			mod.QueueBits(sym)
		}
	}
	frames := make([][]complex128, ltephy.SubframesPerFrame)
	for i := range frames {
		frames[i] = st.Ambient(i)
	}
	var rxs [][]complex128
	sess := &Session{
		Source: &replaySource{frames: frames},
		Direct: GainDB(cfg.DirectGainDB),
		Tags:   []*Tag{{Mod: mod, Path: GainDB(cfg.TagGainDB)}},
		Link:   channel.NewLink(rng.New(99), 0),
		Sink: SinkFunc(func(f *Frame) bool {
			rxs = append(rxs, append([]complex128(nil), f.RX...))
			return true
		}),
	}
	sess.Run(subframes)

	tol := st.Scale() / 65536 * (1 + 1e-9) // half a mantissa step per component
	for i, o := range outs {
		if o.idx != i%ltephy.SubframesPerFrame {
			t.Fatalf("subframe %d materialized index %d", i, o.idx)
		}
		want := rxs[i]
		if o.rx.Len() != len(want) {
			t.Fatalf("subframe %d: %d samples, want %d", i, o.rx.Len(), len(want))
		}
		for s := range want {
			got := o.rx.At(s)
			if math.Abs(real(got)-real(want[s])) > tol || math.Abs(imag(got)-imag(want[s])) > tol {
				t.Fatalf("subframe %d sample %d: fxp %v, float %v (tol %g)", i, s, got, want[s], tol)
			}
		}
	}
}

// TestStreamerNoiseStatistics validates the pre-drawn noise ring end to end:
// the difference between a noisy and a noiseless stream with the same seed
// (identical payload draws, near-identical quantization) must be zero-mean
// Gaussian at the configured per-component sigma.
func TestStreamerNoiseStatistics(t *testing.T) {
	// Sigma far above a mantissa step so quantization-grid differences
	// between the two streams are invisible next to the noise itself.
	stQuiet := NewStreamer(streamTestConfig(0, 0))
	sigma := stQuiet.Scale() / 64 // mantissa sigma 512
	noiseW := 2 * sigma * sigma
	stNoisy := NewStreamer(streamTestConfig(noiseW, 0))

	var sum, sumSq float64
	n := 0
	for i := 0; i < 4; i++ {
		_, quiet, _ := stQuiet.Materialize()
		_, noisy, _ := stNoisy.Materialize()
		if quiet.Len() != noisy.Len() {
			t.Fatalf("stream lengths diverge: %d vs %d", quiet.Len(), noisy.Len())
		}
		for s := 0; s < quiet.Len(); s++ {
			dq := noisy.At(s) - quiet.At(s)
			for _, d := range [2]float64{real(dq), imag(dq)} {
				sum += d
				sumSq += d * d
				n++
			}
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.05*sigma {
		t.Fatalf("noise mean %g, want |mean| <= %g (sigma %g)", mean, 0.05*sigma, sigma)
	}
	// The ring clamps at 4 sigma (variance loss ~0.1%) and reuses lanes
	// cyclically; 10% tolerance covers both plus finite-sample error.
	if math.Abs(std-sigma)/sigma > 0.10 {
		t.Fatalf("noise std %g, want within 10%% of sigma %g", std, sigma)
	}
}

// TestStreamerDemodulates closes the loop: the materialized noiseless stream
// must acquire and demodulate error-free through the real float receiver,
// with the decisions matching the payload bits the Streamer reported.
func TestStreamerDemodulates(t *testing.T) {
	cfg := streamTestConfig(0, 2)
	st := NewStreamer(cfg)
	p := cfg.ENodeB.Params
	lteRx := ue.NewLTEReceiver(p, cfg.ENodeB.Scheme)
	sc := ue.NewScatterDemod(ue.DefaultScatterConfig(p))

	compared, errs := 0, 0
	start := 0
	synced := false
	for i := 0; i < 10; i++ {
		sfIdx, rxBuf, bits := st.Materialize()
		rx := rxBuf.ToComplex(nil)
		lte, err := lteRx.ReceiveSubframe(rx, sfIdx)
		if err != nil || !lte.OK {
			t.Fatalf("subframe %d: LTE decode failed (err %v, ok %v)", i, err, lte != nil && lte.OK)
		}
		burst := IsBurstSubframe(sfIdx)
		var res *ue.ScatterResult
		if burst {
			res = sc.AcquireBurst(rx, lte.RefSamples, sfIdx, start)
			if !res.Synced {
				t.Fatalf("subframe %d: burst preamble not acquired", i)
			}
			synced = true
			d := sc.DemodSubframe(rx, lte.RefSamples, sfIdx, start, true)
			res.Decisions = d.Decisions
		} else if synced {
			res = sc.DemodSubframe(rx, lte.RefSamples, sfIdx, start, false)
		}
		start += len(rx)
		if res == nil {
			continue
		}
		// Payload symbols in schedule order (preamble excluded) line up with
		// the Streamer's reported bits.
		j := 0
		for _, dec := range res.Decisions {
			if j >= len(bits) {
				break
			}
			if len(dec.Bits) != len(bits[j]) {
				t.Fatalf("subframe %d symbol %d: %d decisions, want %d", i, dec.Symbol, len(dec.Bits), len(bits[j]))
			}
			for k := range dec.Bits {
				compared++
				if dec.Bits[k] != bits[j][k] {
					errs++
				}
			}
			j++
		}
		if j != len(bits) {
			t.Fatalf("subframe %d: demodulated %d payload symbols, streamer reported %d", i, j, len(bits))
		}
	}
	if compared == 0 {
		t.Fatal("no bits compared — the chain never came up")
	}
	if errs != 0 {
		t.Fatalf("%d/%d bit errors on a noiseless stream", errs, compared)
	}
}

// TestStreamerScopePanics pins the documented scope limits.
func TestStreamerScopePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("SSB", func() {
		cfg := streamTestConfig(0, 0)
		cfg.Tag.Mode = tag.SSB
		NewStreamer(cfg)
	})
	mustPanic("SampleOffset", func() {
		cfg := streamTestConfig(0, 0)
		cfg.Tag.SampleOffset = 1
		NewStreamer(cfg)
	})
	mustPanic("Oversample", func() {
		cfg := streamTestConfig(0, 0)
		cfg.ENodeB.Params.Oversample = 2
		cfg.Tag.Params.Oversample = 2
		NewStreamer(cfg)
	})
	mustPanic("negative noise", func() {
		cfg := streamTestConfig(-1, 0)
		NewStreamer(cfg)
	})
}
