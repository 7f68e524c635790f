package main

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	lbits "lscatter/internal/bits"
	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/dsp"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
	"lscatter/internal/tag"
)

// The kernel probe times the public kernel entry points on inputs shaped
// like the paper sweep's: a 20 MHz eNodeB stream at 4x oversampling, and
// noisy QPSK at a working SNR. Each kernel runs several repetitions, each
// inside its own span, and reports the median time per item. Next to the
// Viterbi, demap, multipath and FFT timings the probe prints the bytes the
// current algorithm reads and writes per item, as the comments derive them,
// so a time per item can be read as a memory bandwidth. Those counts are
// notes, not metrics: they are not measured, and they describe the
// algorithm as it is today.
const (
	probeSubframes = 20   // sync needs 10 ms of warm-up before it detects
	viterbiInfo    = 2000 // information bits per code block
	viterbiBlocks  = 16   // noisy code blocks per repetition
	demapSymbols   = 1e5  // noisy QPSK symbols per repetition
	fftBlocks      = 100  // transforms per repetition
	normDraws      = 1e6  // normal draws per repetition
	semiLinks      = 200  // semi-analytic links per repetition
	exactLinks     = 4    // exact links per repetition
	probeEsN0dB    = 2.0  // QPSK symbol SNR of the decoder inputs
	richPaths      = 9    // non-zero taps of channel.RichProfile
	probeReps      = 7
	slowProbeReps  = 3
)

func kernelProbe(seed uint64, tr *tracer) (*runResult, error) {
	res := &runResult{layers: map[string]float64{}}
	root := tr.begin("kernel.probe", "", 0)
	defer tr.end(root)
	timeIt := func(name string, items, reps int, f func()) float64 {
		var per []float64
		for i := 0; i < reps; i++ {
			sp := tr.begin(name, "", root)
			start := time.Now()
			f()
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(items))
			tr.end(sp)
		}
		return median(per)
	}
	computed := func(name string, bytes float64) {
		res.notes = append(res.notes, fmt.Sprintf("%-45s %14.0f B (computed from the algorithm, not measured)", name, bytes))
	}
	check := func(ok bool, format string, args ...any) {
		res.attempted++
		if !ok {
			res.fail(format, args...)
		}
	}
	r := rng.New(seed)

	p := ltephy.DefaultParams(ltephy.BW20)
	enb := enodeb.New(enodeb.Config{Params: p, Scheme: modem.QPSK, TxPowerDBm: 10, Seed: seed})
	var x []complex128
	for _, sf := range enb.Stream(probeSubframes) {
		x = append(x, sf.Samples...)
	}
	perSubframe := len(x) / probeSubframes

	// tag: the synchronization circuit over the whole stream.
	var dets []tag.Detection
	layer := timeIt("kernel.tag.sync", len(x), slowProbeReps, func() {
		dets = tag.NewSyncCircuit(p, tag.DefaultSyncConfig()).Process(x)
	})
	res.layers["tag.sync_ns_per_sample"] = layer
	check(len(dets) > 0, "tag sync: no PSS detected in %d ms", probeSubframes)

	// modem and bits: soft demap and Viterbi on noisy QPSK.
	code := lbits.NewConvCodeR13()
	n0 := math.Pow(10, -probeEsN0dB/10)
	noisy := func(coded []byte) []complex128 {
		syms := modem.Map(modem.QPSK, coded)
		for i := range syms {
			syms[i] += r.Complex(math.Sqrt(n0 / 2))
		}
		return syms
	}
	infos := make([][]byte, viterbiBlocks)
	llrs := make([][]float64, viterbiBlocks)
	for i := range infos {
		infos[i] = r.Bits(make([]byte, viterbiInfo))
		llrs[i] = modem.DemapSoft(modem.QPSK, noisy(code.Encode(infos[i])), n0)
	}
	decoded := make([][]byte, viterbiBlocks)
	res.layers["bits.viterbi_ns_per_bit"] = timeIt("kernel.bits.viterbi", viterbiInfo*viterbiBlocks, probeReps, func() {
		for i, llr := range llrs {
			decoded[i] = code.DecodeSoft(llr)
		}
	})
	errs := 0
	for i := range infos {
		for j := range infos[i] {
			if j >= len(decoded[i]) || decoded[i][j] != infos[i][j] {
				errs++
			}
		}
	}
	check(errs*1000 <= viterbiInfo*viterbiBlocks, "viterbi: %d bit errors in %d bits at Es/N0 %g dB", errs, viterbiInfo*viterbiBlocks, probeEsN0dB)
	// Per decoded bit: 3 LLRs in (24 B), 64 path metrics read and 64
	// written (1024 B), 128 branches each reading 3 expected outputs
	// (3072 B), and a 64-entry survivor row of uint16 (128 B).
	computed("bits.viterbi_bytes_per_bit_computed", 3*8+2*64*8+128*3*8+64*2)

	syms := noisy(r.Bits(make([]byte, 2*int(demapSymbols))))
	res.layers["modem.demap_ns_per_symbol"] = timeIt("kernel.modem.demap", len(syms), probeReps, func() {
		llrs[0] = modem.DemapSoft(modem.QPSK, syms, n0)
	})
	check(len(llrs[0]) == 2*len(syms), "demap: %d LLRs for %d QPSK symbols", len(llrs[0]), len(syms))
	// Per symbol: the symbol in (16 B), 2 LLRs out (16 B), and each of the
	// 2 bits scanning the 4 constellation points (2*4*16 B).
	computed("modem.demap_bytes_per_symbol_computed", 16+2*8+2*4*16)

	// channel: a rich multipath realization over one subframe.
	mp := channel.NewMultipath(r, channel.RichProfile, p.SampleRate())
	var y []complex128
	res.layers["channel.multipath_ns_per_sample"] = timeIt("kernel.channel.multipath", perSubframe, probeReps, func() {
		y = mp.Apply(x[:perSubframe])
	})
	check(len(y) == perSubframe && dsp.Power(y) > 0, "multipath: %d outputs with power %g", len(y), dsp.Power(y))
	// Per sample: one output written (16 B), every delay-line tap read
	// (16 B each), and the input read once per non-zero tap.
	computed("channel.multipath_bytes_per_sample_computed", float64(16+16*mp.NumTaps()+16*richPaths))

	// dsp: the oversampled 20 MHz OFDM transform size.
	nfft := p.BW.FFTSize() * p.Oversample
	plan := dsp.PlanFor(nfft)
	dst := make([]complex128, nfft)
	blocks := min(fftBlocks, len(x)/nfft)
	res.layers["dsp.fft_ns_per_point"] = timeIt("kernel.dsp.fft", blocks*nfft, probeReps, func() {
		for b := 0; b < blocks; b++ {
			plan.Forward(dst, x[b*nfft:(b+1)*nfft])
		}
	})
	check(!math.IsNaN(real(dst[0])), "fft: NaN output")
	// Per point: the bit-reversed copy (16 B read, 16 B written), then per
	// radix-2 stage one point read and written (32 B) plus half a twiddle
	// factor (8 B).
	computed("dsp.fft_bytes_per_point_computed", float64(32+(bits.Len(uint(nfft))-1)*40))

	// rng: standard normal draws.
	var sum, sumSq float64
	res.layers["rng.norm_ns_per_draw"] = timeIt("kernel.rng.norm", int(normDraws), probeReps, func() {
		sum, sumSq = 0, 0
		for i := 0; i < int(normDraws); i++ {
			v := r.NormFloat64()
			sum += v
			sumSq += v * v
		}
	})
	mean, variance := sum/normDraws, sumSq/normDraws-(sum/normDraws)*(sum/normDraws)
	check(math.Abs(mean) < 0.01 && math.Abs(variance-1) < 0.01, "normal draws: mean %g, variance %g", mean, variance)

	// core: one link in each mode, shaped like the served specs.
	semi := core.DefaultLinkConfig(ltephy.BW20)
	var thr float64
	res.layers["core.semi_us_per_link"] = timeIt("kernel.core.semi", semiLinks, probeReps, func() {
		thr = 0
		for i := 0; i < semiLinks; i++ {
			c := semi
			c.Seed = seed + uint64(i)
			c.TagToUEM = channel.FeetToMeters(3 + float64(i%12))
			thr += core.Run(c).ThroughputBps
		}
	}) / 1e3
	check(thr > 0 && !math.IsNaN(thr), "semi-analytic links: total throughput %g", thr)

	// About one link seed in ten never acquires the tag's preamble, so the
	// probe times several links and checks that each report is consistent.
	exact := core.DefaultLinkConfig(ltephy.BW5)
	exact.Mode = core.Exact
	reps := make([]core.LinkReport, exactLinks)
	res.layers["core.exact_ms_per_subframe"] = timeIt("kernel.core.exact", exactLinks*exact.Subframes, slowProbeReps, func() {
		for i := range reps {
			c := exact
			c.Seed = seed + uint64(i)
			reps[i] = core.Run(c)
		}
	}) / 1e6
	for i, rep := range reps {
		check(rep.LTEOK && rep.Synced == (rep.BitsCompared > 0),
			"exact link %d: LTE decoded %v, synced %v, %d bits compared", i, rep.LTEOK, rep.Synced, rep.BitsCompared)
	}
	return res, nil
}
