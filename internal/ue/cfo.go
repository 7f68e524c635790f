package ue

import (
	"math"
	"math/cmplx"

	"lscatter/internal/dsp"
	"lscatter/internal/ltephy"
)

// EstimateCFO estimates the carrier-frequency offset between the receiver's
// local oscillator and the eNodeB, in Hz, from one subframe of samples
// aligned to the subframe boundary. It uses the classic cyclic-prefix
// correlation: each CP is a copy of the symbol tail N samples later, so the
// phase of sum(cp * conj(tail)) advances by 2*pi*f*N/fs.
//
// The unambiguous range is ±fs/(2N) = ±7.5 kHz — half the subcarrier
// spacing, ample for the residual offset of any real LTE UE after cell
// search.
//
// Only the second half of each CP enters the correlation: the head of a CP
// carries inter-symbol interference from the previous symbol's multipath
// tail, which biases the phase estimate by tens of Hz on dispersive
// channels — enough to matter when a tracking loop corrects by the result.
func EstimateCFO(p ltephy.Params, samples []complex128) float64 {
	n := p.BW.FFTSize() * p.Oversample
	var acc complex128
	for l := 0; l < ltephy.SymbolsPerSubframe; l++ {
		start := ltephy.SymbolStart(p, l)
		cpLen := p.BW.CPLen(l%ltephy.SymbolsPerSlot) * p.Oversample
		if start+cpLen+n > len(samples) {
			break
		}
		// Correlate the ISI-free part of the CP against the tail it copies.
		for i := cpLen / 2; i < cpLen; i++ {
			acc += cmplx.Conj(samples[start+i]) * samples[start+i+n]
		}
	}
	if acc == 0 {
		return 0
	}
	angle := cmplx.Phase(acc)
	return angle * p.SampleRate() / (2 * math.Pi * float64(n))
}

// CFOTrackerConfig parameterizes the closed-loop CFO tracker. Zero values
// select the defaults.
type CFOTrackerConfig struct {
	// LoopGain is the first-order loop's innovation weight: each subframe the
	// estimate moves by LoopGain times the measured residual (default 0.25 —
	// settles in a few subframes yet averages down per-subframe estimator
	// noise).
	LoopGain float64
	// ReacquireThresholdHz flags a subframe as an outlier when the residual
	// after correction exceeds this magnitude (default 1500 Hz: a locked loop
	// tracking realistic drift keeps residuals well under the 15 kHz
	// subcarrier spacing's tenth).
	ReacquireThresholdHz float64
	// ReacquireAfter is the number of consecutive outlier subframes that
	// triggers re-acquisition (default 3). One corrupt subframe — an
	// interference burst — must not reset a healthy loop.
	ReacquireAfter int
}

func (c CFOTrackerConfig) withDefaults() CFOTrackerConfig {
	if c.LoopGain == 0 {
		c.LoopGain = 0.25
	}
	if c.ReacquireThresholdHz == 0 {
		c.ReacquireThresholdHz = 1500
	}
	if c.ReacquireAfter == 0 {
		c.ReacquireAfter = 3
	}
	return c
}

// CFOTracker is a per-subframe closed carrier-recovery loop: it corrects
// each subframe with its current estimate, measures the residual offset via
// CP correlation on the corrected samples, and nudges the estimate by a
// loop-gain fraction of the residual. Slow drift (oscillator temperature
// ramp) is tracked transparently.
//
// Degradation is graceful rather than a hard failure: when the residual
// stays above the outlier threshold for several consecutive subframes the
// loop has lost lock (a frequency jump, or corruption faster than the loop
// bandwidth), and the tracker re-acquires by snapping the full residual into
// the estimate. The caller learns about it from Process's reacquired flag —
// the cue to reset decision-feedback state (e.g. ScatterDemod.Reset) — and
// from the Reacquisitions counter that the resilience sweep reports.
type CFOTracker struct {
	p        ltephy.Params
	cfg      CFOTrackerConfig
	est      float64
	acquired bool // first-subframe acquisition snap done
	streak   int  // consecutive outlier subframes
	reacqs   int
}

// NewCFOTracker builds a tracker starting from an initial estimate of
// initialHz (e.g. a one-shot EstimateCFO on a first capture; 0 when the
// receiver assumes a perfect oscillator).
func NewCFOTracker(p ltephy.Params, initialHz float64, cfg CFOTrackerConfig) *CFOTracker {
	return &CFOTracker{p: p, cfg: cfg.withDefaults(), est: initialHz}
}

// EstimateHz returns the current offset estimate.
func (t *CFOTracker) EstimateHz() float64 { return t.est }

// Reacquisitions returns how many times the loop lost lock and re-acquired.
func (t *CFOTracker) Reacquisitions() int { return t.reacqs }

// Reset returns the tracker to its initial state with estimate initialHz,
// clearing the outlier streak, the re-acquisition count and the acquisition
// snap.
func (t *CFOTracker) Reset(initialHz float64) {
	t.est = initialHz
	t.acquired = false
	t.streak = 0
	t.reacqs = 0
}

// Process corrects one subframe in place with the current estimate (anchored
// at absolute stream position startSample for phase continuity), measures
// the residual offset, and updates the loop. It returns the corrected
// samples and whether this subframe triggered a re-acquisition.
func (t *CFOTracker) Process(samples []complex128, startSample int) ([]complex128, bool) {
	out := CorrectCFO(t.p, samples, t.est, startSample)
	residual := EstimateCFO(t.p, out)
	if !t.acquired {
		// Initial acquisition: snap the full first measurement instead of
		// slewing toward it over many subframes — the loop gain exists to
		// reject estimator noise while tracking, not to slow lock-up. The
		// buffered acquisition subframe is corrected again with the snapped
		// residual so it decodes as cleanly as the tracked ones.
		t.acquired = true
		t.est += residual
		out = CorrectCFO(t.p, out, residual, startSample)
		return out, false
	}
	if math.Abs(residual) > t.cfg.ReacquireThresholdHz {
		t.streak++
		if t.streak >= t.cfg.ReacquireAfter {
			// Lost lock: snap the whole residual (the CP estimator is
			// unambiguous to ±7.5 kHz, so one snap recenters the loop) and
			// start over.
			t.est += residual
			t.streak = 0
			t.reacqs++
			return out, true
		}
		// Outlier: hold the estimate; do not chase a corrupt measurement.
		return out, false
	}
	t.streak = 0
	t.est += t.cfg.LoopGain * residual
	return out, false
}

// CorrectCFO removes a frequency offset from samples in place (mixing by
// -cfoHz), anchored at the absolute stream position startSample so that
// consecutive subframes stay phase-continuous. It returns the samples.
func CorrectCFO(p ltephy.Params, samples []complex128, cfoHz float64, startSample int) []complex128 {
	if cfoHz == 0 {
		return samples
	}
	fs := p.SampleRate()
	phase0 := -2 * math.Pi * cfoHz * float64(startSample) / fs
	return dsp.Mix(samples, -cfoHz, fs, phase0)
}
