package impair

import (
	"fmt"
	"math"

	"lscatter/internal/dsp"
	"lscatter/internal/rng"
)

// jitterStage re-times the stream by a fresh integer shift per block, drawn
// from N(0, RMS) and clamped to ±4 RMS. Positive shifts delay the stream
// (samples arrive late), reading back into a history buffer; negative shifts
// advance it, holding the final sample at the block tail.
type jitterStage struct {
	cfg  JitterConfig
	seed uint64
	r    *rng.Source
	max  int          // clamp, in samples
	hist []complex128 // last max samples of the previous block
}

func newJitterStage(cfg JitterConfig, seed uint64) *jitterStage {
	if cfg.RMSSamples < 0 {
		panic(fmt.Sprintf("impair: jitter RMS %v must be >= 0", cfg.RMSSamples))
	}
	s := &jitterStage{cfg: cfg, seed: seed}
	s.Reset()
	return s
}

func (s *jitterStage) Kind() StageKind { return Jitter }

func (s *jitterStage) Reset() {
	s.r = newStageRNG(s.seed)
	s.max = int(math.Ceil(4 * s.cfg.RMSSamples))
	s.hist = make([]complex128, s.max)
}

func (s *jitterStage) Process(x []complex128) []complex128 {
	shift := int(math.Round(s.r.NormFloat64() * s.cfg.RMSSamples))
	if shift > s.max {
		shift = s.max
	}
	if shift < -s.max {
		shift = -s.max
	}
	at := func(i int) complex128 {
		switch {
		case i < 0:
			if h := len(s.hist) + i; h >= 0 {
				return s.hist[h]
			}
			return 0
		case i >= len(x):
			return x[len(x)-1]
		}
		return x[i]
	}
	out := make([]complex128, len(x))
	for i := range out {
		out[i] = at(i - shift)
	}
	if s.max > 0 && len(x) >= s.max {
		copy(s.hist, x[len(x)-s.max:])
	}
	return out
}

// sfoStage resamples the stream at (1 + ppm*1e-6) of the nominal rate with
// linear interpolation. Only the fractional part of the accumulated drift is
// carried across blocks: a tracking receiver re-times integer sample slips,
// so the damage a fixed-length block chain sees is the residual intra-block
// drift and the wandering fractional phase — which is exactly what this stage
// models. With PPM = 0 the stage is an exact identity (copy).
type sfoStage struct {
	cfg  SFOConfig
	eps  float64 // rate error: ppm * 1e-6
	frac float64 // fractional source offset carried across blocks
	prev complex128
	have bool
}

func newSFOStage(cfg SFOConfig) *sfoStage {
	if math.IsNaN(cfg.PPM) || math.IsInf(cfg.PPM, 0) {
		panic(fmt.Sprintf("impair: SFO ppm %v must be finite", cfg.PPM))
	}
	s := &sfoStage{cfg: cfg}
	s.Reset()
	return s
}

func (s *sfoStage) Kind() StageKind { return SFO }

func (s *sfoStage) Reset() {
	s.eps = s.cfg.PPM * 1e-6
	s.frac = 0
	s.prev = 0
	s.have = false
}

func (s *sfoStage) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	at := func(i int) complex128 {
		switch {
		case i < 0:
			if s.have {
				return s.prev
			}
			return 0
		case i >= len(x):
			return x[len(x)-1]
		}
		return x[i]
	}
	pos := s.frac
	for i := range out {
		idx := int(math.Floor(pos))
		f := pos - float64(idx)
		if f == 0 {
			out[i] = at(idx)
		} else {
			a, b := at(idx), at(idx+1)
			out[i] = a + complex(f, 0)*(b-a)
		}
		pos += 1 + s.eps
	}
	if len(x) > 0 {
		s.prev = x[len(x)-1]
		s.have = true
	}
	// Carry the fractional drift; the integer slip is absorbed by receiver
	// timing tracking (see the type comment).
	drift := pos - float64(len(x))
	s.frac = drift - math.Floor(drift)
	if s.eps == 0 {
		s.frac = 0
	}
	return out
}

// cfoStage rotates the stream by a time-varying carrier offset with a Wiener
// phase-noise component. Pure phase rotation: |out[i]| == |x[i]| up to
// rounding, and with all parameters zero the multiply is by exactly 1+0i.
type cfoStage struct {
	cfg   CFOConfig
	fs    float64
	seed  uint64
	r     *rng.Source
	phase float64 // accumulated phase, radians
	t     float64 // stream time, seconds
}

func newCFOStage(cfg CFOConfig, sampleRate float64, seed uint64) *cfoStage {
	if cfg.OffsetHz != 0 || cfg.DriftHzPerSec != 0 {
		if sampleRate <= 0 {
			panic("impair: CFO stage needs a positive Config.SampleRate")
		}
	}
	s := &cfoStage{cfg: cfg, fs: sampleRate, seed: seed}
	s.Reset()
	return s
}

func (s *cfoStage) Kind() StageKind { return CFO }

func (s *cfoStage) Reset() {
	s.r = newStageRNG(s.seed)
	s.phase = 0
	s.t = 0
}

func (s *cfoStage) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	dt := 0.0
	if s.fs > 0 {
		dt = 1 / s.fs
	}
	for i, v := range x {
		f := s.cfg.OffsetHz + s.cfg.DriftHzPerSec*s.t
		s.phase += 2 * math.Pi * f * dt
		if s.cfg.PhaseNoiseRMSRad > 0 {
			s.phase += s.cfg.PhaseNoiseRMSRad * s.r.NormFloat64()
		}
		// Keep the accumulator bounded so million-sample streams do not
		// lose phase precision.
		if s.phase > math.Pi || s.phase < -math.Pi {
			s.phase = math.Mod(s.phase, 2*math.Pi)
		}
		out[i] = v * complex(math.Cos(s.phase), math.Sin(s.phase))
		s.t += dt
	}
	return out
}

// interferenceStage adds impulsive and bursty co-channel interference.
// Powers are relative to each block's measured signal power, so the stage
// expresses a signal-to-interference ratio independent of link geometry.
// The RNG consumption per block depends only on the block length and the
// stage's own state, never on the sample values, so the stream stays aligned
// across any input.
type interferenceStage struct {
	cfg       InterferenceConfig
	fs        float64
	seed      uint64
	r         *rng.Source
	burstLeft int // samples remaining in the current burst
}

func newInterferenceStage(cfg InterferenceConfig, sampleRate float64, seed uint64) *interferenceStage {
	if cfg.ImpulsesPerSec < 0 || cfg.BurstsPerSec < 0 || cfg.BurstDurationSec < 0 {
		panic("impair: interference rates must be >= 0")
	}
	if (cfg.ImpulsesPerSec > 0 || cfg.BurstsPerSec > 0) && sampleRate <= 0 {
		panic("impair: interference stage needs a positive Config.SampleRate")
	}
	s := &interferenceStage{cfg: cfg, fs: sampleRate, seed: seed}
	s.Reset()
	return s
}

func (s *interferenceStage) Kind() StageKind { return Interference }

func (s *interferenceStage) Reset() {
	s.r = newStageRNG(s.seed)
	s.burstLeft = 0
}

func (s *interferenceStage) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	// Reference power from this block; a silent block collapses the
	// interference amplitudes to zero while the RNG advances on the same
	// schedule, so the stream stays reproducible mid-run.
	sigP := dsp.Power(x)
	pImp := 0.0
	if s.cfg.ImpulsesPerSec > 0 {
		pImp = s.cfg.ImpulsesPerSec / s.fs
	}
	pBurst := 0.0
	if s.cfg.BurstsPerSec > 0 {
		pBurst = s.cfg.BurstsPerSec / s.fs
	}
	impP := sigP * dsp.FromDB(-s.cfg.ImpulseSIRdB)
	burstSigma := math.Sqrt(sigP * dsp.FromDB(-s.cfg.BurstSIRdB) / 2)
	meanBurst := s.cfg.BurstDurationSec * s.fs
	for i := range out {
		if pImp > 0 && s.r.Float64() < pImp {
			// Single-sample impulse: exponential magnitude around the
			// configured peak power, uniform phase.
			mag := math.Sqrt(impP) * s.r.ExpFloat64()
			ph := 2 * math.Pi * s.r.Float64()
			out[i] += complex(mag*math.Cos(ph), mag*math.Sin(ph))
		}
		if s.burstLeft > 0 {
			out[i] += s.r.Complex(burstSigma)
			s.burstLeft--
		} else if pBurst > 0 && s.r.Float64() < pBurst {
			// New burst with an exponential duration.
			n := int(s.r.ExpFloat64() * meanBurst)
			if n < 1 {
				n = 1
			}
			s.burstLeft = n
			out[i] += s.r.Complex(burstSigma)
			s.burstLeft--
		}
	}
	return out
}

// adcStage clips each I/Q dimension at a full scale placed ClipBackoffDB
// above the block RMS and quantizes to Bits with a mid-tread uniform
// quantizer. It draws no randomness.
type adcStage struct {
	cfg ADCConfig
}

func newADCStage(cfg ADCConfig) *adcStage {
	if cfg.Bits == 0 {
		cfg.Bits = 12
	}
	if cfg.ClipBackoffDB == 0 {
		cfg.ClipBackoffDB = 12
	}
	if cfg.Bits < 1 || cfg.Bits > 32 {
		panic(fmt.Sprintf("impair: ADC bits %d out of [1,32]", cfg.Bits))
	}
	return &adcStage{cfg: cfg}
}

func (s *adcStage) Kind() StageKind { return ADC }

func (s *adcStage) Reset() {}

func (s *adcStage) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	p := dsp.Power(x)
	if p == 0 {
		copy(out, x)
		return out
	}
	full := math.Sqrt(p) * math.Pow(10, s.cfg.ClipBackoffDB/20)
	levels := float64(int64(1)<<(s.cfg.Bits-1)) - 1
	q := func(v float64) float64 {
		if v > full {
			v = full
		} else if v < -full {
			v = -full
		}
		return math.Round(v/full*levels) / levels * full
	}
	for i, v := range x {
		out[i] = complex(q(real(v)), q(imag(v)))
	}
	return out
}
