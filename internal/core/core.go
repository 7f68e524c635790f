// Package core is the LScatter system facade: it wires the eNodeB, tag,
// channel and UE into a single end-to-end link and reports throughput and
// BER for a scenario. Two modes are provided:
//
//   - Exact: bit-true waveform simulation of the full chain (used by the
//     integration tests and the examples at the narrower bandwidths).
//   - SemiAnalytic: the same link budget evaluated in closed form with
//     Monte-Carlo fading, calibrated against the exact chain. The
//     evaluation harness uses it for the wide parameter sweeps of the
//     paper's distance/bandwidth figures, where bit-true simulation of a
//     122.88 Msps waveform per point would be prohibitive.
//
// Throughput follows the paper's definition: correctly demodulated
// backscatter bits per second.
package core

import (
	"math"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

// Auto is the sentinel requesting the documented default for the LinkConfig
// fields where zero is itself a physically meaningful value (TxPowerDBm,
// TagLossDB). DefaultLinkConfig never needs it — it fills every field — but
// a hand-built LinkConfig can set `TxPowerDBm: core.Auto` to mean "the 10 dBm
// USRP default" while `TxPowerDBm: 0` now honestly means 0 dBm.
var Auto = math.NaN()

// Mode selects the evaluation method.
type Mode int

const (
	// SemiAnalytic evaluates the link budget in closed form.
	SemiAnalytic Mode = iota
	// Exact runs the bit-true waveform chain.
	Exact
)

// LinkConfig describes one LScatter deployment scenario.
//
// Defaulting rules: fields where a zero value is physically meaningless
// (CarrierHz, PathLossExponent, NoiseFigureDB, TagSensitivityDBm, Subframes)
// are filled with their documented defaults when left zero. TxPowerDBm and
// TagLossDB are different — 0 dBm transmit power and a 0 dB (lossless) tag
// are legitimate scenarios — so an explicit 0 is honored as 0 and the
// default is requested with the Auto sentinel (NaN) instead. Start from
// DefaultLinkConfig to get every default at once.
type LinkConfig struct {
	// BW is the LTE channel bandwidth.
	BW ltephy.Bandwidth
	// TxPowerDBm is the eNodeB transmit power (10 dBm USRP, 40 dBm with
	// the RF5110 amplifier). Zero means 0 dBm; set Auto for the 10 dBm
	// default.
	TxPowerDBm float64
	// CarrierHz is the downlink carrier (680 MHz white space in the paper).
	CarrierHz float64
	// Geometry in meters.
	ENodeBToTagM, TagToUEM, ENodeBToUEM float64
	// PathLossExponent: ~2.0 outdoor LoS, 2.2-2.5 open indoor, up to 3+ NLoS.
	PathLossExponent float64
	// LoS selects Ricean (true) vs Rayleigh (false) fading statistics.
	LoS bool
	// Indoor selects the rich multipath profile for the exact chain.
	Indoor bool
	// TagLossDB is the tag reflection/conversion loss. Zero means a
	// lossless reflection; set Auto for the measured 4 dB default.
	TagLossDB float64
	// NoiseFigureDB is the UE receiver noise figure (default 7).
	NoiseFigureDB float64
	// Antenna gains in dBi.
	ENodeBAntennaDB, TagAntennaDB, UEAntennaDB float64
	// TagSensitivityDBm is the minimum incident power for the tag's
	// envelope-detector synchronization to function (default -45).
	TagSensitivityDBm float64
	// Mode selects exact or semi-analytic evaluation.
	Mode Mode
	// Subframes is the simulated length in ms for the exact mode
	// (default 5).
	Subframes int
	// Seed drives every random element.
	Seed uint64
	// Impair optionally injects front-end and channel faults into the exact
	// chain (see package impair). nil — or a config with every stage
	// disabled — leaves the chain byte-identical to the clean path: the
	// impairment machinery draws from its own derived RNG streams and is
	// simply absent when off. Impair.SampleRate is filled in from the
	// bandwidth automatically; Impair.Seed defaults to Seed when zero.
	Impair *impair.Config
}

// DefaultLinkConfig returns the smart-home baseline scenario: 3 ft spacings,
// 10 dBm, 680 MHz, indoor.
func DefaultLinkConfig(bw ltephy.Bandwidth) LinkConfig {
	return LinkConfig{
		BW:                bw,
		TxPowerDBm:        10,
		CarrierHz:         680e6,
		ENodeBToTagM:      channel.FeetToMeters(3),
		TagToUEM:          channel.FeetToMeters(3),
		ENodeBToUEM:       channel.FeetToMeters(5),
		PathLossExponent:  2.2,
		LoS:               true,
		Indoor:            true,
		TagLossDB:         4,
		NoiseFigureDB:     7,
		ENodeBAntennaDB:   6,
		TagAntennaDB:      2,
		UEAntennaDB:       2,
		TagSensitivityDBm: -45,
		Mode:              SemiAnalytic,
		Subframes:         5,
		Seed:              1,
	}
}

// LinkReport summarizes one link evaluation.
type LinkReport struct {
	// Synced is true when the UE acquired the tag's preamble.
	Synced bool
	// LTEOK is true when the direct-path LTE decode (needed to regenerate
	// the excitation reference) succeeds.
	LTEOK bool
	// TagHearsENodeB is true when the incident power at the tag exceeds the
	// envelope detector's sensitivity.
	TagHearsENodeB bool
	// BER is the backscatter bit error rate.
	BER float64
	// RawRateBps is the modulated backscatter bit rate.
	RawRateBps float64
	// ThroughputBps is the goodput: correctly demodulated bits per second.
	ThroughputBps float64
	// ScatterSNRdB is the per-unit post-matched-filter SNR.
	ScatterSNRdB float64
	// DirectSNRdB is the direct-path LTE SNR at the UE.
	DirectSNRdB float64
	// BitsCompared is the number of bits measured (exact mode only).
	BitsCompared int
	// Reacquisitions counts how often the UE's carrier-recovery loop lost
	// lock and fell back to re-acquisition (exact mode with impairments;
	// always 0 on the clean path, where the loop is not engaged).
	Reacquisitions int
}

// RawBackscatterRate returns the modulated bit rate for a bandwidth: 1200
// bits per symbol at 20 MHz (12 per RB), 116 modulated symbols per 10 ms
// frame minus one preamble symbol per 5 ms burst.
func RawBackscatterRate(bw ltephy.Bandwidth) float64 {
	perSym := float64(bw.Subcarriers())
	// 12 data symbols per subframe, minus 2 in each sync subframe (2 per
	// frame), minus 2 preamble symbols per frame.
	symbols := 10.0*12 - 4 - 2
	return perSym * symbols / (ltephy.SubframesPerFrame * ltephy.SubframeDuration)
}

// Run evaluates a link configuration.
func Run(cfg LinkConfig) LinkReport {
	applyDefaults(&cfg)
	if cfg.Mode == Exact {
		return runExact(cfg)
	}
	return runSemiAnalytic(cfg)
}

// Samples evaluates n independent realizations of a link configuration,
// returning per-realization throughputs (the paper's box plots are
// distributions over exactly such realizations). The configured Mode is
// honored: SemiAnalytic draws Monte-Carlo fading realizations in closed
// form; Exact runs the bit-true pipeline once per realization, each with an
// independently derived seed.
func Samples(cfg LinkConfig, n int) []float64 {
	applyDefaults(&cfg)
	out := make([]float64, n)
	for i := range out {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*7919
		var r LinkReport
		if cfg.Mode == Exact {
			r = runExact(c)
		} else {
			r = runSemiAnalytic(c)
		}
		out[i] = r.ThroughputBps
	}
	return out
}

// applyDefaults fills unset fields (see the LinkConfig doc for which zero
// values count as "unset" and which are honored literally).
func applyDefaults(cfg *LinkConfig) {
	if cfg.CarrierHz == 0 {
		cfg.CarrierHz = 680e6
	}
	if cfg.PathLossExponent == 0 {
		cfg.PathLossExponent = 2.2
	}
	if math.IsNaN(cfg.TagLossDB) {
		cfg.TagLossDB = 4
	}
	if cfg.NoiseFigureDB == 0 {
		cfg.NoiseFigureDB = 7
	}
	if cfg.TagSensitivityDBm == 0 {
		cfg.TagSensitivityDBm = -45
	}
	if cfg.Subframes == 0 {
		cfg.Subframes = 5
	}
	if math.IsNaN(cfg.TxPowerDBm) {
		cfg.TxPowerDBm = 10
	}
}

// DSBHarmonicLossDB is the power fraction of the square wave's first
// harmonic landing in the used (upper) sideband: (2/pi)^2 per sideband.
const DSBHarmonicLossDB = 3.92

// CleanBinLossDB accounts for the demodulator's clean-bin band limitation
// (roughly 15% of the hybrid energy is masked with the direct path).
const CleanBinLossDB = 0.7

// runSemiAnalytic evaluates the closed-form link budget with Monte-Carlo
// fading.
func runSemiAnalytic(cfg LinkConfig) LinkReport {
	r := rng.New(cfg.Seed)
	pl := channel.PathLoss{FreqHz: cfg.CarrierHz, Exponent: cfg.PathLossExponent}

	// Tag incident power.
	incidentDBm := cfg.TxPowerDBm - pl.LossDB(cfg.ENodeBToTagM) + cfg.ENodeBAntennaDB + cfg.TagAntennaDB
	// Backscatter received power at the UE (before fading).
	scatDBm := incidentDBm - cfg.TagLossDB - pl.LossDB(cfg.TagToUEM) +
		cfg.TagAntennaDB + cfg.UEAntennaDB - DSBHarmonicLossDB - CleanBinLossDB
	// Direct path for the LTE decode.
	directDBm := cfg.TxPowerDBm - pl.LossDB(cfg.ENodeBToUEM) + cfg.ENodeBAntennaDB + cfg.UEAntennaDB

	occupied := float64(cfg.BW.Subcarriers()) * ltephy.SubcarrierSpacing
	noiseW := channel.NoiseFloorW(occupied, cfg.NoiseFigureDB)
	n0 := noiseW / occupied

	p := ltephy.DefaultParams(cfg.BW)
	unitEnergy := channel.DBmToWatts(scatDBm) * p.UnitDuration()
	gammaMean := unitEnergy / n0

	directSNR := channel.DBmToWatts(directDBm) / noiseW

	rep := LinkReport{
		RawRateBps:     RawBackscatterRate(cfg.BW),
		ScatterSNRdB:   10 * math.Log10(math.Max(gammaMean, 1e-30)),
		DirectSNRdB:    10 * math.Log10(math.Max(directSNR, 1e-30)),
		TagHearsENodeB: incidentDBm >= cfg.TagSensitivityDBm,
	}
	// The reference regeneration needs the QPSK rate-1/2 transport block to
	// decode: ~5 dB SNR with margin.
	rep.LTEOK = rep.DirectSNRdB > 5
	if !rep.LTEOK || !rep.TagHearsENodeB {
		rep.BER = 0.5
		return rep
	}
	// Monte-Carlo over fading: per-unit excitation energy is exponential
	// (the OFDM time samples are complex-Gaussian); the link fade is Ricean
	// (LoS) or Rayleigh (NLoS) on top.
	const trials = 4000
	var berSum float64
	var syncOK int
	for i := 0; i < trials; i++ {
		fade := channel.FadePower(r, cfg.LoS)
		g := gammaMean * fade
		// Per-unit exponential energy folded analytically (Rayleigh BPSK).
		berSum += 0.5 * (1 - math.Sqrt(g/(1+g)))
		// Preamble acquisition integrates the full symbol: effectively
		// bandwidth-many units of coherent gain. It fails only deep in the
		// noise.
		if g*float64(cfg.BW.Subcarriers()) > 100 {
			syncOK++
		}
	}
	rep.BER = berSum / trials
	rep.Synced = syncOK > trials/2
	if !rep.Synced {
		rep.BER = 0.5
		return rep
	}
	syncFrac := float64(syncOK) / trials
	rep.ThroughputBps = rep.RawRateBps * (1 - rep.BER) * syncFrac
	return rep
}

// runExact evaluates the bit-true chain: it translates the LinkConfig's
// geometry and link budget into simlink pipeline stages and runs a Session
// for the configured number of subframes. The stage wiring — RNG stream
// labels, path order, the stream-position hold on LTE receiver errors — is
// pinned by the golden end-to-end vectors (testdata/golden_e2e.json).
func runExact(cfg LinkConfig) LinkReport {
	r := rng.New(cfg.Seed)
	p := ltephy.DefaultParams(cfg.BW)
	ecfg := enodeb.Config{Params: p, Scheme: modem.QPSK, TxPowerDBm: cfg.TxPowerDBm, Seed: cfg.Seed}
	enb := enodeb.New(ecfg)

	pl := channel.PathLoss{FreqHz: cfg.CarrierHz, Exponent: cfg.PathLossExponent}
	profile := channel.PedestrianProfile
	if cfg.Indoor {
		profile = channel.RichProfile
	}
	if cfg.LoS && !cfg.Indoor {
		profile = channel.FlatProfile
	}
	sr := p.SampleRate()
	directHop := channel.NewHop(r.Fork(1), pl, cfg.ENodeBToUEM,
		cfg.ENodeBAntennaDB+cfg.UEAntennaDB, 0, channel.NewMultipath(r.Fork(2), profile, sr))
	hop1 := channel.NewHop(r.Fork(3), pl, cfg.ENodeBToTagM, cfg.ENodeBAntennaDB+cfg.TagAntennaDB, 0, nil)
	hop2 := channel.NewHop(r.Fork(4), pl, cfg.TagToUEM,
		cfg.TagAntennaDB+cfg.UEAntennaDB, 0, channel.NewMultipath(r.Fork(5), profile, sr))

	// Tag with residual timing error and random sub-unit offset.
	mod := tag.NewModulator(tag.ModConfig{
		Params:           p,
		ReflectionLossDB: cfg.TagLossDB,
		TimingErrorUnits: int(r.NormFloat64() * 3),
		SampleOffset:     r.Intn(p.Oversample),
	})
	payload := r.Fork(6)
	lteRx := ue.NewLTEReceiver(p, modem.QPSK)
	sc := ue.NewScatterDemod(ue.DefaultScatterConfig(p))

	occupied := float64(cfg.BW.Subcarriers()) * ltephy.SubcarrierSpacing
	noisePerSample := channel.NoiseFloorW(occupied, cfg.NoiseFigureDB) * sr / occupied

	incidentDBm := cfg.TxPowerDBm - pl.LossDB(cfg.ENodeBToTagM) + cfg.ENodeBAntennaDB + cfg.TagAntennaDB
	rep := LinkReport{
		RawRateBps:     RawBackscatterRate(cfg.BW),
		TagHearsENodeB: incidentDBm >= cfg.TagSensitivityDBm,
	}
	if !rep.TagHearsENodeB {
		rep.BER = 0.5
		return rep
	}

	noiseRng := r.Fork(7)

	// Fault injection: tag-side timing jitter rides on the modulator (the
	// wander is a property of the tag's clock, in basic-timing units), the
	// remaining stages wrap the receiver input via the Link, and an engaged
	// carrier-recovery loop absorbs CFO/drift with re-acquisition fallback.
	// All of it is absent — not merely inert — when Impair is nil/off, so
	// the clean path stays byte-identical.
	var (
		tagJitter *impair.TimingJitter
		rxPipe    *impair.Pipeline
		tracker   *ue.CFOTracker
	)
	if cfg.Impair != nil && cfg.Impair.Active() {
		ic := *cfg.Impair
		if ic.Seed == 0 {
			ic.Seed = cfg.Seed
		}
		if ic.SampleRate == 0 {
			ic.SampleRate = sr
		}
		tagJitter = impair.NewTimingJitter(ic)
		rxPipe = impair.NewFor(ic, impair.SFO, impair.CFO, impair.Interference, impair.ADC)
		tracker = ue.NewCFOTracker(p, 0, ue.CFOTrackerConfig{})
	}

	sink := &simlink.DemodSink{LTE: lteRx, Scatter: sc, HoldOnLTEError: true}
	sess := &simlink.Session{
		Source: enb,
		Direct: directHop,
		Tags: []*simlink.Tag{{
			Mod:  mod,
			Path: simlink.Chain(hop1, hop2),
			Feed: func(int, *tag.Modulator) {
				mod.QueueBits(payload.Bits(make([]byte, 12*mod.PerSymbolBits())))
			},
			Jitter: tagJitter,
		}},
		Link:    channel.NewLink(noiseRng, noisePerSample, channel.WithImpairment(rxPipe)),
		Tracker: tracker,
		Sink:    sink,
	}
	sess.Run(cfg.Subframes)

	acct := sink.Totals()
	rep.Synced = sink.Synced
	rep.LTEOK = sink.LTEOK > cfg.Subframes/2
	rep.BitsCompared = acct.Total
	if tracker != nil {
		rep.Reacquisitions = tracker.Reacquisitions()
	}
	rep.BER = acct.BER()
	if acct.Total == 0 {
		return rep
	}
	rep.ThroughputBps = rep.RawRateBps * (1 - rep.BER)
	if !rep.Synced {
		rep.ThroughputBps = 0
	}
	return rep
}
