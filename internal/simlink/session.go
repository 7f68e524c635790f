package simlink

import (
	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/impair"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

// Tag is one backscatter device in a Session: the modulator plus everything
// that decides what it reflects each subframe.
type Tag struct {
	// Mod is the device's phase modulator (required).
	Mod *tag.Modulator
	// Path is the tag→UE propagation applied to the reflection (often
	// Chain(eNodeBToTagHop, tagToUEHop)); nil passes the reflection through
	// unchanged.
	Path PathStage
	// Feed, when set, is called once per owned subframe before modulation to
	// queue payload bits — the streaming alternative to queueing everything
	// up front. n is the session-relative subframe count.
	Feed func(n int, m *tag.Modulator)
	// Jitter, when set, injects per-burst timing wander: at each burst
	// opening the modulator's residual timing error is re-drawn as the
	// static calibration base plus Jitter.Next() (the tag re-synchronizes on
	// each burst-opening PSS, so the wander holds across a burst's
	// subframes — which is also what the UE's per-burst offset acquisition
	// can absorb).
	Jitter *impair.TimingJitter
	// Park controls what the tag reflects in subframes it does not own:
	// true contributes the parked-switch echo (Modulator.ParkedSubframe),
	// false contributes nothing at all.
	Park bool

	baseTiming int
	baseSet    bool
}

// base returns the tag's static residual timing error, captured on first use
// so burst jitter wanders around the calibration point.
func (t *Tag) base() int {
	if !t.baseSet {
		t.baseTiming = t.Mod.TimingError()
		t.baseSet = true
	}
	return t.baseTiming
}

// Frame is one subframe's trip through the chain, handed to the Sink.
type Frame struct {
	// N is the session-relative subframe count, starting at 0.
	N int
	// Subframe is the Source's output (index, grid, ambient samples,
	// transport-block payload).
	Subframe *enodeb.Subframe
	// Burst reports whether this subframe opens a backscatter burst.
	Burst bool
	// Owner is the index (into Session.Tags) of the tag scheduled to
	// modulate this subframe; -1 when the session has no tags.
	Owner int
	// Records lists what the owning tag embedded into each OFDM symbol
	// (nil when the session has no tags).
	Records []tag.SymbolRecord
	// RX is the waveform at the receiver: all paths combined, noise and
	// impairments applied, carrier tracking (if any) removed. With no
	// channel.Link configured it aliases the ambient samples directly.
	RX []complex128
	// Start is the absolute sample position of this subframe in the
	// receiver's stream (the phase anchor for CFO correction and the
	// scatter demodulator).
	Start int
	// Reacquired reports that the carrier-recovery loop lost lock on this
	// subframe and snapped to a new estimate; decision-feedback state that
	// predates the snap (burst sync, channel estimate) is stale.
	Reacquired bool
}

// Sink consumes the received stream. The returned advance flag controls the
// session's stream-position counter: true (the normal case) advances Start
// past this subframe; false holds it (a conformance quirk of the legacy core
// chain, which kept its sample counter frozen across LTE receiver errors —
// see DemodSink.HoldOnLTEError).
type Sink interface {
	Consume(f *Frame) (advance bool)
}

// SinkFunc adapts a plain function to a Sink.
type SinkFunc func(f *Frame) bool

// Consume implements Sink.
func (fn SinkFunc) Consume(f *Frame) bool { return fn(f) }

// Taps observe intermediate waveforms without perturbing the chain. Each tap
// may be nil. Tapped slices are owned by the pipeline: copy before retaining
// past the callback.
type Taps struct {
	// Ambient sees the Source's transmit waveform each subframe.
	Ambient func(f *Frame, x []complex128)
	// Reflected sees each modulating/parked tag's raw reflection (before
	// its Path is applied). tagIdx indexes Session.Tags.
	Reflected func(f *Frame, tagIdx int, x []complex128)
}

// Session wires stages into a runnable end-to-end chain and advances it
// subframe by subframe. The zero value is not usable: Source is required,
// everything else is optional (a Session with only a Source and a Sink is a
// transparent monitor of the downlink).
//
// A Session is single-stream sequential state and is not safe for concurrent
// use; run concurrent scenarios on distinct Sessions (stages included).
type Session struct {
	// Source produces the ambient excitation (required).
	Source Source
	// Direct is the eNodeB→UE direct path; nil omits the direct path from
	// the combine (a receiver in the tag's shadow).
	Direct PathStage
	// Tags are the backscatter devices sharing the excitation.
	Tags []*Tag
	// Owner schedules TDMA ownership: it maps the session-relative subframe
	// count to the index of the tag that modulates. Nil means tag 0 owns
	// every subframe.
	Owner func(n int) int
	// Link is the receiver front end: it combines the arriving paths, adds
	// thermal noise and applies the impairment pipeline. Nil short-circuits
	// the receiver — RX aliases the ambient waveform untouched (for
	// tag-side consumers like the sync circuit, and for taps-only
	// sessions).
	Link *channel.Link
	// Tracker is the optional closed carrier-recovery loop applied to the
	// combined stream before the Sink.
	Tracker *ue.CFOTracker
	// Sink consumes each received Frame; nil discards the stream (the taps
	// still fire).
	Sink Sink
	// Taps optionally observe intermediate waveforms.
	Taps Taps

	n     int
	start int
}

// Subframes returns how many subframes the session has advanced.
func (s *Session) Subframes() int { return s.n }

// StartSample returns the receiver stream position (see Frame.Start).
func (s *Session) StartSample() int { return s.start }

// Step advances the chain by one subframe and returns the consumed Frame.
//
// The order of the work is part of the determinism contract. The owning
// tag's payload feed, burst jitter and modulation schedule are drawn first.
// The Ambient tap then sees the excitation, the direct path runs, and each
// modulating or parked tag reflects in index order: its Reflected tap sees
// the raw reflection before its Path is applied. The receiver combines the
// paths in that same order, then noise, impairments, tracking and the Sink
// follow.
func (s *Session) Step() *Frame {
	sf := s.Source.NextSubframe()
	f := &Frame{
		N:        s.n,
		Subframe: sf,
		Burst:    IsBurstSubframe(sf.Index),
		Owner:    -1,
		Start:    s.start,
	}
	s.n++

	var plan tag.Plan
	if len(s.Tags) > 0 {
		f.Owner = 0
		if s.Owner != nil {
			f.Owner = s.Owner(f.N)
		}
		if f.Owner >= 0 && f.Owner < len(s.Tags) {
			t := s.Tags[f.Owner]
			if t.Feed != nil {
				t.Feed(f.N, t.Mod)
			}
			if t.Jitter != nil && f.Burst {
				t.Mod.SetTimingError(t.base() + t.Jitter.Next())
			}
			plan = t.Mod.PlanSubframe(sf.Index, f.Burst)
			f.Records = plan.Records
		}
	}

	if s.Taps.Ambient != nil {
		s.Taps.Ambient(f, sf.Samples)
	}
	var paths [][]complex128
	if s.Direct != nil {
		paths = append(paths, s.Direct.Apply(sf.Samples))
	}
	for i, t := range s.Tags {
		var refl []complex128
		switch {
		case i == f.Owner:
			refl = t.Mod.ApplyPlan(sf.Samples, plan)
		case t.Park:
			refl = t.Mod.ParkedSubframe(sf.Samples)
		default:
			continue
		}
		if s.Taps.Reflected != nil {
			s.Taps.Reflected(f, i, refl)
		}
		if t.Path != nil {
			refl = t.Path.Apply(refl)
		}
		paths = append(paths, refl)
	}

	f.RX = sf.Samples
	if s.Link != nil {
		f.RX = s.Link.Receive(paths...)
	}
	if s.Tracker != nil {
		f.RX, f.Reacquired = s.Tracker.Process(f.RX, f.Start)
	}

	advance := true
	if s.Sink != nil {
		advance = s.Sink.Consume(f)
	}
	if advance {
		s.start += len(sf.Samples)
	}
	return f
}

// Run advances the chain n subframes.
func (s *Session) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// RunUntil advances the chain until done reports true or max subframes have
// been consumed, whichever comes first, and returns the number of subframes
// advanced. done is checked before each step.
func (s *Session) RunUntil(max int, done func() bool) int {
	ran := 0
	for ; ran < max && !done(); ran++ {
		s.Step()
	}
	return ran
}
