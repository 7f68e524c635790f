package simlink

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/tag"
)

// runFingerprint captures everything observable about a session run: a hash
// chain over every frame's RX samples, the tap waveforms, owners, records
// and the final stream position.
type runFingerprint struct {
	rx       [32]byte
	taps     [32]byte
	owners   []int
	recBits  int
	startEnd int
}

func hashInto(h []byte, x []complex128) [32]byte {
	buf := make([]byte, 16*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(imag(v)))
	}
	return sha256.Sum256(append(h, buf...))
}

// awkwardChainSession builds a deliberately awkward chain: two TDMA tags
// (one parked), per-burst jitter, multipath chained with a gain and a
// fading track, an opaque PathFunc on the direct path, an ADC impairment,
// and both taps — every ordering concern of Step at once.
func awkwardChainSession(fp *runFingerprint) *Session {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	cfg.Seed = 5
	p := cfg.Params
	r := rng.New(77)
	mods := []*tag.Modulator{
		tag.NewModulator(tag.ModConfig{Params: p, ID: 1, TimingErrorUnits: 1}),
		tag.NewModulator(tag.ModConfig{Params: p, ID: 2}),
	}
	for _, m := range mods {
		m.QueueBits(r.Bits(make([]byte, 30*m.PerSymbolBits())))
	}
	mp := channel.NewMultipath(r.Fork(2), channel.PedestrianProfile, p.SampleRate())
	fading := channel.NewFadingTrack(r.Fork(3), 0.9)
	jitter := impair.NewTimingJitter(impair.Config{
		Seed:   21,
		Jitter: impair.JitterConfig{Enabled: true, RMSSamples: 1.5},
	})
	pipe := impair.New(impair.Config{
		Seed: 22,
		ADC:  impair.ADCConfig{Enabled: true, Bits: 12},
	})
	scale := PathFunc(func(x []complex128) []complex128 {
		out := make([]complex128, len(x))
		for i, v := range x {
			out[i] = v * complex(0.9, 0)
		}
		return out
	})
	noiseW := 0.01 * math.Pow(10, -9)
	return &Session{
		Source: enodeb.New(cfg),
		Direct: Chain(GainDB(-40), scale),
		Tags: []*Tag{
			{Mod: mods[0], Path: Chain(mp, GainDB(-70), fading), Jitter: jitter, Park: true},
			{Mod: mods[1], Path: GainDB(-72)},
		},
		Owner: func(n int) int { return (n / 2) % 2 },
		Link:  channel.NewLink(r.Fork(4), noiseW, channel.WithImpairment(pipe)),
		Taps: Taps{
			Ambient: func(_ *Frame, x []complex128) {
				fp.taps = hashInto(fp.taps[:], x[:16])
			},
			Reflected: func(_ *Frame, tagIdx int, x []complex128) {
				fp.taps = hashInto(fp.taps[:], x[:16])
			},
		},
		Sink: SinkFunc(func(f *Frame) bool {
			fp.rx = hashInto(fp.rx[:], f.RX)
			fp.owners = append(fp.owners, f.Owner)
			for _, rec := range f.Records {
				fp.recBits += len(rec.Bits)
			}
			return true
		}),
	}
}

// TestStepAwkwardChainPinned pins Step's observable behaviour on the awkward
// chain to values recorded on linux/amd64 (go1.24.0): the RX stream, the tap
// waveforms and their order, the TDMA owners, the embedded record bits and
// the final stream position. Moving a Reflected tap after its tag's path
// moves the tap hash; TestStepOrder pins the stage call order itself.
func TestStepAwkwardChainPinned(t *testing.T) {
	var fp runFingerprint
	s := awkwardChainSession(&fp)
	s.Run(12)
	fp.startEnd = s.StartSample()

	if got, want := hex.EncodeToString(fp.rx[:]), "8975b7fbc95b4a8e57c2b449a9176ae779f8ad3adba53309abcf51517bfc4c6a"; got != want {
		t.Errorf("RX hash chain = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(fp.taps[:]), "113c920526df2b0b427e6e64bdccc2a13613474e7774e23ffb60dbc3e8793418"; got != want {
		t.Errorf("tap hash chain = %s, want %s", got, want)
	}
	wantOwners := []int{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	if len(fp.owners) != len(wantOwners) {
		t.Fatalf("owners = %v, want %v", fp.owners, wantOwners)
	}
	for i := range wantOwners {
		if fp.owners[i] != wantOwners[i] {
			t.Fatalf("owners = %v, want %v", fp.owners, wantOwners)
		}
	}
	if fp.recBits != 4536 {
		t.Errorf("record bits = %d, want 4536", fp.recBits)
	}
	if fp.startEnd != 92160 {
		t.Errorf("final StartSample = %d, want 92160", fp.startEnd)
	}
}

// TestStepOrder pins the order in which Step calls into its stages, which is
// the order in which stages sharing an RNG stream would draw from it: the
// owner's feed first, then the Ambient tap, the direct path, and each
// reflecting tag in index order with its Reflected tap before its Path.
func TestStepOrder(t *testing.T) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	p := cfg.Params
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	path := func(name string) PathStage {
		return PathFunc(func(x []complex128) []complex128 {
			logf("path %s", name)
			return x
		})
	}
	tags := make([]*Tag, 3)
	for i := range tags {
		tags[i] = &Tag{
			Mod:  tag.NewModulator(tag.ModConfig{Params: p, ID: i + 1}),
			Path: path(fmt.Sprint(i)),
			Feed: func(n int, _ *tag.Modulator) { logf("feed %d", i) },
			Park: i != 2, // tag 2 is silent unless it owns the subframe
		}
	}
	sess := &Session{
		Source: enodeb.New(cfg),
		Direct: path("direct"),
		Tags:   tags,
		Owner:  func(n int) int { return 1 + n%2 },
		Taps: Taps{
			Ambient:   func(*Frame, []complex128) { logf("ambient") },
			Reflected: func(_ *Frame, i int, _ []complex128) { logf("reflected %d", i) },
		},
		Sink: SinkFunc(func(f *Frame) bool { logf("sink owner=%d", f.Owner); return true }),
	}
	sess.Run(2)
	want := []string{
		"feed 1", "ambient", "path direct",
		"reflected 0", "path 0", "reflected 1", "path 1", "sink owner=1",
		"feed 2", "ambient", "path direct",
		"reflected 0", "path 0", "reflected 1", "path 1", "reflected 2", "path 2", "sink owner=2",
	}
	if got := strings.Join(log, ", "); got != strings.Join(want, ", ") {
		t.Fatalf("stage order:\n got %s\nwant %s", got, strings.Join(want, ", "))
	}
}
