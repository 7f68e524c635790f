// Package fleet is the event-driven million-tag fleet engine: it schedules
// large tag populations in O(active) work per slot instead of O(all tags) per
// sample.
//
// Simulate runs the contention MACs (TDMA rotation, slotted ALOHA with and
// without capture-effect arbitration) over a packed event queue with no
// waveforms at all: per-slot delivery resolves through the link budget and
// stats.BERFromSNR. This is what makes a 10^6-tag city-scale run finish on
// one machine. See docs/FLEET.md for the design.
package fleet

import "fmt"

// MAC selects the medium-access discipline arbitrating the shared
// backscatter channel.
type MAC int

const (
	// TDMA is round-robin ownership: each slot belongs to exactly one tag.
	// Collision-free, but a tag waits O(fleet size) slots for its turn.
	TDMA MAC = iota
	// Aloha is p-persistent slotted ALOHA: backlogged tags transmit in a
	// slot with probability AttemptProb; any overlap is a collision and
	// every collider backs off (binary exponential).
	Aloha
	// AlohaCapture is slotted ALOHA with capture-effect arbitration: when
	// transmissions overlap, the strongest one still decodes if its SINR
	// over the other colliders clears CaptureDB. Losers back off.
	AlohaCapture
)

// String returns the MAC name as used in flags and artifact metrics.
func (m MAC) String() string {
	switch m {
	case TDMA:
		return "tdma"
	case Aloha:
		return "aloha"
	case AlohaCapture:
		return "capture"
	}
	return fmt.Sprintf("MAC(%d)", int(m))
}

// ParseMAC parses a MAC name as printed by String.
func ParseMAC(s string) (MAC, error) {
	switch s {
	case "tdma":
		return TDMA, nil
	case "aloha":
		return Aloha, nil
	case "capture":
		return AlohaCapture, nil
	}
	return 0, fmt.Errorf("fleet: unknown MAC %q (want tdma, aloha or capture)", s)
}

// Config holds the scheduling parameters of the Simulate engine. The zero
// value selects TDMA with the defaults below.
type Config struct {
	// MAC is the access discipline.
	MAC MAC
	// SlotSubframes is the contention-slot length in subframes. The default
	// 5 matches one backscatter burst: the demodulator acquires each burst
	// on its opening PSS, so a transmission opportunity is the whole 5 ms
	// burst and arbitration happens at burst boundaries.
	SlotSubframes int
	// AttemptProb is the p-persistence of the ALOHA MACs: a backlogged tag
	// whose backoff has expired transmits in a slot with this probability.
	// Defaults to 1 (transmit as soon as eligible).
	AttemptProb float64
	// CaptureDB is the SINR threshold (dB) for capture-effect arbitration
	// under AlohaCapture. Defaults to 6 dB.
	CaptureDB float64
	// BackoffSlots is the initial binary-exponential backoff window in
	// slots; it doubles per consecutive collision. Defaults to 2.
	BackoffSlots int
	// BackoffMaxSlots caps the backoff window. Defaults to 1024.
	BackoffMaxSlots int
	// MaxQueue caps each tag's pending-message queue; arrivals beyond it
	// are counted as dropped. Defaults to 8.
	MaxQueue int
	// Seed seeds the scheduler's RNG streams.
	Seed uint64
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.SlotSubframes <= 0 {
		c.SlotSubframes = 5
	}
	if c.AttemptProb <= 0 || c.AttemptProb > 1 {
		c.AttemptProb = 1
	}
	if c.CaptureDB == 0 {
		c.CaptureDB = 6
	}
	if c.BackoffSlots <= 0 {
		c.BackoffSlots = 2
	}
	if c.BackoffMaxSlots <= 0 {
		c.BackoffMaxSlots = 1024
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	return c
}
