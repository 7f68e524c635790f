// Package arq implements selective-repeat ARQ over the lossy LScatter frame
// channel: the link layer that turns the PHY's BER into reliable, in-order
// message delivery for applications. The paper stops at PHY goodput; any
// deployment (and both demo applications) needs exactly this layer on top.
//
// Frames ride the backscatter downlink...uplink asymmetrically: data frames
// flow tag -> UE over the backscatter link; acknowledgements return on the
// UE's side channel (in a real deployment, a downlink slot the tag's
// envelope detector can see). The simulation abstracts both as lossy
// unidirectional channels with per-frame delivery probability.
package arq

import (
	"fmt"

	"lscatter/internal/bits"
)

// SeqBits is the sequence-number width; the window must stay below half the
// sequence space for selective repeat to be sound.
const SeqBits = 8

const seqSpace = 1 << SeqBits

// MaxWindow is the largest permissible send window.
const MaxWindow = seqSpace / 2

// Frame is one link-layer data frame.
type Frame struct {
	// Seq is the sequence number (mod 256).
	Seq int
	// Payload is the application bits.
	Payload []byte
}

// Encode serializes a frame to bits: 8-bit sequence number, 16-bit length,
// payload, CRC-16 over everything.
func (f Frame) Encode() []byte {
	header := make([]byte, 0, SeqBits+16+len(f.Payload))
	for i := SeqBits - 1; i >= 0; i-- {
		header = append(header, byte(f.Seq>>i&1))
	}
	n := len(f.Payload)
	for i := 15; i >= 0; i-- {
		header = append(header, byte(n>>i&1))
	}
	header = append(header, f.Payload...)
	return bits.AttachCRC16(header)
}

// DecodeFrame parses bits produced by Encode. It returns false when the CRC
// fails or the structure is malformed.
func DecodeFrame(b []byte) (Frame, bool) {
	body, ok := bits.CheckCRC16(b)
	if !ok || len(body) < SeqBits+16 {
		return Frame{}, false
	}
	seq := 0
	for i := 0; i < SeqBits; i++ {
		seq = seq<<1 | int(body[i])
	}
	n := 0
	for i := SeqBits; i < SeqBits+16; i++ {
		n = n<<1 | int(body[i])
	}
	if len(body) != SeqBits+16+n {
		return Frame{}, false
	}
	return Frame{Seq: seq, Payload: body[SeqBits+16:]}, true
}

// inWindow reports whether seq lies within [base, base+size) mod seqSpace.
func inWindow(base, size, seq int) bool {
	d := (seq - base + seqSpace) % seqSpace
	return d < size
}

// Sender is the tag-side selective-repeat transmitter.
type Sender struct {
	window  int
	timeout int // slots before retransmission

	queue    [][]byte // unsent payloads
	base     int      // oldest unacked seq
	next     int      // next fresh seq
	inFlight map[int]*txState
	// stats
	Transmissions int
	Delivered     int
}

type txState struct {
	payload []byte
	age     int
	acked   bool
}

// NewSender builds a sender with the given window (frames) and
// retransmission timeout (slots).
func NewSender(window, timeout int) *Sender {
	if window < 1 || window > MaxWindow {
		panic(fmt.Sprintf("arq: window %d out of [1,%d]", window, MaxWindow))
	}
	if timeout < 1 {
		panic("arq: timeout must be at least one slot")
	}
	return &Sender{window: window, timeout: timeout, inFlight: map[int]*txState{}}
}

// Queue appends an application payload for transmission.
func (s *Sender) Queue(payload []byte) {
	s.queue = append(s.queue, append([]byte(nil), payload...))
}

// NextFrame returns the frame to transmit this slot, or nil if the sender
// has nothing to do: first any timed-out unacked frame (oldest first), then
// a fresh frame if the window allows.
func (s *Sender) NextFrame() *Frame {
	// Retransmissions first.
	bestSeq, bestAge := -1, -1
	for seq, st := range s.inFlight {
		if !st.acked && st.age >= s.timeout && st.age > bestAge {
			bestSeq, bestAge = seq, st.age
		}
	}
	if bestSeq >= 0 {
		st := s.inFlight[bestSeq]
		st.age = 0
		s.Transmissions++
		return &Frame{Seq: bestSeq, Payload: st.payload}
	}
	// Fresh frame if window open and data queued.
	if len(s.queue) > 0 && inWindow(s.base, s.window, s.next) {
		payload := s.queue[0]
		s.queue = s.queue[1:]
		seq := s.next
		s.next = (s.next + 1) % seqSpace
		s.inFlight[seq] = &txState{payload: payload}
		s.Transmissions++
		return &Frame{Seq: seq, Payload: payload}
	}
	return nil
}

// Tick advances all retransmission timers by one slot.
func (s *Sender) Tick() {
	for _, st := range s.inFlight {
		if !st.acked {
			st.age++
		}
	}
}

// Ack processes an acknowledgement for seq and slides the window.
func (s *Sender) Ack(seq int) {
	st, ok := s.inFlight[seq]
	if !ok || st.acked {
		return
	}
	st.acked = true
	s.Delivered++
	for {
		cur, ok := s.inFlight[s.base]
		if !ok || !cur.acked {
			break
		}
		delete(s.inFlight, s.base)
		s.base = (s.base + 1) % seqSpace
	}
}

// Receiver is the UE-side selective-repeat receiver delivering payloads in
// order.
type Receiver struct {
	window int
	base   int // next expected seq
	buf    map[int][]byte
	// Duplicates counts re-received frames (retransmissions that crossed
	// with lost acks).
	Duplicates int
}

// NewReceiver builds a receiver with the given window.
func NewReceiver(window int) *Receiver {
	if window < 1 || window > MaxWindow {
		panic(fmt.Sprintf("arq: window %d out of [1,%d]", window, MaxWindow))
	}
	return &Receiver{window: window, buf: map[int][]byte{}}
}

// Receive processes a frame. It returns the sequence number to acknowledge
// (always the frame's seq for in-window or recently delivered frames) and
// any payloads that became deliverable in order.
func (r *Receiver) Receive(f Frame) (ackSeq int, delivered [][]byte) {
	ackSeq = f.Seq
	if inWindow(r.base, r.window, f.Seq) {
		if _, dup := r.buf[f.Seq]; dup {
			r.Duplicates++
		}
		r.buf[f.Seq] = f.Payload
		for {
			p, ok := r.buf[r.base]
			if !ok {
				break
			}
			delivered = append(delivered, p)
			delete(r.buf, r.base)
			r.base = (r.base + 1) % seqSpace
		}
		return ackSeq, delivered
	}
	// Below the window: an old frame whose ack was lost — re-ack it.
	if inWindow((r.base-r.window+seqSpace)%seqSpace, r.window, f.Seq) {
		r.Duplicates++
		return ackSeq, nil
	}
	return -1, nil
}

// Stats summarizes a simulation run.
type Stats struct {
	// Slots consumed.
	Slots int
	// Transmissions (including retransmissions).
	Transmissions int
	// Delivered payloads, in order.
	Delivered int
	// Efficiency is delivered / transmissions.
	Efficiency float64
}

// Run simulates the protocol over lossy channels until every queued payload
// is delivered or maxSlots elapse: each slot the sender emits at most one
// frame (delivered with probability given by dataOK()), the receiver acks,
// and the ack arrives with probability ackOK().
func Run(s *Sender, r *Receiver, dataOK, ackOK func() bool, total, maxSlots int) (Stats, [][]byte) {
	var delivered [][]byte
	st := Stats{}
	for st.Slots = 0; st.Slots < maxSlots && len(delivered) < total; st.Slots++ {
		s.Tick()
		f := s.NextFrame()
		if f == nil {
			continue
		}
		if !dataOK() {
			continue
		}
		// Model the PHY: encode/decode round trip guards the structure.
		decoded, ok := DecodeFrame(f.Encode())
		if !ok {
			continue
		}
		ackSeq, out := r.Receive(decoded)
		delivered = append(delivered, out...)
		if ackSeq >= 0 && ackOK() {
			s.Ack(ackSeq)
		}
	}
	st.Transmissions = s.Transmissions
	st.Delivered = len(delivered)
	if st.Transmissions > 0 {
		st.Efficiency = float64(st.Delivered) / float64(st.Transmissions)
	}
	return st, delivered
}
