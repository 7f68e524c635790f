package bits

import (
	"math"
	"sync"
)

// ConvCode is the LTE tail-biting-style convolutional code reduced to a
// zero-terminated rate-1/3 (optionally punctured to 1/2) code with
// constraint length 7 and the standard generator polynomials
// G0=133, G1=171, G2=165 (octal). Decoding is hard- or soft-decision Viterbi.
type ConvCode struct {
	rate  int // output bits per input bit before puncturing: 3
	gens  []uint32
	punct []bool // puncturing pattern over the rate-3 output, true=keep
	kept  int    // kept bits per pattern period

	// branches[s][in] is the trellis branch leaving state s on input bit in.
	// Built once at construction and read-only after, so a single codec is
	// safe for concurrent decodes.
	branches [numStates][2]branch
}

const constraintLen = 7

const numStates = 1 << (constraintLen - 1) // 64

// branch holds the expected +1/-1 per kept bit (LLR sign convention) of one
// trellis branch; only the first kept entries are used. The branch leaving
// state s on input in enters state (s<<1|in) mod numStates.
type branch struct {
	out [3]float64
}

// NewConvCodeR13 returns the rate-1/3 K=7 code.
func NewConvCodeR13() *ConvCode {
	c := &ConvCode{rate: 3, gens: []uint32{0o133, 0o171, 0o165}, punct: []bool{true, true, true}, kept: 3}
	c.initBranches()
	return c
}

// NewConvCodeR12 returns the K=7 code punctured to rate 1/2 (keeps G0 and G1
// of every triplet).
func NewConvCodeR12() *ConvCode {
	c := &ConvCode{rate: 3, gens: []uint32{0o133, 0o171, 0o165}, punct: []bool{true, true, false}, kept: 2}
	c.initBranches()
	return c
}

// initBranches precomputes the expected outputs for each (state, input).
func (c *ConvCode) initBranches() {
	for s := uint32(0); s < numStates; s++ {
		for in := uint32(0); in < 2; in++ {
			reg := (s<<1 | in) & 0x7f
			br := &c.branches[s][in]
			k := 0
			for g := 0; g < c.rate; g++ {
				if !c.punct[g] {
					continue
				}
				v := reg & c.gens[g]
				v ^= v >> 4
				v ^= v >> 2
				v ^= v >> 1
				br.out[k] = 1
				if v&1 == 1 {
					br.out[k] = -1
				}
				k++
			}
		}
	}
}

// Rate returns (input bits, output bits) per pattern period.
func (c *ConvCode) Rate() (in, out int) { return 1, c.kept }

// EncodedLen returns the number of coded bits produced for n input bits
// (including the K-1 zero tail).
func (c *ConvCode) EncodedLen(n int) int { return (n + constraintLen - 1) * c.kept }

// Encode convolutionally encodes b (appending a K-1 zero tail to terminate
// the trellis) and returns the punctured coded bits.
func (c *ConvCode) Encode(b []byte) []byte {
	out := make([]byte, 0, c.EncodedLen(len(b)))
	var state uint32 // shift register, newest bit in LSB position 6..0
	emit := func(bit byte) {
		state = (state<<1 | uint32(bit)) & 0x7f
		for g := 0; g < c.rate; g++ {
			if !c.punct[g] {
				continue
			}
			v := state & c.gens[g]
			// parity of v
			v ^= v >> 4
			v ^= v >> 2
			v ^= v >> 1
			out = append(out, byte(v&1))
		}
	}
	for _, bit := range b {
		emit(bit & 1)
	}
	for i := 0; i < constraintLen-1; i++ {
		emit(0)
	}
	return out
}

// Decode runs hard-decision Viterbi over coded bits produced by Encode and
// returns the recovered n information bits (n = len(coded)/kept - (K-1)).
// Invalid lengths return nil.
func (c *ConvCode) Decode(coded []byte) []byte {
	llr := make([]float64, len(coded))
	for i, b := range coded {
		if b&1 == 1 {
			llr[i] = -1 // bit 1 → negative LLR convention
		} else {
			llr[i] = 1
		}
	}
	return c.DecodeSoft(llr)
}

// viterbiScratch holds the per-decode working set: two metric rows and the
// flat survivor matrix (indexed t*numStates+state). Pooled because the
// receive chain decodes one codeword per subframe per run.
type viterbiScratch struct {
	metric   [numStates]float64
	next     [numStates]float64
	survivor []uint16
}

var viterbiPool = sync.Pool{New: func() any { return new(viterbiScratch) }}

// DecodeSoft runs soft-decision Viterbi decoding. llr[i] > 0 means coded bit
// i is more likely 0; magnitude is confidence. Returns the information bits
// or nil if the length is not a whole number of steps.
func (c *ConvCode) DecodeSoft(llr []float64) []byte {
	if len(llr)%c.kept != 0 {
		return nil
	}
	steps := len(llr) / c.kept
	n := steps - (constraintLen - 1)
	if n <= 0 {
		return nil
	}
	scr := viterbiPool.Get().(*viterbiScratch)
	defer viterbiPool.Put(scr)
	if cap(scr.survivor) < steps*numStates {
		scr.survivor = make([]uint16, steps*numStates)
	}
	// survivor[t*numStates+state] = (prevState<<1)|inputBit
	survivor := scr.survivor[:steps*numStates]
	metric, next := &scr.metric, &scr.next
	neg := math.Inf(-1)
	for i := range metric {
		metric[i] = neg
	}
	metric[0] = 0
	three := c.kept == 3
	for t := 0; t < steps; t++ {
		row := (*[numStates]uint16)(survivor[t*numStates:])
		sym := llr[t*c.kept : (t+1)*c.kept]
		s0, s1, s2 := sym[0], sym[1], 0.0
		if three {
			s2 = sym[2]
		}
		tail := t >= n // tail steps feed only zero inputs
		// Butterfly form: next state ns has the predecessors sa = ns>>1 and
		// sb = sa|32, both on input ns&1, so the survivor entry sa<<1|in is
		// ns itself and sb<<1|in is ns|64. Each candidate adds its terms in
		// branch-output order, and the strict > with sa tried first gives
		// ties to the lower predecessor. Unreached states hold -Inf, and a
		// candidate from one sums to -Inf or NaN, which never compares
		// greater, so they need no test. A state that no candidate wins
		// (only possible with non-finite LLRs) still gets a survivor
		// entry, so traceback never reads a row left by an earlier decode.
		for ns := uint32(0); ns < numStates; ns++ {
			sa, sb, in := ns>>1, ns>>1|numStates/2, ns&1
			best, surv := neg, uint16(ns)
			if in == 0 || !tail {
				oa, ob := &c.branches[sa][in].out, &c.branches[sb][in].out
				ma := metric[sa] + oa[0]*s0
				ma += oa[1] * s1
				mb := metric[sb] + ob[0]*s0
				mb += ob[1] * s1
				if three {
					ma += oa[2] * s2
					mb += ob[2] * s2
				}
				if ma > best {
					best = ma
				}
				if mb > best {
					best, surv = mb, uint16(ns|numStates)
				}
			}
			next[ns], row[ns] = best, surv
		}
		metric, next = next, metric
	}
	// Trellis is zero-terminated: trace back from state 0.
	out := make([]byte, n)
	state := uint32(0)
	for t := steps - 1; t >= 0; t-- {
		sv := survivor[t*numStates+int(state)]
		if t < n {
			out[t] = byte(sv & 1)
		}
		state = uint32(sv >> 1)
	}
	return out
}
