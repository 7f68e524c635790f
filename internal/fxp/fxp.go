// Package fxp is the Q1.15 substrate of the simlink Streamer: complex
// samples in structure-of-arrays buffers and the packed-word (SWAR) kernels
// that let the transport loop process four samples per integer operation on
// a plain 64-bit core.
//
// Representation. A Buf holds one waveform segment as two int16 slices —
// all I mantissas, then all Q mantissas — plus a single block scale:
//
//	sample[k] = Scale/32768 * (I[k] + j·Q[k])
//
// Mantissas are Q1.15 two's complement. Conversions from complex128 pick a
// power-of-two Scale that puts the block's largest component magnitude in
// the upper half of the mantissa range, then round each component to the
// nearest representable value, so the per-component quantization error is
// bounded by Scale/65536 (half a least-significant step).
//
// The Streamer packs its precomputed composites with PackBiased, draws its
// noise ring from NewNoiseTable and runs StreamSelectAdd as its hot loop;
// docs/PERFORMANCE.md derives the error budget.
package fxp

import (
	"fmt"
	"math"
)

// One is the mantissa value representing 1.0 before saturation (1<<15).
// The largest representable mantissa is One-1.
const One = 1 << 15

// MaxMant is the positive int16 mantissa rail.
const MaxMant = math.MaxInt16

// QuantQ15 rounds x (in [-1, 1]) to the nearest Q1.15 mantissa, clamped to
// ±MaxMant. The clamp is symmetric — QuantQ15 never returns -32768 — so a
// quantized block can be negated without re-saturation. Non-finite input
// panics: a NaN mantissa would silently corrupt every downstream sum.
func QuantQ15(x float64) int16 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("fxp: QuantQ15(%v)", x))
	}
	v := math.RoundToEven(x * One)
	if v > MaxMant {
		return MaxMant
	}
	if v < -MaxMant {
		return -MaxMant
	}
	return int16(v)
}

// Block scales are clamped to powers of two whose reciprocal is still a
// finite normal float64, so denormal-adjacent inputs quantize (to zero,
// within the ordinary error bound) instead of overflowing the conversion.
const (
	minScale = 0x1p-1021
	maxScale = 0x1p1023
)

// pow2Ceil returns the smallest power of two >= x for positive finite x,
// clamped to [minScale, maxScale].
func pow2Ceil(x float64) float64 {
	e := math.Ceil(math.Log2(x))
	p := math.Ldexp(1, int(e))
	// Near the float64 ceiling Ldexp overflows to +Inf; the clamp contract
	// resolves that to maxScale (larger components saturate at the rails).
	if math.IsInf(p, 0) || p > maxScale {
		return maxScale
	}
	// Guard the log2 rounding at exact powers of two.
	for p < x && p < maxScale {
		p *= 2
	}
	for p/2 >= x && p/2 >= minScale {
		p /= 2
	}
	if p < minScale {
		p = minScale
	}
	if p > maxScale {
		p = maxScale
	}
	return p
}

// Buf is one waveform segment in block-scaled Q1.15 SoA form. I and Q alias
// a single word-aligned backing store, so the SWAR kernels can view either
// component as packed uint64 words.
type Buf struct {
	// I and Q hold the component mantissas.
	I, Q []int16
	// Scale is the block scale: sample k = Scale/32768 * (I[k] + j·Q[k]).
	// Always positive; conversions keep it a power of two.
	Scale float64

	words []uint64 // backing store: I words, then Q words
}

// New allocates a zeroed Buf of n samples with Scale 1.
func New(n int) *Buf {
	w := (n + lanes - 1) / lanes // words per component
	b := &Buf{Scale: 1, words: make([]uint64, 2*w)}
	b.I = wordsToInt16(b.words[:w])[:n]
	b.Q = wordsToInt16(b.words[w:])[:n]
	return b
}

// Len returns the sample count.
func (b *Buf) Len() int { return len(b.I) }

// IWords and QWords expose the component mantissas as packed 4-lane words
// (little-endian lane order: lane l of word w is sample 4w+l). The final
// word's tail lanes beyond Len() are part of the padding and may hold
// anything; kernels that write whole words may clobber them.
func (b *Buf) IWords() []uint64 { return b.words[:len(b.words)/2] }

// QWords is the Q-component counterpart of IWords.
func (b *Buf) QWords() []uint64 { return b.words[len(b.words)/2:] }

// FromComplex converts x into a fresh Buf with an automatic block scale: the
// smallest power of two bounding the largest component magnitude (so
// mantissa utilization is at least half scale and quantization error at most
// Scale/65536 per component). An all-zero block gets Scale 1.
func FromComplex(x []complex128) *Buf {
	maxAbs := 0.0
	for _, v := range x {
		if a := math.Abs(real(v)); a > maxAbs {
			maxAbs = a
		}
		if a := math.Abs(imag(v)); a > maxAbs {
			maxAbs = a
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = pow2Ceil(maxAbs)
	}
	b := New(len(x))
	b.SetComplexAt(x, scale)
	return b
}

// SetComplexAt fills b from x at a caller-chosen scale. Components beyond
// ±scale saturate at the symmetric rails. b must hold len(x) samples.
func (b *Buf) SetComplexAt(x []complex128, scale float64) {
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) || math.IsInf(1/scale, 0) {
		panic(fmt.Sprintf("fxp: block scale %v must be positive, finite and invertible", scale))
	}
	if len(x) != b.Len() {
		panic(fmt.Sprintf("fxp: SetComplexAt of %d samples into a %d-sample Buf", len(x), b.Len()))
	}
	b.Scale = scale
	inv := 1 / scale
	for i, v := range x {
		b.I[i] = QuantQ15(real(v) * inv)
		b.Q[i] = QuantQ15(imag(v) * inv)
	}
}

// ToComplex materializes the buffer into dst (allocated when nil or short)
// and returns it.
func (b *Buf) ToComplex(dst []complex128) []complex128 {
	if len(dst) < len(b.I) {
		dst = make([]complex128, len(b.I))
	}
	dst = dst[:len(b.I)]
	k := b.Scale / One
	for i := range dst {
		dst[i] = complex(float64(b.I[i])*k, float64(b.Q[i])*k)
	}
	return dst
}

// At returns sample i as a complex128.
func (b *Buf) At(i int) complex128 {
	k := b.Scale / One
	return complex(float64(b.I[i])*k, float64(b.Q[i])*k)
}
