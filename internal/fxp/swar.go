package fxp

import (
	"fmt"
	"math"
	"unsafe"

	"lscatter/internal/rng"
)

// lanes is the number of int16 mantissas packed per 64-bit word.
const lanes = 4

// signMask selects every lane's sign bit.
const signMask = 0x8000_8000_8000_8000

// wordsToInt16 views a word slice as its packed int16 lanes. Lane order is
// the host's native int16 layout; every producer and consumer in this
// package goes through this same view, so no code depends on a particular
// endianness — except that lane l of word w is sample 4w+l, which holds on
// the little-endian targets this repository runs on and is asserted by the
// package tests.
func wordsToInt16(w []uint64) []int16 {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&w[0])), len(w)*lanes)
}

// PackBiased packs mantissas into 4-lane words in the offset-binary form the
// streamer's carry-free adder needs: stored lane = mant + 32768 - noiseMax,
// a non-negative value with noiseMax steps of headroom reserved below the
// lane ceiling. Adding a noise lane shifted by +noiseMax (see NewNoiseTable)
// then yields mant_total + 32768 with no carry ever crossing a lane
// boundary, so composite-plus-noise is a single machine add per four
// samples. It panics when a mantissa violates the headroom contract
// |mant| + noiseMax <= 32767. Tail lanes beyond len(mant) hold the bias of
// a zero mantissa. dst must hold ceil(len(mant)/4) words.
func PackBiased(dst []uint64, mant []int16, noiseMax int) {
	if noiseMax < 0 || noiseMax > MaxMant {
		panic(fmt.Sprintf("fxp: PackBiased noiseMax %d out of [0,32767]", noiseMax))
	}
	if need := (len(mant) + lanes - 1) / lanes; len(dst) < need {
		panic(fmt.Sprintf("fxp: PackBiased needs %d words, got %d", need, len(dst)))
	}
	bias := One - noiseMax
	for w := range dst {
		var word uint64
		for l := 0; l < lanes; l++ {
			k := w*lanes + l
			m := 0
			if k < len(mant) {
				m = int(mant[k])
			}
			if m > MaxMant-noiseMax || m < -(MaxMant-noiseMax) {
				panic(fmt.Sprintf("fxp: PackBiased mantissa %d breaks the |m|+%d <= 32767 headroom contract", m, noiseMax))
			}
			word |= uint64(uint16(m+bias)) << (16 * l)
		}
		dst[w] = word
	}
}

// NewNoiseTable builds a power-of-two ring of packed Gaussian noise lanes
// for the streamer: each lane is round(N(0, sigmaMant)) clamped to
// ±clampMant, stored shifted by +clampMant so every lane is non-negative
// (the counterpart of PackBiased's reserved headroom). sigmaMant and
// clampMant are in mantissa steps; sigmaMant 0 yields an all-zero-noise
// table (clampMant must then be 0). The ring is deliberately small enough
// to stay cache-resident and is reused cyclically — the streamer's
// documented statistical shortcut (docs/PERFORMANCE.md).
func NewNoiseTable(r *rng.Source, words int, sigmaMant float64, clampMant int) []uint64 {
	if words <= 0 || words&(words-1) != 0 {
		panic(fmt.Sprintf("fxp: noise table length %d must be a power of two", words))
	}
	if sigmaMant < 0 || math.IsNaN(sigmaMant) || math.IsInf(sigmaMant, 0) {
		panic(fmt.Sprintf("fxp: noise sigma %v must be finite and >= 0", sigmaMant))
	}
	if sigmaMant == 0 && clampMant != 0 {
		panic("fxp: zero-sigma noise table needs clampMant 0")
	}
	if clampMant < 0 || clampMant > MaxMant {
		panic(fmt.Sprintf("fxp: noise clamp %d out of [0,32767]", clampMant))
	}
	out := make([]uint64, words)
	if sigmaMant == 0 {
		return out
	}
	for w := range out {
		var word uint64
		for l := 0; l < lanes; l++ {
			n := int(math.Round(r.NormFloat64() * sigmaMant))
			if n > clampMant {
				n = clampMant
			} else if n < -clampMant {
				n = -clampMant
			}
			word |= uint64(uint16(n+clampMant)) << (16 * l)
		}
		out[w] = word
	}
	return out
}

// StreamSelectAdd is the streamer's fused per-subframe hot loop: for each
// basic-timing unit u (one packed I word and one packed Q word, interleaved
// I,Q per unit), it selects between the precomputed phase-0 composite c0 and
// its phase-pi counterpart via the XOR difference d = c0 ^ c1 under the
// unit's packed phase bit, adds the next ring lanes of noise, and stores the
// result. All inputs are in the PackBiased offset-binary form with a shared
// headroom contract, so the noise add is a plain uint64 add with no carry
// between lanes. The unbias back to two's complement (an XOR of every
// lane's sign bit) is fused into the store — out comes back holding plain Q1.15 mantissas,
// saving a second full pass over the subframe. phase holds one bit per unit,
// bit u of word u/64; noise must be a power-of-two-length ring from
// NewNoiseTable. np is the running ring position; the advanced position is
// returned.
func StreamSelectAdd(out, c0, d, phase, noise []uint64, np int) int {
	units := len(out) / 2
	nm := len(noise) - 1
	for blk := 0; blk*64 < units; blk++ {
		w := phase[blk]
		end := units - blk*64
		if end > 64 {
			end = 64
		}
		// Reslice the block's words to a shared symbolic length so the
		// compiler can prove every index below in bounds (no per-word
		// checks), and hoist the ring wrap test out of the inner loop: a
		// block touches 2*end <= 128 consecutive ring words, so all but the
		// wrapping block take the mask-free fast path.
		n2 := 2 * end
		base := blk * 128
		o := out[base : base+n2]
		a := c0[base : base+n2]
		b := d[base : base+n2]
		a = a[:len(o)]
		b = b[:len(o)]
		if p := np & nm; p+n2 <= len(noise) {
			ns := noise[p : p+n2]
			ns = ns[:len(o)]
			for k := 0; k < len(o)-1; k += 2 {
				sel := -(w & 1)
				w >>= 1
				o[k] = ((a[k] ^ (b[k] & sel)) + ns[k]) ^ signMask
				o[k+1] = ((a[k+1] ^ (b[k+1] & sel)) + ns[k+1]) ^ signMask
			}
		} else {
			for k := 0; k < len(o)-1; k += 2 {
				sel := -(w & 1)
				w >>= 1
				o[k] = ((a[k] ^ (b[k] & sel)) + noise[(p+k)&nm]) ^ signMask
				o[k+1] = ((a[k+1] ^ (b[k+1] & sel)) + noise[(p+k+1)&nm]) ^ signMask
			}
		}
		np += n2
	}
	return np
}
