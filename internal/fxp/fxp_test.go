package fxp

import (
	"math"
	"testing"

	"lscatter/internal/rng"
)

// TestQuantQ15 pins the conversion quantizer: symmetric clamp and
// round-to-nearest-even.
func TestQuantQ15(t *testing.T) {
	cases := []struct {
		x    float64
		want int16
	}{
		{0, 0},
		{0.5, 16384},
		{-0.5, -16384},
		{1.0, MaxMant},   // clamp: +1.0 is not representable
		{-1.0, -MaxMant}, // symmetric clamp: negation-safe
		{2.0, MaxMant},
		{-2.0, -MaxMant},
		{1.5 / One, 2}, // tie -> even
		{2.5 / One, 2}, // tie -> even
		{-1.5 / One, -2},
	}
	for _, c := range cases {
		if got := QuantQ15(c.x); got != c.want {
			t.Errorf("QuantQ15(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// roundTripErr returns the largest per-component conversion error of a
// block, in absolute units.
func roundTripErr(x []complex128, b *Buf) float64 {
	worst := 0.0
	for i, v := range x {
		got := b.At(i)
		if e := math.Abs(real(got) - real(v)); e > worst {
			worst = e
		}
		if e := math.Abs(imag(got) - imag(v)); e > worst {
			worst = e
		}
	}
	return worst
}

// TestBlockScaleRoundTrip covers the conversion error bound across scales,
// including denormal-adjacent magnitudes where a naive 1/scale overflows.
func TestBlockScaleRoundTrip(t *testing.T) {
	blocks := [][]complex128{
		{complex(0.7, -0.3), complex(-1e-4, 2e-3)},
		{complex(1e6, -2.5e6), complex(3.1e6, 0)},
		{complex(1e-300, 0), complex(0, -3e-301)},
		{complex(math.SmallestNonzeroFloat64, 0), complex(0, -math.SmallestNonzeroFloat64)},
		{complex(0x1p-1022, -0x1p-1040), complex(0x1p-1074, 0)},
		{complex(0, 0), complex(0, 0)},
	}
	for _, x := range blocks {
		b := FromComplex(x)
		if !(b.Scale > 0) || math.IsInf(1/b.Scale, 0) {
			t.Fatalf("block %v got uninvertible scale %v", x, b.Scale)
		}
		bound := b.Scale / 65536 * (1 + 1e-12)
		if err := roundTripErr(x, b); err > bound {
			t.Errorf("block %v: round-trip error %g exceeds Scale/65536 = %g", x, err, bound)
		}
		// Re-quantizing the quantized block at the same scale is an identity.
		y := b.ToComplex(nil)
		b2 := New(len(y))
		b2.SetComplexAt(y, b.Scale)
		for i := range b.I {
			if b.I[i] != b2.I[i] || b.Q[i] != b2.Q[i] {
				t.Fatalf("re-quantization not idempotent at %d: (%d,%d) -> (%d,%d)",
					i, b.I[i], b.Q[i], b2.I[i], b2.Q[i])
			}
		}
	}
}

// TestLaneOrder pins the words view: lane l of word w is sample 4w+l.
func TestLaneOrder(t *testing.T) {
	b := New(8)
	for i := range b.I {
		b.I[i] = int16(i + 1)
	}
	w := b.IWords()
	for i := 0; i < 8; i++ {
		got := int16(w[i/4] >> (16 * (i % 4)))
		if got != int16(i+1) {
			t.Fatalf("sample %d read back as %d through the word view", i, got)
		}
	}
}

// TestStreamSelectAdd checks the fused streamer kernel against a scalar
// model: biased select-and-add must reproduce C(sel) + noise exactly.
func TestStreamSelectAdd(t *testing.T) {
	r := rng.New(17)
	const units = 300
	const noiseMax = 2000
	c0m := make([]int16, units*lanes)
	c1m := make([]int16, units*lanes)
	for i := range c0m {
		c0m[i] = int16(int(r.Uint64()%(2*(MaxMant-noiseMax)+1)) - (MaxMant - noiseMax))
		c1m[i] = int16(int(r.Uint64()%(2*(MaxMant-noiseMax)+1)) - (MaxMant - noiseMax))
	}
	words := units // words per component
	c0 := make([]uint64, 2*words)
	c1 := make([]uint64, 2*words)
	// Interleave I and Q words per unit: for the test both components carry
	// the same mantissa streams offset by one unit, which is enough to catch
	// index mistakes.
	tmp0 := make([]uint64, words)
	tmp1 := make([]uint64, words)
	PackBiased(tmp0, c0m, noiseMax)
	PackBiased(tmp1, c1m, noiseMax)
	for u := 0; u < units; u++ {
		c0[2*u], c0[2*u+1] = tmp0[u], tmp0[(u+1)%units]
		c1[2*u], c1[2*u+1] = tmp1[u], tmp1[(u+1)%units]
	}
	d := make([]uint64, 2*words)
	for k := range d {
		d[k] = c0[k] ^ c1[k]
	}
	phase := make([]uint64, (units+63)/64)
	for u := 0; u < units; u++ {
		if r.Uint64()&1 == 1 {
			phase[u/64] |= 1 << (u % 64)
		}
	}
	noise := NewNoiseTable(rng.New(23), 64, 300, noiseMax)

	out := make([]uint64, 2*words)
	np := StreamSelectAdd(out, c0, d, phase, noise, 0)
	if np != 2*units {
		t.Fatalf("ring position advanced %d, want %d", np, 2*units)
	}
	// StreamSelectAdd fuses the unbias into its store: out already holds
	// two's-complement mantissas.

	// Scalar model.
	noiseLane := func(p int) int {
		w := noise[(p/lanes)&(len(noise)-1)]
		return int(uint16(w>>(16*(p%lanes)))) - noiseMax
	}
	pos := 0
	for u := 0; u < units; u++ {
		sel := phase[u/64]>>(u%64)&1 == 1
		for comp := 0; comp < 2; comp++ {
			srcW := tmp0[(u+comp)%units]
			if sel {
				srcW = tmp1[(u+comp)%units]
			}
			for l := 0; l < lanes; l++ {
				c := int(uint16(srcW>>(16*l))) - (One - noiseMax) // unbias the packed composite (lanes are offset-binary, not two's complement)
				want := c + noiseLane(pos*lanes+l)
				got := int(int16(uint16(out[2*u+comp] >> (16 * l))))
				if got != want {
					t.Fatalf("unit %d comp %d lane %d: got %d want %d", u, comp, l, got, want)
				}
			}
			pos++
		}
	}
}

// TestPackBiasedContract verifies the headroom contract is enforced.
func TestPackBiasedContract(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackBiased accepted a mantissa violating the headroom contract")
		}
	}()
	dst := make([]uint64, 1)
	PackBiased(dst, []int16{32000}, 1000)
}

// FuzzFxpRoundTrip fuzzes the block-scale conversion: for any finite
// 2-sample block the round-trip error stays within Scale/65536 per
// component, and re-quantizing the quantized block is an identity.
func FuzzFxpRoundTrip(f *testing.F) {
	f.Add(0.5, -0.25, 1e-9, 3e6)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1040)
	f.Add(1e308, -1e308, 1e-308, 0.0)
	f.Fuzz(func(t *testing.T, re1, im1, re2, im2 float64) {
		vals := []float64{re1, im1, re2, im2}
		maxAbs := 0.0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		x := []complex128{complex(re1, im1), complex(re2, im2)}
		b := FromComplex(x)
		if !(b.Scale > 0) || math.IsInf(1/b.Scale, 0) || math.IsNaN(b.Scale) {
			t.Fatalf("bad scale %v", b.Scale)
		}
		if maxAbs <= b.Scale { // beyond maxScale the conversion saturates by contract
			bound := b.Scale / 65536 * (1 + 1e-12)
			if err := roundTripErr(x, b); err > bound {
				t.Fatalf("round-trip error %g exceeds %g (scale %g)", err, bound, b.Scale)
			}
		}
		y := b.ToComplex(nil)
		b2 := New(len(y))
		b2.SetComplexAt(y, b.Scale)
		for i := range b.I {
			if b.I[i] != b2.I[i] || b.Q[i] != b2.Q[i] {
				t.Fatalf("re-quantization not idempotent at sample %d", i)
			}
		}
	})
}
