package modem

import (
	"math"
	"testing"
	"testing/quick"

	"lscatter/internal/bits"
	"lscatter/internal/rng"
)

func TestBitsPerSymbol(t *testing.T) {
	cases := map[Scheme]int{BPSK: 1, QPSK: 2, QAM16: 4, QAM64: 6}
	for s, want := range cases {
		if got := s.BitsPerSymbol(); got != want {
			t.Errorf("%v.BitsPerSymbol = %d, want %d", s, got, want)
		}
	}
}

func TestMapDemapRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64} {
			n := (r.Intn(50) + 1) * s.BitsPerSymbol()
			b := r.Bits(make([]byte, n))
			if bits.CountDiff(Demap(s, Map(s, b)), b) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitAveragePower(t *testing.T) {
	for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64} {
		pts, _ := constellationTable(s)
		var p float64
		for _, c := range pts {
			p += real(c)*real(c) + imag(c)*imag(c)
		}
		p /= float64(len(pts))
		if math.Abs(p-1) > 1e-12 {
			t.Errorf("%v average power = %v, want 1", s, p)
		}
	}
}

func TestQPSKMatchesLTETable(t *testing.T) {
	inv := 1 / math.Sqrt2
	cases := []struct {
		b    []byte
		want complex128
	}{
		{[]byte{0, 0}, complex(inv, inv)},
		{[]byte{0, 1}, complex(inv, -inv)},
		{[]byte{1, 0}, complex(-inv, inv)},
		{[]byte{1, 1}, complex(-inv, -inv)},
	}
	for _, c := range cases {
		got := MapSymbol(QPSK, c.b)
		if math.Abs(real(got)-real(c.want)) > 1e-12 || math.Abs(imag(got)-imag(c.want)) > 1e-12 {
			t.Errorf("QPSK %v = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestQAM16MatchesLTETable(t *testing.T) {
	// TS 36.211 Table 7.1.3-1 spot checks.
	s10 := math.Sqrt(10)
	cases := []struct {
		b    []byte
		want complex128
	}{
		{[]byte{0, 0, 0, 0}, complex(1/s10, 1/s10)},
		{[]byte{0, 0, 1, 1}, complex(3/s10, 3/s10)},
		{[]byte{1, 1, 1, 1}, complex(-3/s10, -3/s10)},
		{[]byte{1, 0, 0, 1}, complex(-1/s10, 3/s10)},
	}
	for _, c := range cases {
		got := MapSymbol(QAM16, c.b)
		if math.Abs(real(got)-real(c.want)) > 1e-12 || math.Abs(imag(got)-imag(c.want)) > 1e-12 {
			t.Errorf("16QAM %v = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestGrayPropertyNeighborsDifferByOneBit(t *testing.T) {
	// For 64-QAM, horizontally adjacent points must differ in exactly one bit
	// (Gray mapping) — the property that bounds bit errors per symbol error.
	pts, bts := constellationTable(QAM64)
	s42 := math.Sqrt(42)
	for i, p := range pts {
		for j, q := range pts {
			if i == j {
				continue
			}
			dx := math.Abs(real(p)-real(q)) * s42
			dy := math.Abs(imag(p)-imag(q)) * s42
			if dx < 2.1 && dy < 0.1 || dy < 2.1 && dx < 0.1 {
				if dx+dy > 0.1 && bits.CountDiff(bts[i], bts[j]) != 1 {
					t.Fatalf("adjacent 64QAM points %v,%v differ by %d bits", p, q, bits.CountDiff(bts[i], bts[j]))
				}
			}
		}
	}
}

func TestDemapNoisyStillCorrect(t *testing.T) {
	r := rng.New(10)
	for _, s := range []Scheme{QPSK, QAM16} {
		b := r.Bits(make([]byte, 400*s.BitsPerSymbol()))
		syms := Map(s, b)
		for i := range syms {
			syms[i] += r.Complex(0.02) // tiny noise
		}
		if bits.CountDiff(Demap(s, syms), b) != 0 {
			t.Errorf("%v: tiny noise caused bit errors", s)
		}
	}
}

func TestDemapSoftSignsMatchHard(t *testing.T) {
	r := rng.New(11)
	for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64} {
		b := r.Bits(make([]byte, 60*s.BitsPerSymbol()))
		syms := Map(s, b)
		llr := DemapSoft(s, syms, 0.1)
		hard := Demap(s, syms)
		for i := range hard {
			var soft byte
			if llr[i] < 0 {
				soft = 1
			}
			if soft != hard[i] {
				t.Fatalf("%v: soft/hard disagreement at clean bit %d", s, i)
			}
		}
	}
}

func TestDemapSoftConfidenceScalesWithNoiseVar(t *testing.T) {
	sym := []complex128{MapSymbol(QPSK, []byte{0, 0})}
	low := DemapSoft(QPSK, sym, 0.01)
	high := DemapSoft(QPSK, sym, 1.0)
	if math.Abs(low[0]) <= math.Abs(high[0]) {
		t.Fatal("LLR magnitude did not grow with lower noise variance")
	}
}

func TestEVMZeroForIdentical(t *testing.T) {
	r := rng.New(12)
	syms := Map(QPSK, r.Bits(make([]byte, 100)))
	if e := EVM(syms, syms); e != 0 {
		t.Fatalf("EVM of identical = %v", e)
	}
}

func TestEVMKnownOffset(t *testing.T) {
	ref := []complex128{1, 1, 1, 1}
	rx := []complex128{1.1, 1.1, 1.1, 1.1}
	if e := EVM(rx, ref); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("EVM = %v, want 0.1", e)
	}
}

func TestSNRFromEVM(t *testing.T) {
	if s := SNRFromEVM(0.1); math.Abs(s-100) > 1e-9 {
		t.Fatalf("SNR from EVM 0.1 = %v, want 100", s)
	}
	if !math.IsInf(SNRFromEVM(0), 1) {
		t.Fatal("SNR from zero EVM not +inf")
	}
}

func TestMapPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Map accepted misaligned bit count")
		}
	}()
	Map(QPSK, []byte{1})
}

func TestSchemeString(t *testing.T) {
	if QAM64.String() != "64QAM" || BPSK.String() != "BPSK" {
		t.Fatal("scheme names wrong")
	}
}

func BenchmarkMapQAM64(b *testing.B) {
	r := rng.New(1)
	bitsIn := r.Bits(make([]byte, 6000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Map(QAM64, bitsIn)
	}
}

// benchDemap times a soft demapper over 1000 noiseless symbols.
func benchDemap(b *testing.B, s Scheme, demap func(Scheme, []complex128, float64) []float64) {
	r := rng.New(1)
	syms := Map(s, r.Bits(make([]byte, 1000*s.BitsPerSymbol())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demap(s, syms, 0.1)
	}
}

func BenchmarkDemapSoftQAM16(b *testing.B)          { benchDemap(b, QAM16, DemapSoft) }
func BenchmarkDemapSoftQAM16Reference(b *testing.B) { benchDemap(b, QAM16, demapSoftReference) }
func BenchmarkDemapSoftQAM64(b *testing.B)          { benchDemap(b, QAM64, DemapSoft) }
func BenchmarkDemapSoftQAM64Reference(b *testing.B) { benchDemap(b, QAM64, demapSoftReference) }

// demapSoftReference is the per-bit max-log demapper DemapSoft replaced: for
// every bit it searches all constellation points for the nearest point with
// that bit 0 and with that bit 1. It is the reference DemapSoft must match
// bit for bit.
func demapSoftReference(s Scheme, syms []complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	bps := s.BitsPerSymbol()
	points, bitsOf := constellationTable(s)
	out := make([]float64, 0, len(syms)*bps)
	for _, y := range syms {
		for bit := 0; bit < bps; bit++ {
			best0, best1 := math.Inf(1), math.Inf(1)
			for pi, p := range points {
				d := y - p
				dist := real(d)*real(d) + imag(d)*imag(d)
				if bitsOf[pi][bit] == 0 {
					if dist < best0 {
						best0 = dist
					}
				} else if dist < best1 {
					best1 = dist
				}
			}
			out = append(out, (best1-best0)/noiseVar)
		}
	}
	return out
}

// constellationTable enumerates every point of the scheme with its bits.
func constellationTable(s Scheme) ([]complex128, [][]byte) {
	bps := s.BitsPerSymbol()
	n := 1 << bps
	points := make([]complex128, n)
	bitsOf := make([][]byte, n)
	for v := 0; v < n; v++ {
		b := make([]byte, bps)
		for i := range b {
			b[i] = byte(v >> (bps - 1 - i) & 1)
		}
		points[v] = MapSymbol(s, b)
		bitsOf[v] = b
	}
	return points, bitsOf
}

func TestDemapSoftMatchesReference(t *testing.T) {
	r := rng.New(13)
	inf, nan := math.Inf(1), math.NaN()
	edge := []complex128{
		0, complex(math.Copysign(0, -1), math.Copysign(0, -1)), 1e300 + 1e300i, -1e-300,
		complex(nan, 0.3), complex(-0.2, nan), complex(inf, -inf), complex(-inf, 0.5),
	}
	for _, s := range []Scheme{BPSK, QPSK, QAM16, QAM64} {
		syms := Map(s, r.Bits(make([]byte, 500*s.BitsPerSymbol())))
		for i := range syms {
			// Noise from faint to far beyond the constellation, so every
			// level wins on each axis.
			syms[i] += r.Complex(math.Pow(10, r.Float64()*4-3))
		}
		syms = append(syms, edge...)
		for _, nv := range []float64{0.1, 3e-4, 0, -1} {
			got, want := DemapSoft(s, syms, nv), demapSoftReference(s, syms, nv)
			if len(got) != len(want) {
				t.Fatalf("%v: %d LLRs, want %d", s, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v noiseVar %v: LLR %d (symbol %v) = %v, want %v",
						s, nv, i, syms[i/s.BitsPerSymbol()], got[i], want[i])
				}
			}
		}
	}
}
