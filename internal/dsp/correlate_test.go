package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randIQ returns n deterministic complex samples in the unit square.
func randIQ(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// maxAbs returns the largest magnitude in x (0 for empty).
func maxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// assertCorrEquiv checks got against the direct reference: same length,
// per-lag error within relTol of the vector's peak magnitude, and an
// identical argmax (or a genuine tie within tolerance).
func assertCorrEquiv(t *testing.T, got, want []complex128, relTol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	scale := maxAbs(want)
	if scale == 0 {
		scale = 1
	}
	for l := range want {
		if err := cmplx.Abs(got[l] - want[l]); err > relTol*scale {
			t.Fatalf("lag %d: |got-want| = %g exceeds %g (relative %g of peak %g)", l, err, relTol*scale, relTol, scale)
		}
	}
	gi, gm := MaxAbsIndex(got)
	wi, wm := MaxAbsIndex(want)
	if gi != wi && math.Abs(gm-wm) > 2*relTol*scale {
		t.Fatalf("argmax mismatch: got lag %d (%g), want lag %d (%g)", gi, gm, wi, wm)
	}
}

// The table spans both sides of the crossover, single-block and multi-block
// overlap-save, partial tail blocks, and the degenerate single-lag case.
var corrSizes = []struct {
	name string
	n, m int
}{
	{"direct_tiny", 64, 8},
	{"direct_crossover_minus", 4096, directCrossover - 1},
	{"fft_crossover", 4096, directCrossover},
	{"fft_single_block", 1024, 256},
	{"fft_multi_block", 10000, 256},
	{"fft_partial_tail", 2049, 512},
	{"fft_long_ref", 30000, 2048},
	{"single_lag", 512, 512},
	{"few_lags_fallback", 530, 512},
}

// directNormalizedPeak is the reference for NormalizedPeaks: CrossCorrelate
// normalized by each lag's segment energy, computed afresh per lag.
func directNormalizedPeak(x, ref []complex128) CorrPeak {
	refE := Energy(ref)
	best, bestVal := CorrPeak{}, -1.0
	for l, c := range CrossCorrelate(x, ref) {
		den := math.Sqrt(Energy(x[l:l+len(ref)]) * refE)
		if den <= 0 {
			continue
		}
		if v := cmplx.Abs(c) / den; v > bestVal {
			best, bestVal = CorrPeak{Lag: l, Peak: v}, v
		}
	}
	return best
}

// oneRef builds a single-reference bank, the form every one-reference
// correlation takes.
func oneRef(ref []complex128) *CorrelatorBank {
	return NewCorrelatorBank([][]complex128{ref})
}

func TestCorrelatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range corrSizes {
		t.Run(tc.name, func(t *testing.T) {
			x := randIQ(rng, tc.n)
			ref := randIQ(rng, tc.m)
			want := CrossCorrelate(x, ref)
			b := oneRef(ref)
			got := b.CorrelateAll(nil, x)
			assertCorrEquiv(t, got[0], want, 1e-9)
			// Reusing a destination must give the same answer.
			got2 := b.CorrelateAll(got, x)
			if &got2[0][0] != &got[0][0] {
				t.Fatal("CorrelateAll did not reuse a large-enough destination")
			}
			assertCorrEquiv(t, got2[0], want, 1e-9)
		})
	}
}

func TestCorrelatorDegenerate(t *testing.T) {
	x := randIQ(rand.New(rand.NewSource(2)), 32)
	if lag, peak := NormalizedCorrPeak(x, nil); lag != 0 || peak != 0 {
		t.Fatalf("NormalizedCorrPeak with empty ref: got (%d, %g), want zero", lag, peak)
	}
	if lag, peak := NormalizedCorrPeak(x[:4], x); lag != 0 || peak != 0 {
		t.Fatalf("NormalizedCorrPeak with short stream: got (%d, %g), want zero", lag, peak)
	}
	if lag, peak := NormalizedCorrPeak(x, make([]complex128, 8)); lag != 0 || peak != 0 {
		t.Fatalf("NormalizedCorrPeak with zero-energy ref: got (%d, %g), want zero", lag, peak)
	}
	if got := oneRef(x).CorrelateAll(nil, x[:4]); got[0] != nil {
		t.Fatalf("one-reference bank with short stream: got %v, want nil", got[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCorrelatorBank with an empty reference did not panic")
		}
	}()
	oneRef(nil)
}

func TestCorrelatorNormalizedPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range corrSizes {
		t.Run(tc.name, func(t *testing.T) {
			x := randIQ(rng, tc.n)
			ref := randIQ(rng, tc.m)
			// Plant the reference at a known offset so the peak is sharp.
			off := (tc.n - tc.m) / 2
			copy(x[off:], ref)
			want := directNormalizedPeak(x, ref)
			if want.Lag != off {
				t.Fatalf("planted reference not found by reference impl: lag %d, want %d", want.Lag, off)
			}
			gotLag, gotPeak := NormalizedCorrPeak(x, ref)
			if gotLag != want.Lag {
				t.Fatalf("peak lag: got %d, want %d", gotLag, want.Lag)
			}
			if math.Abs(gotPeak-want.Peak) > 1e-9 {
				t.Fatalf("peak value: got %.15g, want %.15g", gotPeak, want.Peak)
			}
		})
	}
}

func TestCorrelatorBankMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{32, 256, 2048} {
		n := 6*m + 37
		x := randIQ(rng, n)
		refs := [][]complex128{randIQ(rng, m), randIQ(rng, m), randIQ(rng, m)}
		copy(x[2*m:], refs[1]) // plant root 1 so peaks are meaningful
		b := NewCorrelatorBank(refs)
		if b.Size() != 3 || b.RefLen() != m {
			t.Fatalf("bank shape: size %d len %d", b.Size(), b.RefLen())
		}
		all := b.CorrelateAll(nil, x)
		peaks := b.NormalizedPeaks(x)
		for r, ref := range refs {
			want := CrossCorrelate(x, ref)
			assertCorrEquiv(t, all[r], want, 1e-9)
			// Sharing the bank must not change a reference's peak: it
			// matches a one-reference bank bit for bit.
			if single := oneRef(ref).NormalizedPeaks(x)[0]; peaks[r] != single {
				t.Fatalf("m=%d root %d: bank peak %+v, one-reference bank %+v", m, r, peaks[r], single)
			}
			wantPeak := directNormalizedPeak(x, ref)
			if peaks[r].Lag != wantPeak.Lag {
				t.Fatalf("m=%d root %d: bank lag %d, direct %d", m, r, peaks[r].Lag, wantPeak.Lag)
			}
			if math.Abs(peaks[r].Peak-wantPeak.Peak) > 1e-9 {
				t.Fatalf("m=%d root %d: bank peak %.15g, direct %.15g", m, r, peaks[r].Peak, wantPeak.Peak)
			}
		}
		if peaks[1].Lag != 2*m {
			t.Fatalf("m=%d: planted root found at %d, want %d", m, peaks[1].Lag, 2*m)
		}
	}
}

func TestCorrelatorBankDegenerate(t *testing.T) {
	refs := [][]complex128{randIQ(rand.New(rand.NewSource(5)), 16)}
	b := NewCorrelatorBank(refs)
	short := refs[0][:4]
	for _, v := range b.CorrelateAll(nil, short) {
		if v != nil {
			t.Fatal("CorrelateAll on short stream must yield nil vectors")
		}
	}
	for _, p := range b.NormalizedPeaks(short) {
		if p.Lag != 0 || p.Peak != 0 {
			t.Fatalf("NormalizedPeaks on short stream: got %+v, want zero", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCorrelatorBank with mismatched lengths did not panic")
		}
	}()
	NewCorrelatorBank([][]complex128{refs[0], refs[0][:8]})
}

func TestAcquireReleaseBuf(t *testing.T) {
	for _, n := range []int{1, 7, 128, 1000, 4096} {
		p := AcquireBuf(n)
		if len(*p) != n {
			t.Fatalf("AcquireBuf(%d): len %d", n, len(*p))
		}
		for i := range *p {
			(*p)[i] = complex(float64(i), 0)
		}
		ReleaseBuf(p)
	}
	ReleaseBuf(nil) // must be a no-op
}

func TestFFTShiftInto(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 255} {
		x := randIQ(rand.New(rand.NewSource(int64(n))), n)
		want := FFTShift(x)
		dst := make([]complex128, n)
		got := FFTShiftInto(dst, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFIRProcessIntoInPlace(t *testing.T) {
	x := randIQ(rand.New(rand.NewSource(6)), 300)
	fresh := NewFIR([]float64{0.25, 0.5, 0.25}).Process(x)
	inPlace := append([]complex128(nil), x...)
	NewFIR([]float64{0.25, 0.5, 0.25}).ProcessInto(inPlace, inPlace)
	for i := range fresh {
		if fresh[i] != inPlace[i] {
			t.Fatalf("sample %d: in-place %v, fresh %v", i, inPlace[i], fresh[i])
		}
	}
}

// bytesToIQ decodes fuzz bytes into complex samples, two bytes per sample
// mapped into [-1, 1).
func bytesToIQ(data []byte) []complex128 {
	out := make([]complex128, len(data)/2)
	for i := range out {
		re := float64(data[2*i])/128 - 1
		im := float64(data[2*i+1])/128 - 1
		out[i] = complex(re, im)
	}
	return out
}

// FuzzCorrelatorEquivalence pins a one-reference CorrelatorBank (FFT
// overlap-save above the crossover, direct form below it) to CrossCorrelate
// on arbitrary IQ streams and reference lengths: per-lag agreement within
// 1e-9 of the peak magnitude, and agreement of both the correlation argmax
// and the normalized peak (lag and value) up to genuine floating-point ties.
func FuzzCorrelatorEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 2048)
	rng.Read(long)
	f.Add(long, 150)       // FFT path, multi-block
	f.Add(long[:600], 260) // n=300, m=260: few-lags fallback to the direct form
	f.Add(long[:64], 5)    // direct path
	f.Add([]byte{1, 2, 3, 4}, 0)
	f.Fuzz(func(t *testing.T, data []byte, refLen int) {
		x := bytesToIQ(data)
		if len(x) == 0 {
			return
		}
		m := refLen
		if m < 0 {
			m = -m
		}
		m = 1 + m%len(x)
		ref := x[len(x)-m:]
		b := oneRef(ref)
		assertCorrEquiv(t, b.CorrelateAll(nil, x)[0], CrossCorrelate(x, ref), 1e-9)

		want := directNormalizedPeak(x, ref)
		got := b.NormalizedPeaks(x)[0]
		if math.Abs(got.Peak-want.Peak) > 1e-9 {
			t.Fatalf("normalized peak: got %.15g, want %.15g", got.Peak, want.Peak)
		}
		if got.Lag != want.Lag && math.Abs(got.Peak-want.Peak) > 1e-12 {
			t.Fatalf("normalized peak lag: got %d (%.15g), want %d (%.15g)", got.Lag, got.Peak, want.Lag, want.Peak)
		}
	})
}

// Crossover benchmarks: the direct form against the overlap-save engine
// across reference lengths at a fixed 40960-sample stream (one 1.4 MHz
// subframe's worth at 4x oversampling is 7680; 40960 exercises several
// blocks at every size). The crossover constant in correlate.go is chosen
// from these curves.

const benchStreamLen = 40960

func benchCorrelate(b *testing.B, m int, fft bool) {
	rng := rand.New(rand.NewSource(8))
	x := randIQ(rng, benchStreamLen)
	ref := randIQ(rng, m)
	dst := make([]complex128, benchStreamLen-m+1)
	b.ResetTimer()
	if fft {
		// Bypass the crossover policy so both sides of the break-even are
		// measured with the same destination handling.
		bank, dsts := oneRef(ref), [][]complex128{dst}
		for i := 0; i < b.N; i++ {
			bank.correlateFFT(dsts, x)
			corrSink = dst
		}
		return
	}
	for i := 0; i < b.N; i++ {
		directCorrelate(dst, x, ref)
		corrSink = dst
	}
}

var corrSink []complex128

func BenchmarkCorrelateDirect(b *testing.B) {
	for _, m := range []int{16, 64, 128, 256, 1024, 2048} {
		b.Run("M="+itoa(m), func(b *testing.B) { benchCorrelate(b, m, false) })
	}
}

func BenchmarkCorrelateFFT(b *testing.B) {
	for _, m := range []int{16, 64, 128, 256, 1024, 2048} {
		b.Run("M="+itoa(m), func(b *testing.B) { benchCorrelate(b, m, true) })
	}
}

// BenchmarkCorrelateBank measures the three-reference batch mode (one shared
// stream transform per block) at a 2048-sample reference length.
func BenchmarkCorrelateBank(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randIQ(rng, benchStreamLen)
	refs := [][]complex128{randIQ(rng, 2048), randIQ(rng, 2048), randIQ(rng, 2048)}
	bank := NewCorrelatorBank(refs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peaksSink = bank.NormalizedPeaks(x)
	}
}

var peaksSink []CorrPeak

// itoa avoids importing strconv just for benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
