package bits

import (
	"math"
	"testing"
	"testing/quick"

	"lscatter/internal/rng"
)

func TestConvEncodeLengths(t *testing.T) {
	for _, c := range []*ConvCode{NewConvCodeR13(), NewConvCodeR12()} {
		for _, n := range []int{1, 10, 100} {
			coded := c.Encode(make([]byte, n))
			if len(coded) != c.EncodedLen(n) {
				t.Fatalf("encoded length %d, want %d", len(coded), c.EncodedLen(n))
			}
		}
	}
}

func TestConvRoundTripNoErrors(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(200) + 1
		msg := r.Bits(make([]byte, n))
		for _, c := range []*ConvCode{NewConvCodeR13(), NewConvCodeR12()} {
			dec := c.Decode(c.Encode(msg))
			if dec == nil || CountDiff(dec, msg) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvCorrectsScatteredErrors(t *testing.T) {
	r := rng.New(7)
	c := NewConvCodeR13()
	msg := r.Bits(make([]byte, 100))
	coded := c.Encode(msg)
	// Flip well-separated bits: rate-1/3 K=7 has free distance 15, so a few
	// scattered errors must be corrected.
	for _, pos := range []int{10, 60, 120, 200, 280} {
		coded[pos] ^= 1
	}
	dec := c.Decode(coded)
	if CountDiff(dec, msg) != 0 {
		t.Fatalf("Viterbi failed to correct scattered errors: %d residual", CountDiff(dec, msg))
	}
}

func TestConvR12CorrectsErrors(t *testing.T) {
	r := rng.New(8)
	c := NewConvCodeR12()
	msg := r.Bits(make([]byte, 100))
	coded := c.Encode(msg)
	for _, pos := range []int{15, 80, 150} {
		coded[pos] ^= 1
	}
	dec := c.Decode(coded)
	if CountDiff(dec, msg) != 0 {
		t.Fatalf("rate-1/2 Viterbi failed: %d residual errors", CountDiff(dec, msg))
	}
}

func TestConvSoftBeatsHardAtLowSNR(t *testing.T) {
	// With Gaussian-corrupted LLRs, soft decoding must recover a codeword
	// whose hard slicing contains errors.
	r := rng.New(9)
	c := NewConvCodeR13()
	msg := r.Bits(make([]byte, 200))
	coded := c.Encode(msg)
	llr := make([]float64, len(coded))
	sigma := 0.9
	hardErrs := 0
	for i, b := range coded {
		v := 1.0
		if b == 1 {
			v = -1
		}
		noisy := v + sigma*r.NormFloat64()
		llr[i] = noisy
		if (noisy < 0) != (b == 1) {
			hardErrs++
		}
	}
	if hardErrs == 0 {
		t.Fatal("test setup produced no raw channel errors")
	}
	dec := c.DecodeSoft(llr)
	if CountDiff(dec, msg) != 0 {
		t.Fatalf("soft Viterbi left %d errors (raw channel had %d)", CountDiff(dec, msg), hardErrs)
	}
}

func TestConvDecodeInvalidLength(t *testing.T) {
	c := NewConvCodeR12()
	if c.Decode(make([]byte, 5)) != nil {
		t.Fatal("Decode accepted length not divisible by rate")
	}
	if c.Decode(make([]byte, 2)) != nil {
		t.Fatal("Decode accepted input shorter than tail")
	}
}

func TestConvRateAccessors(t *testing.T) {
	in, out := NewConvCodeR13().Rate()
	if in != 1 || out != 3 {
		t.Fatalf("R13 rate = %d/%d", in, out)
	}
	in, out = NewConvCodeR12().Rate()
	if in != 1 || out != 2 {
		t.Fatalf("R12 rate = %d/%d", in, out)
	}
}

// decodeSoftReference is the per-source-state Viterbi that DecodeSoft's
// butterfly replaced: it skips unreached states, walks each branch's
// outputs, and writes a survivor entry only when a candidate wins. For
// finite LLRs DecodeSoft must return exactly its bits.
func decodeSoftReference(c *ConvCode, llr []float64) []byte {
	if len(llr)%c.kept != 0 {
		return nil
	}
	steps := len(llr) / c.kept
	n := steps - (constraintLen - 1)
	if n <= 0 {
		return nil
	}
	survivor := make([]uint16, steps*numStates)
	metric, next := make([]float64, numStates), make([]float64, numStates)
	neg := math.Inf(-1)
	for i := range metric {
		metric[i] = neg
	}
	metric[0] = 0
	for t := 0; t < steps; t++ {
		for i := range next {
			next[i] = neg
		}
		row := survivor[t*numStates : (t+1)*numStates]
		sym := llr[t*c.kept : (t+1)*c.kept]
		for s := uint32(0); s < numStates; s++ {
			if metric[s] == neg {
				continue
			}
			maxIn := uint32(1)
			if t >= n {
				maxIn = 0
			}
			for in := uint32(0); in <= maxIn; in++ {
				ns := (s<<1 | in) & (numStates - 1)
				m := metric[s]
				for k, exp := range c.branches[s][in].out[:c.kept] {
					m += exp * sym[k]
				}
				if m > next[ns] {
					next[ns] = m
					row[ns] = uint16(s<<1 | in)
				}
			}
		}
		metric, next = next, metric
	}
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

func TestDecodeSoftMatchesReference(t *testing.T) {
	r := rng.New(10)
	// Each kind draws one LLR for a coded bit sent as ±1.
	kinds := map[string]func(sent float64) float64{
		"gaussian": func(sent float64) float64 { return sent + 1.2*r.NormFloat64() },
		// Small integers tie constantly, as hard Decode's ±1 LLRs do.
		"integer": func(float64) float64 { return float64(r.Intn(7) - 3) },
		// Near ±1e300 the path metrics overflow to ±Inf within a few steps.
		"extreme": func(sent float64) float64 { return sent * 1e300 * (0.5 + r.Float64()) },
		"mixed": func(sent float64) float64 {
			if r.Intn(10) == 0 {
				return -sent * 1e300
			}
			return sent + r.NormFloat64()
		},
	}
	for _, c := range []*ConvCode{NewConvCodeR13(), NewConvCodeR12()} {
		for name, draw := range kinds {
			for trial := 0; trial < 20; trial++ {
				msg := r.Bits(make([]byte, 1+r.Intn(300)))
				coded := c.Encode(msg)
				llr := make([]float64, len(coded))
				for i, b := range coded {
					llr[i] = draw(1 - 2*float64(b))
				}
				got, want := c.DecodeSoft(llr), decodeSoftReference(c, llr)
				if string(got) != string(want) {
					t.Fatalf("rate 1/%d %s trial %d: DecodeSoft differs from the reference", c.kept, name, trial)
				}
				hard, hardWant := c.Decode(coded), decodeSoftReference(c, hardLLR(coded))
				if string(hard) != string(hardWant) {
					t.Fatalf("rate 1/%d trial %d: Decode differs from the reference", c.kept, trial)
				}
			}
		}
	}
}

// hardLLR maps coded bits to the ±1 LLRs that Decode feeds DecodeSoft.
func hardLLR(coded []byte) []float64 {
	llr := make([]float64, len(coded))
	for i, b := range coded {
		llr[i] = 1 - 2*float64(b&1)
	}
	return llr
}

// TestDecodeSoftNaNIsDeterministic pins that a decode whose candidates
// never win (all-NaN LLRs) does not trace back through survivor rows left in
// the pooled scratch by an earlier decode.
func TestDecodeSoftNaNIsDeterministic(t *testing.T) {
	c := NewConvCodeR13()
	nan := make([]float64, c.EncodedLen(40))
	for i := range nan {
		nan[i] = math.NaN()
	}
	first := c.DecodeSoft(nan)
	msg := rng.New(11).Bits(make([]byte, 40))
	if got := c.Decode(c.Encode(msg)); CountDiff(got, msg) != 0 {
		t.Fatal("clean decode failed")
	}
	if second := c.DecodeSoft(nan); string(second) != string(first) {
		t.Fatalf("NaN decode after a clean decode = %v, before it = %v", second, first)
	}
}

// benchDecode times a hard decode of one 1000-bit R1/2 codeword: the ±1
// LLRs that Decode builds, then the decoder under test.
func benchDecode(b *testing.B, decode func(*ConvCode, []float64) []byte) {
	r := rng.New(1)
	c := NewConvCodeR12()
	coded := c.Encode(r.Bits(make([]byte, 1000)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode(c, hardLLR(coded))
	}
}

func BenchmarkViterbiR12Decode1000(b *testing.B) { benchDecode(b, (*ConvCode).DecodeSoft) }
func BenchmarkViterbiR12Decode1000Reference(b *testing.B) {
	benchDecode(b, decodeSoftReference)
}

func BenchmarkConvEncode1000(b *testing.B) {
	r := rng.New(1)
	c := NewConvCodeR12()
	msg := r.Bits(make([]byte, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(msg)
	}
}
