// Package modem implements the digital constellations used by the LTE PHY
// (QPSK, 16-QAM, 64-QAM per 3GPP TS 36.211 §7.1) and the binary phase
// alphabet of the backscatter link, with hard and soft demapping and EVM
// measurement.
package modem

import (
	"fmt"
	"math"
)

// Scheme identifies a constellation.
type Scheme int

const (
	// BPSK maps 0 -> +1, 1 -> -1.
	BPSK Scheme = iota
	// QPSK is the LTE Gray-coded QPSK.
	QPSK
	// QAM16 is the LTE 16-QAM.
	QAM16
	// QAM64 is the LTE 64-QAM.
	QAM64
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// BitsPerSymbol returns the number of bits carried by one symbol.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	panic("modem: unknown scheme")
}

// lteAmplitude returns the per-axis levels for the LTE QAM constellations,
// normalized to unit average symbol energy. TS 36.211 defines 16-QAM levels
// {±1, ±3}/sqrt(10) and 64-QAM levels {±1,±3,±5,±7}/sqrt(42).
func axisLevel16(b0, b1 byte) float64 {
	// TS 36.211 Table 7.1.3-1: bit pattern (b0,b1) per axis ->
	// 00:1, 01:3 ... with sign from b0: 0=+, 1=-
	mag := 1.0
	if b1 == 1 {
		mag = 3.0
	}
	v := mag / math.Sqrt(10)
	if b0 == 1 {
		v = -v
	}
	return v
}

func axisLevel64(b0, b1, b2 byte) float64 {
	// TS 36.211 Table 7.1.4-1 axis magnitudes by (b1,b2): 00:3,01:1,10:5,11:7
	var mag float64
	switch b1<<1 | b2 {
	case 0b00:
		mag = 3
	case 0b01:
		mag = 1
	case 0b10:
		mag = 5
	case 0b11:
		mag = 7
	}
	v := mag / math.Sqrt(42)
	if b0 == 1 {
		v = -v
	}
	return v
}

// Map modulates a bit slice into symbols. The bit count must be a multiple
// of BitsPerSymbol.
func Map(s Scheme, b []byte) []complex128 {
	bps := s.BitsPerSymbol()
	if len(b)%bps != 0 {
		panic(fmt.Sprintf("modem: %d bits not a multiple of %d", len(b), bps))
	}
	out := make([]complex128, len(b)/bps)
	for i := range out {
		out[i] = MapSymbol(s, b[i*bps:(i+1)*bps])
	}
	return out
}

// MapSymbol modulates exactly BitsPerSymbol bits into one symbol.
func MapSymbol(s Scheme, b []byte) complex128 {
	switch s {
	case BPSK:
		if b[0] == 0 {
			return 1
		}
		return -1
	case QPSK:
		// TS 36.211: I from b0, Q from b1, each (1-2b)/sqrt(2)
		return complex((1-2*float64(b[0]))/math.Sqrt2, (1-2*float64(b[1]))/math.Sqrt2)
	case QAM16:
		return complex(axisLevel16(b[0], b[2]), axisLevel16(b[1], b[3]))
	case QAM64:
		return complex(axisLevel64(b[0], b[2], b[4]), axisLevel64(b[1], b[3], b[5]))
	}
	panic("modem: unknown scheme")
}

// Demap hard-slices symbols back to bits (minimum Euclidean distance).
func Demap(s Scheme, syms []complex128) []byte {
	bps := s.BitsPerSymbol()
	out := make([]byte, 0, len(syms)*bps)
	for _, sym := range syms {
		out = append(out, DemapSymbol(s, sym)...)
	}
	return out
}

// DemapSymbol hard-slices one symbol.
func DemapSymbol(s Scheme, sym complex128) []byte {
	switch s {
	case BPSK:
		if real(sym) >= 0 {
			return []byte{0}
		}
		return []byte{1}
	case QPSK:
		return []byte{signBit(real(sym)), signBit(imag(sym))}
	case QAM16:
		i0, i1 := slice16(real(sym))
		q0, q1 := slice16(imag(sym))
		return []byte{i0, q0, i1, q1}
	case QAM64:
		i0, i1, i2 := slice64(real(sym))
		q0, q1, q2 := slice64(imag(sym))
		return []byte{i0, q0, i1, q1, i2, q2}
	}
	panic("modem: unknown scheme")
}

func signBit(v float64) byte {
	if v < 0 {
		return 1
	}
	return 0
}

func slice16(v float64) (b0, b1 byte) {
	b0 = signBit(v)
	if math.Abs(v) > 2/math.Sqrt(10) {
		b1 = 1
	}
	return b0, b1
}

func slice64(v float64) (b0, b1, b2 byte) {
	b0 = signBit(v)
	a := math.Abs(v) * math.Sqrt(42)
	// Axis magnitudes: b1b2 -> 01:1, 00:3, 10:5, 11:7; thresholds 2,4,6.
	switch {
	case a < 2:
		b1, b2 = 0, 1
	case a < 4:
		b1, b2 = 0, 0
	case a < 6:
		b1, b2 = 1, 0
	default:
		b1, b2 = 1, 1
	}
	return b0, b1, b2
}

// DemapSoft produces per-bit LLRs (positive = bit 0 likely) using the
// max-log approximation with the given noise variance.
//
// Every scheme maps its I and Q bits independently (BPSK's single Q level is
// 0), so a point's squared distance is dI² + dQ². Rounded addition is
// monotone, so the nearest point with a given bit value is, to the last bit,
// the nearest level with that bit value on the bit's own axis plus the
// nearest level on the other axis. The demapper computes each per-axis
// squared distance once per symbol instead of every point distance per bit.
func DemapSoft(s Scheme, syms []complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	bps := s.BitsPerSymbol()
	ai, aq := &demapAxes[s][0], &demapAxes[s][1]
	// Symbol bits alternate I, Q (BPSK has only I), so I bit j is bit
	// j*iStride and Q bit j is bit 2j+1.
	iStride := bps / ai.bits
	out := make([]float64, len(syms)*bps)
	var i0, i1, q0, q1 [3]float64
	for n, y := range syms {
		o := out[n*bps : (n+1)*bps]
		allI := ai.nearest(real(y), &i0, &i1)
		allQ := aq.nearest(imag(y), &q0, &q1)
		for j := 0; j < ai.bits; j++ {
			o[iStride*j] = ((i1[j] + allQ) - (i0[j] + allQ)) / noiseVar
		}
		for j := 0; j < aq.bits; j++ {
			o[2*j+1] = ((allI + q1[j]) - (allI + q0[j])) / noiseVar
		}
	}
	return out
}

// demapAxis is one axis of a constellation: its levels, indexed by the axis
// bits with the first (most significant) axis bit first.
type demapAxis struct {
	levels []float64
	bits   int
}

// nearest returns the smallest squared distance from v to any level, and
// stores in min0[j] and min1[j] the smallest over the levels whose axis bit
// j is 0 and 1. A NaN v leaves every minimum at +Inf, as a search that
// takes only strictly smaller distances would; otherwise no distance is NaN
// or -0, so the builtin min picks the same float64 that search would.
func (a *demapAxis) nearest(v float64, min0, min1 *[3]float64) float64 {
	all := math.Inf(1)
	if math.IsNaN(v) {
		for j := 0; j < a.bits; j++ {
			min0[j], min1[j] = all, all
		}
		return all
	}
	if a.bits == 1 { // two levels: each bit value has one
		d0, d1 := v-a.levels[0], v-a.levels[1]
		min0[0], min1[0] = d0*d0, d1*d1
		return min(min0[0], min1[0])
	}
	var d2 [8]float64
	for l, lv := range a.levels {
		d := v - lv
		d2[l] = d * d
		all = min(all, d2[l])
	}
	for j := 0; j < a.bits; j++ {
		bit := 1 << (a.bits - 1 - j)
		m0, m1 := math.Inf(1), math.Inf(1)
		for l := range a.levels {
			if l&bit == 0 {
				m0 = min(m0, d2[l])
			} else {
				m1 = min(m1, d2[l])
			}
		}
		min0[j], min1[j] = m0, m1
	}
	return all
}

// demapAxes holds each scheme's I and Q axes.
var demapAxes = [...][2]demapAxis{
	BPSK:  newDemapAxes(BPSK),
	QPSK:  newDemapAxes(QPSK),
	QAM16: newDemapAxes(QAM16),
	QAM64: newDemapAxes(QAM64),
}

// newDemapAxes reads the I and Q axis levels off MapSymbol, so the demapper
// measures distances to exactly the points the mapper produces.
func newDemapAxes(s Scheme) [2]demapAxis {
	if s == BPSK {
		p0, p1 := MapSymbol(s, []byte{0}), MapSymbol(s, []byte{1})
		return [2]demapAxis{
			{levels: []float64{real(p0), real(p1)}, bits: 1},
			{levels: []float64{imag(p0)}},
		}
	}
	bps := s.BitsPerSymbol()
	m := bps / 2
	ax := [2]demapAxis{
		{levels: make([]float64, 1<<m), bits: m},
		{levels: make([]float64, 1<<m), bits: m},
	}
	b := make([]byte, bps)
	for l := range ax[0].levels {
		for j := 0; j < m; j++ {
			b[2*j] = byte(l >> (m - 1 - j) & 1)
			b[2*j+1] = b[2*j]
		}
		p := MapSymbol(s, b)
		ax[0].levels[l], ax[1].levels[l] = real(p), imag(p)
	}
	return ax
}

// EVM returns the root-mean-square error-vector magnitude (as a fraction of
// the RMS reference amplitude) between received and reference symbols.
func EVM(received, reference []complex128) float64 {
	if len(received) != len(reference) || len(received) == 0 {
		panic("modem: EVM needs equal non-empty slices")
	}
	var errP, refP float64
	for i := range received {
		d := received[i] - reference[i]
		errP += real(d)*real(d) + imag(d)*imag(d)
		refP += real(reference[i])*real(reference[i]) + imag(reference[i])*imag(reference[i])
	}
	if refP == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(errP / refP)
}

// SNRFromEVM converts an EVM fraction to the equivalent linear SNR.
func SNRFromEVM(evm float64) float64 {
	if evm <= 0 {
		return math.Inf(1)
	}
	return 1 / (evm * evm)
}
