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
func DemapSoft(s Scheme, syms []complex128, noiseVar float64) []float64 {
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
