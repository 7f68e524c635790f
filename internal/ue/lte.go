// Package ue implements the receiver side of LScatter for a UE that is given
// its cell identity and frame timing: CP-based CFO estimation and tracking,
// direct-path LTE reception (CRS channel estimation, per-RE equalization,
// transport-block decoding), regeneration of the clean excitation waveform,
// and the backscatter demodulator of §3.3 — extraction of the
// frequency-shifted hybrid band, preamble-based modulation-offset search and
// backscatter-channel estimation, and parallel per-unit phase demodulation
// against the regenerated reference.
package ue

import (
	"math"
	"math/cmplx"
	"sort"

	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
)

// LTEResult reports one subframe of direct-path LTE reception.
type LTEResult struct {
	// OK is true when the transport-block CRC passed.
	OK bool
	// Payload is the decoded transport block (valid when OK).
	Payload []byte
	// EVM is the post-equalization data-RE error-vector magnitude,
	// measurable only against the re-encoded reference when OK.
	EVM float64
	// NoiseVar is the noise variance estimated from CRS residuals.
	NoiseVar float64
	// MIB is the decoded master information block (subframe 0 only).
	MIB *ltephy.MIB
	// Grid is the reconstructed clean resource grid (nil unless OK):
	// sync + CRS + PBCH + re-encoded PDSCH, control region zeroed.
	Grid *ltephy.Grid
	// RefSamples is the regenerated clean excitation waveform for the
	// subframe (nil unless OK), at the configured oversampling, unit scale.
	RefSamples []complex128
}

// LTEReceiver decodes the direct-path LTE downlink.
type LTEReceiver struct {
	Params ltephy.Params
	Scheme modem.Scheme
	codec  *enodeb.Codec
}

// NewLTEReceiver builds a receiver matched to the eNodeB configuration.
func NewLTEReceiver(p ltephy.Params, scheme modem.Scheme) *LTEReceiver {
	return &LTEReceiver{Params: p, Scheme: scheme, codec: enodeb.NewCodec(p, scheme)}
}

// estimateChannel performs CRS-based channel estimation: per CRS-bearing
// symbol, least-squares estimates at pilot positions linearly interpolated
// across subcarriers; data symbols use the nearest CRS symbol. Returns
// H[l][k] and the CRS-residual noise variance estimate.
func (rx *LTEReceiver) estimateChannel(g *ltephy.Grid, subframe int) ([][]complex128, float64) {
	k := g.K()
	crs := ltephy.CRSForSubframe(rx.Params, subframe)
	// Least-squares pilot estimates, grouped by OFDM symbol. CRS values have
	// unit magnitude, so H = Y * conj(ref).
	bySym := map[int]pilotSlice{}
	for _, rs := range crs {
		y := g.RE[rs.Symbol][rs.Subcarrier]
		bySym[rs.Symbol] = append(bySym[rs.Symbol], pilotEst{k: rs.Subcarrier, h: y * cmplx.Conj(rs.Value)})
	}
	// Linear interpolation across subcarriers per CRS symbol. The symbols
	// are processed in index order: map iteration order would randomize
	// both the float summation of the noise residual below and the
	// nearest-CRS tie-break, breaking the simulator's determinism contract
	// at marginal operating points.
	hBy := map[int][]complex128{}
	crsSyms := make([]int, 0, len(bySym))
	for l := range bySym {
		crsSyms = append(crsSyms, l)
	}
	sort.Ints(crsSyms)
	for _, l := range crsSyms {
		ps := bySym[l]
		sortPilots(ps)
		row := make([]complex128, k)
		for kk := 0; kk < k; kk++ {
			row[kk] = interpPilot(ps, kk)
		}
		hBy[l] = row
	}
	// Noise estimate from half-differences of adjacent pilots (the channel
	// is smooth across one pilot spacing, so the difference is mostly noise;
	// each estimate carries one noise sample, the half-difference has
	// variance noiseVar/2 per pilot pair).
	var resid float64
	var n int
	for _, l := range crsSyms {
		ps := bySym[l]
		for i := 0; i+1 < len(ps); i++ {
			d := (ps[i].h - ps[i+1].h) / 2
			resid += real(d)*real(d) + imag(d)*imag(d)
			n++
		}
	}
	noiseVar := 1e-12
	if n > 0 {
		noiseVar = 2 * resid / float64(n)
	}
	// Fill every symbol with the nearest CRS symbol's estimate.
	h := make([][]complex128, ltephy.SymbolsPerSubframe)
	for l := 0; l < ltephy.SymbolsPerSubframe; l++ {
		best, bestDist := -1, 1<<30
		for _, cl := range crsSyms {
			d := l - cl
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				best, bestDist = cl, d
			}
		}
		h[l] = hBy[best]
	}
	return h, noiseVar
}

// pilotEst is one least-squares channel estimate at a CRS position.
type pilotEst struct {
	k int
	h complex128
}

type pilotSlice = []pilotEst

func sortPilots(ps pilotSlice) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].k < ps[j-1].k; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func interpPilot(ps pilotSlice, k int) complex128 {
	if len(ps) == 0 {
		return 1
	}
	if k <= ps[0].k {
		return ps[0].h
	}
	if k >= ps[len(ps)-1].k {
		return ps[len(ps)-1].h
	}
	for i := 0; i+1 < len(ps); i++ {
		if k >= ps[i].k && k <= ps[i+1].k {
			span := float64(ps[i+1].k - ps[i].k)
			frac := float64(k-ps[i].k) / span
			return ps[i].h*complex(1-frac, 0) + ps[i+1].h*complex(frac, 0)
		}
	}
	return ps[len(ps)-1].h
}

// dataREsEq equalizes the given resource elements with the channel estimate.
func dataREsEq(res [][2]int, g *ltephy.Grid, h [][]complex128) []complex128 {
	out := make([]complex128, len(res))
	for i, re := range res {
		l, k := re[0], re[1]
		hv := h[l][k]
		if hv == 0 {
			hv = 1e-12
		}
		out[i] = g.RE[l][k] / hv
	}
	return out
}

// ReceiveSubframe decodes one subframe of received samples (aligned to the
// subframe boundary) and, on success, regenerates the clean excitation.
func (rx *LTEReceiver) ReceiveSubframe(samples []complex128, subframe int) (*LTEResult, error) {
	g, err := ltephy.Demodulate(rx.Params, samples, subframe)
	if err != nil {
		return nil, err
	}
	h, noiseVar := rx.estimateChannel(g, subframe)

	// Rebuild the reference grid structure to locate PDSCH REs (the PBCH
	// region of subframe 0 is reserved now and filled after MIB decode).
	ref := ltephy.NewGrid(rx.Params, subframe)
	ref.MapSyncAndRef()
	var pbchREs [][2]int
	if subframe == 0 {
		pbchREs = ltephy.PBCHREs(rx.Params)
		ref.MapPBCH(make([]complex128, len(pbchREs)))
	}
	ref.MapControl(make([]complex128, 2*ref.K()))
	dataREs := ref.DataREs()

	// Equalize the PDSCH REs.
	eq := make([]complex128, len(dataREs))
	for i, re := range dataREs {
		l, k := re[0], re[1]
		hv := h[l][k]
		if hv == 0 {
			hv = 1e-12
		}
		eq[i] = g.RE[l][k] / hv
	}
	// Scale noise variance to the equalized domain using mean |H|^2.
	var hp float64
	for _, re := range dataREs {
		hv := h[re[0]][re[1]]
		hp += real(hv)*real(hv) + imag(hv)*imag(hv)
	}
	hp /= float64(len(dataREs))
	eqNoise := noiseVar / math.Max(hp, 1e-18)

	payload, ok := rx.codec.Decode(subframe, eq, eqNoise)
	res := &LTEResult{OK: ok, Payload: payload, NoiseVar: eqNoise}
	if !ok {
		return res, nil
	}
	// Subframe 0 also carries the PBCH: decode the MIB and regenerate the
	// broadcast REs so the excitation reference covers them too.
	if subframe == 0 {
		eqPBCH := make([]complex128, len(pbchREs))
		for i, re := range dataREsEq(pbchREs, g, h) {
			eqPBCH[i] = re
		}
		mib, mibOK := ltephy.DecodePBCH(rx.Params, eqPBCH, eqNoise)
		if !mibOK {
			res.OK = false
			return res, nil
		}
		res.MIB = &mib
		ref.MapPBCH(ltephy.EncodePBCH(rx.Params, mib))
	}
	// Regenerate clean excitation: re-encode and re-map.
	syms, err := rx.codec.Encode(subframe, payload, len(dataREs))
	if err != nil {
		return nil, err
	}
	ref.MapData(syms)
	res.Grid = ref
	// The regenerated reference is identical every time the same downlink
	// subframe is decoded, so route it through the shared waveform cache:
	// replaying a seeded stream (ablations, sweeps, repeated runs) turns
	// the regeneration IFFTs into lookups.
	res.RefSamples = ltephy.SharedCache.Modulate(ref)
	res.EVM = modem.EVM(eq, syms)
	return res, nil
}
