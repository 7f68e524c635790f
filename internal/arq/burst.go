package arq

import (
	"fmt"

	"lscatter/internal/rng"
)

// GEConfig parameterizes a Gilbert-Elliott two-state burst-loss channel.
// All fields are probabilities in [0,1].
type GEConfig struct {
	// PGoodToBad is the per-slot probability of entering the bad (burst)
	// state from the good state.
	PGoodToBad float64
	// PBadToGood is the per-slot probability of leaving the bad state; the
	// mean burst length is 1/PBadToGood slots.
	PBadToGood float64
	// DeliverGood is the per-frame delivery probability in the good state.
	DeliverGood float64
	// DeliverBad is the per-frame delivery probability during a burst.
	DeliverBad float64
}

// GilbertElliott is a two-state Markov loss process modeling bursty frame
// loss — the link-layer shadow of a co-channel interference burst, which
// wipes out consecutive backscatter frames rather than independent ones.
// Selective-repeat ARQ behaves very differently under correlated loss (the
// whole window times out at once), which is what the resilience sweep
// measures.
//
// Next draws one slot: it first advances the channel state, then returns
// whether a frame sent in this slot is delivered, so it plugs directly into
// Run's dataOK/ackOK hooks.
type GilbertElliott struct {
	cfg GEConfig
	r   *rng.Source
	bad bool

	// Slots counts Next calls; BadSlots how many landed in the burst state.
	Slots    int
	BadSlots int
}

// NewGilbertElliott builds the channel in the good state, drawing from r.
func NewGilbertElliott(r *rng.Source, cfg GEConfig) *GilbertElliott {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodToBad", cfg.PGoodToBad},
		{"PBadToGood", cfg.PBadToGood},
		{"DeliverGood", cfg.DeliverGood},
		{"DeliverBad", cfg.DeliverBad},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			panic(fmt.Sprintf("arq: GilbertElliott %s = %v out of [0,1]", p.name, p.v))
		}
	}
	return &GilbertElliott{cfg: cfg, r: r}
}

// Next advances one slot and reports whether a frame sent now is delivered.
func (g *GilbertElliott) Next() bool {
	if g.bad {
		if g.r.Float64() < g.cfg.PBadToGood {
			g.bad = false
		}
	} else if g.r.Float64() < g.cfg.PGoodToBad {
		g.bad = true
	}
	g.Slots++
	p := g.cfg.DeliverGood
	if g.bad {
		g.BadSlots++
		p = g.cfg.DeliverBad
	}
	return g.r.Float64() < p
}
