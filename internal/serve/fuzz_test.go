package serve

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSpecDecode feeds arbitrary bytes through the deployment-spec
// decode/normalize path. The server exposes this surface to untrusted
// clients, so the contract is reject-don't-crash: hostile payloads must
// come back as errors, never as panics — and any payload that survives
// Normalize must normalize to a stable canonical form (same hash on a
// second pass), or the artifact cache would fragment or alias.
func FuzzSpecDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"venue":"home"}`,
		`{"venue":"mall","tags":6,"seed":12345}`,
		`{"venue":"outdoor","bandwidth":"20MHz","tags":100,"traffic":"wifi","hour":18.5}`,
		`{"mode":"exact","bandwidth":"1.4MHz","tags":2,"subframes":2,"impairment":"mild","lane":"fxp"}`,
		`{"mode":"exact","bandwidth":"1.4MHz","tags":2,"subframes":2,"impairment":"mild","lane":"float"}`,
		`{"tx_power_dbm":0,"tag_loss_db":0,"hour":0,"seed":0}`,
		`{"min_tag_to_ue_ft":3,"max_tag_to_ue_ft":120}`,
		`{"tags":-1}`,
		`{"tags":1e9}`,
		`{"hour":1e308}`,
		`{"venue":"home","venue":"mall"}`,
		`{"unknown_field":true}`,
		`{"venue":"home"} trailing`,
		`[{"venue":"home"}]`,
		`{"seed":18446744073709551615}`,
		`{"tags":9007199254740993}`,
		`{"min_tag_to_ue_ft":null}`,
		`{"venue":"HOME","mode":"Semi-Analytic"}`,
		strings.Repeat(`{"venue":`, 100),
		`{"venue":"` + strings.Repeat("a", 4096) + `"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected, as designed
		}
		n, err := spec.Normalize()
		if err != nil {
			return
		}
		// Accepted specs must be stable: normalizing the normalized form
		// changes nothing, and the content hash is reproducible.
		c1 := n.Canonical()
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec failed re-normalize: %v\nspec: %s", err, c1)
		}
		if c2 := again.Canonical(); !bytes.Equal(c1, c2) {
			t.Fatalf("normalize not idempotent:\n%s\nvs\n%s", c1, c2)
		}
		if n.Hash() != again.Hash() {
			t.Fatalf("hash not reproducible for %s", c1)
		}
		// The experiments layer must agree that a normalized spec is
		// runnable: a spec the API would accept but the runner rejects
		// would surface as a 500 instead of a 400.
		cfg := n.Deployment()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted spec fails deployment validation: %v\nspec: %s", err, c1)
		}
	})
}
