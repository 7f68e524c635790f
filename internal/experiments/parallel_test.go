package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestDeriveSeedDecorrelatesArtifacts(t *testing.T) {
	seen := map[uint64]string{}
	for _, id := range IDs() {
		s := DeriveSeed(1, id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("artifacts %s and %s derive the same seed %d", prev, id, s)
		}
		seen[s] = id
	}
	if DeriveSeed(1, "F23") == DeriveSeed(2, "F23") {
		t.Fatal("master seed does not influence the derived seed")
	}
	if DeriveSeed(7, "F23") != DeriveSeed(7, "F23") {
		t.Fatal("derivation is not deterministic")
	}
	// Literal FNV-1a-64 values: a change here re-seeds every artifact and
	// moves every -all table and checkpointed artifact address.
	for _, c := range []struct {
		id   string
		want uint64
	}{
		{"F23", 17418895425283931111},
		{"C1", 652880142081145400},
	} {
		if got := DeriveSeed(1, c.id); got != c.want {
			t.Errorf("DeriveSeed(1, %q) = %d, want %d", c.id, got, c.want)
		}
	}
}

// TestRunAllMatchesSequential is the harness determinism guarantee: a
// concurrent pool must reproduce the sequential path byte for byte, for
// every artifact.
func TestRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every artifact twice")
	}
	seq := All(5)
	par, err := RunAll(context.Background(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("result counts: sequential %d, parallel %d, want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		s, p := seq[i], par[i]
		if s.ID != id || p.ID != id {
			t.Fatalf("position %d: IDs %s / %s, want %s", i, s.ID, p.ID, id)
		}
		if !reflect.DeepEqual(s.Header, p.Header) {
			t.Errorf("%s: headers differ", id)
		}
		if !reflect.DeepEqual(s.Rows, p.Rows) {
			t.Errorf("%s: rows differ between sequential and 8-worker runs", id)
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ", id)
		}
	}
}

func TestRunAllAttachesMetrics(t *testing.T) {
	results, err := RunAll(context.Background(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		m := res.Metrics
		if m == nil {
			t.Fatalf("%s: no metrics attached", res.ID)
		}
		if m.ID != res.ID || m.Rows != len(res.Rows) {
			t.Fatalf("%s: metrics mismatch: %+v", res.ID, m)
		}
		if m.Seed != DeriveSeed(3, res.ID) {
			t.Fatalf("%s: ran with seed %d, want derived seed", res.ID, m.Seed)
		}
		if m.WallSeconds < 0 {
			t.Fatalf("%s: negative wall time", res.ID)
		}
	}
}

func TestRunAllCancelledContextStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAll(ctx, 1, 2)
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	ran := 0
	for _, r := range results {
		if r != nil {
			ran++
		}
	}
	if ran != 0 {
		t.Fatalf("%d artifacts ran despite pre-cancelled context", ran)
	}
}

func TestRunOneUsesSeedVerbatim(t *testing.T) {
	res, ok := RunOne("T1", 9)
	if !ok {
		t.Fatal("T1 not found")
	}
	if res.Metrics == nil || res.Metrics.Seed != 9 {
		t.Fatalf("RunOne metrics = %+v, want verbatim seed 9", res.Metrics)
	}
	if _, ok := RunOne("nope", 1); ok {
		t.Fatal("unknown artifact reported success")
	}
}

func TestBuildReportRoundTripsJSON(t *testing.T) {
	results, err := RunAll(context.Background(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(2, 2, 1500*time.Millisecond, results)
	if rep.Seed != 2 || rep.Workers != 2 || rep.WallSeconds != 1.5 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Artifacts) != len(IDs()) {
		t.Fatalf("report has %d artifacts, want %d", len(rep.Artifacts), len(IDs()))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Artifacts) != len(rep.Artifacts) || back.Artifacts[0].ID != IDs()[0] {
		t.Fatalf("round trip lost artifacts: %+v", back.Artifacts[:1])
	}
	if back.Cache.Hits+back.Cache.Misses == 0 {
		t.Fatal("report records no waveform-cache traffic")
	}
}
