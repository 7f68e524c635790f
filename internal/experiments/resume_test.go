package experiments

import (
	"context"
	"testing"

	"lscatter/internal/exec"
	"lscatter/internal/store"
)

// TestRunAllOnCheckpointResume pins the registry-level resume contract the
// refactor rides on: a sweep checkpointed into a durable store and then
// resumed from a fresh store open restores every artifact (zero recomputes)
// and renders byte-identically — Render output is the repository's
// determinism criterion, so equality here is equality of `-all` stdout.
func TestRunAllOnCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	const seed = 1
	dir := t.TempDir()
	st, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	cold := &exec.Checkpointed{Inner: &exec.Local{Run: ExecRunner()}, Store: st}
	first, err := RunAllOn(context.Background(), cold, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(IDs()))
	if computed, restored := cold.Stats(); computed != n || restored != 0 {
		t.Fatalf("cold sweep: computed %d restored %d, want %d and 0", computed, restored, n)
	}

	// The restart: fresh store open over the same directory, resume on.
	st2, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &exec.Checkpointed{Inner: &exec.Local{Run: ExecRunner()}, Store: st2, Resume: true}
	second, err := RunAllOn(context.Background(), resumed, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if computed, restored := resumed.Stats(); computed != 0 || restored != n {
		t.Fatalf("resumed sweep: computed %d restored %d, want 0 and %d", computed, restored, n)
	}
	if len(first) != len(second) {
		t.Fatalf("result counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Render() != second[i].Render() {
			t.Fatalf("artifact %s renders differently after resume", first[i].ID)
		}
	}
}
