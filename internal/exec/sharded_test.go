package exec

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lscatter/internal/store"
)

// newTestWorker spins up an in-process lscatter-worker: the real
// WorkerHandler over a checkpointed Local sharing dir with its siblings —
// the same stack cmd/lscatter-worker assembles.
func newTestWorker(t *testing.T, dir string) (*httptest.Server, *WorkerHandler) {
	t.Helper()
	st, err := store.Open(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWorkerHandler(&Checkpointed{Inner: &Local{Run: pureRun}, Store: st, Resume: true})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h
}

// TestShardOfStable pins the ID → home-worker map. Every participant in a
// sharded sweep must agree on it, so a change here silently rebalances
// every existing deployment.
func TestShardOfStable(t *testing.T) {
	for _, c := range []struct {
		id   string
		n    int
		want int
	}{
		{"F23", 3, 1},
		{"C1", 3, 0},
		{"A3", 3, 0},
	} {
		if got := shardOf(c.id, c.n); got != c.want {
			t.Errorf("shardOf(%q, %d) = %d, want %d", c.id, c.n, got, c.want)
		}
	}
}

// TestShardedMatchesLocal is the refactor's conformance gate at the
// executor level: two HTTP workers sharing one artifact directory must
// produce byte-for-byte the artifacts a Local executor produces, with zero
// duplicate computes across the fleet. Run under -race by `make race`.
func TestShardedMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(23)
	s1, h1 := newTestWorker(t, dir)
	s2, h2 := newTestWorker(t, dir)

	sharded := NewSharded([]string{s1.URL, s2.URL}, nil)
	got, err := All(context.Background(), sharded, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := All(context.Background(), &Local{Run: pureRun}, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("job %s: sharded %q vs local %q", jobs[i].ID, got[i], want[i])
		}
	}

	st1, st2 := h1.Stats(), h2.Stats()
	if total := st1.Computed + st2.Computed; total != uint64(len(jobs)) {
		t.Fatalf("computed %d+%d = %d, want exactly %d (duplicates or losses)",
			st1.Computed, st2.Computed, total, len(jobs))
	}
	if st1.Restored+st2.Restored != 0 {
		t.Fatalf("cold sweep restored artifacts: %+v %+v", st1, st2)
	}
	if st1.Computed == 0 || st2.Computed == 0 {
		t.Fatalf("sharding sent everything to one worker: %+v %+v", st1, st2)
	}
	if sharded.Redispatched() != 0 {
		t.Fatalf("healthy fleet redispatched %d jobs", sharded.Redispatched())
	}
}

// TestShardedRedispatchOnWorkerDeath kills one worker before the sweep: its
// shard must re-dispatch to the survivor and the results must still match
// Local byte for byte.
func TestShardedRedispatchOnWorkerDeath(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(16)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first request on
	live, h := newTestWorker(t, dir)

	sharded := NewSharded([]string{dead.URL, live.URL}, nil)
	got, err := All(context.Background(), sharded, jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := All(context.Background(), &Local{Run: pureRun}, jobs, 1)
	for i := range jobs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("job %s differs after re-dispatch", jobs[i].ID)
		}
	}
	if h.Stats().Computed != uint64(len(jobs)) {
		t.Fatalf("survivor computed %d of %d", h.Stats().Computed, len(jobs))
	}
	if sharded.Redispatched() == 0 {
		t.Fatal("no re-dispatch recorded despite a dead worker")
	}
}

// TestShardedPropagatesJobErrors pins that a deterministic worker-side
// failure comes back as an error, not a retry storm.
func TestShardedPropagatesJobErrors(t *testing.T) {
	srv := httptest.NewServer(NewWorkerHandler(&Local{Run: func(ctx context.Context, job Job) ([]byte, error) {
		return nil, fmt.Errorf("deterministic failure for %s", job.ID)
	}}))
	defer srv.Close()
	sharded := NewSharded([]string{srv.URL}, nil)
	if _, err := sharded.Submit(context.Background(), Job{ID: "J00", Seed: 1}); err == nil {
		t.Fatal("worker error vanished")
	}
	if sharded.Redispatched() != 0 {
		t.Fatal("job error caused a re-dispatch")
	}
}

// TestWorkerHandlerRejectsBadJobs covers the protocol's reject path.
func TestWorkerHandlerRejectsBadJobs(t *testing.T) {
	srv := httptest.NewServer(NewWorkerHandler(&Local{Run: pureRun}))
	defer srv.Close()
	for _, body := range []string{``, `{`, `{"seed":1}`, `{"id":"x","seed":1,"extra":true}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}
