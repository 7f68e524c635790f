package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// The tests in this file are the job manager's race-detector coverage (make
// ci runs the suite under -race): concurrent submissions, cancellation
// mid-run, and graceful shutdown under load all exercise the
// Submit/worker/Cancel/Shutdown lock interplay.

func normalized(t testing.TB, tags int, seed uint64) *Spec {
	t.Helper()
	s := &Spec{Tags: tags, Seed: seed}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// newManager builds a manager for tests, failing the test on setup errors
// and routing operational logs through the test log.
func newManager(t testing.TB, opts Options) *Manager {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerConcurrentSubmissions(t *testing.T) {
	m := newManager(t, Options{Workers: 4, QueueDepth: 256, JobWorkers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	const clients, perClient = 8, 6
	var wg sync.WaitGroup
	jobs := make(chan *Job, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Half the clients share seeds so cache hits and duplicate
				// in-flight computations both happen under contention.
				j, err := m.Submit(normalized(t, 3, uint64(c%4*perClient+i)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobs <- j
			}
		}(c)
	}
	wg.Wait()
	close(jobs)

	for j := range jobs {
		<-j.Finished()
		st := j.Status()
		if st.State != Done {
			t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	ctr := m.Counters()
	if ctr.Submitted != clients*perClient {
		t.Fatalf("submitted %d, want %d", ctr.Submitted, clients*perClient)
	}
	// Every submission resolves exactly one way: memory hit, disk hit,
	// coalesced join, or a new run — and with nothing canceled or failed,
	// every run computes.
	if ctr.CacheHits+ctr.DiskHits+ctr.Coalesced+ctr.Runs != ctr.Submitted {
		t.Fatalf("ledger unbalanced: %+v", ctr)
	}
	if ctr.Computed != ctr.Runs {
		t.Fatalf("runs %d != computed %d with nothing canceled: %+v", ctr.Runs, ctr.Computed, ctr)
	}
	if ctr.DiskHits != 0 {
		t.Fatalf("disk hits %d without a configured artifact dir", ctr.DiskHits)
	}
	// Concurrent identical submissions coalesce instead of racing past the
	// cache: 24 distinct keys were submitted twice each, so at most 24
	// computations ran.
	if ctr.Computed > 24 {
		t.Fatalf("computed %d runs for 24 distinct keys", ctr.Computed)
	}
	// With everything settled, a repeat submission must be a pure hit.
	j, err := m.Submit(normalized(t, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); !st.CacheHit || st.State != Done {
		t.Fatalf("post-settle duplicate not served from the store: %+v", st)
	}
	if got := m.Counters(); got.Computed != ctr.Computed {
		t.Fatalf("post-settle duplicate recomputed: %d -> %d", ctr.Computed, got.Computed)
	}
}

func TestManagerCancelMidRun(t *testing.T) {
	m := newManager(t, Options{Workers: 2, QueueDepth: 64, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	// A fleet big enough to still be running when the cancels land, plus
	// concurrent status readers to shake the locks.
	j, err := m.Submit(normalized(t, 20000, 77))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				j.Status()
				m.Jobs()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Cancel(j.Status().ID)
		}()
	}
	wg.Wait()
	<-j.Finished()
	st := j.Status()
	if st.State != Canceled && st.State != Done {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	ctr := m.Counters()
	if st.State == Canceled && ctr.Canceled != 1 {
		t.Fatalf("canceled counter = %d, want exactly 1", ctr.Canceled)
	}
}

func TestManagerGracefulShutdownUnderLoad(t *testing.T) {
	m := newManager(t, Options{Workers: 4, QueueDepth: 256, JobWorkers: 2})

	var jobs []*Job
	for i := 0; i < 12; i++ {
		j, err := m.Submit(normalized(t, 30, uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	// Submissions racing the shutdown must either enqueue or get
	// ErrShuttingDown — never panic, never hang.
	var wg sync.WaitGroup
	racing := make(chan *Job, 64)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				j, err := m.Submit(normalized(t, 10, uint64(2000+c*16+i)))
				switch err {
				case nil:
					racing <- j
				case ErrShuttingDown, ErrQueueFull:
				default:
					t.Errorf("submit during shutdown: %v", err)
				}
			}
		}(c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(racing)

	// Graceful: every job accepted before the queue closed ran to a
	// terminal state; none is stuck queued or running.
	for j := range racing {
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		select {
		case <-j.Finished():
		default:
			t.Fatalf("job %s not finished after shutdown (state %s)", j.Status().ID, j.Status().State)
		}
		if st := j.Status(); st.State == Queued || st.State == Running {
			t.Fatalf("job %s left %s after shutdown", st.ID, st.State)
		}
	}

	if _, err := m.Submit(normalized(t, 1, 1)); err != ErrShuttingDown {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
	// Idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestManagerQueueFull(t *testing.T) {
	m := newManager(t, Options{Workers: 1, QueueDepth: 1, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	// Saturate: one running + one queued; the rest must be rejected, not
	// block. Distinct seeds defeat the cache.
	var accepted int
	for i := 0; i < 20; i++ {
		_, err := m.Submit(normalized(t, 300, uint64(3000+i)))
		switch err {
		case nil:
			accepted++
		case ErrQueueFull:
		default:
			t.Fatalf("submit: %v", err)
		}
	}
	if accepted >= 20 {
		t.Fatalf("queue depth 1 accepted all %d jobs", accepted)
	}
}

// TestManagerJobTableBounded pins that a long-lived manager forgets the
// oldest finished jobs: beyond maxFinishedJobs cache-hit submissions the
// table stops growing, the newest job stays fetchable and the first one is
// gone.
func TestManagerJobTableBounded(t *testing.T) {
	m := newManager(t, Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	spec := normalized(t, 2, 5)
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Finished()
	var last *Job
	for i := 0; i < maxFinishedJobs+10; i++ {
		if last, err = m.Submit(spec); err != nil {
			t.Fatal(err)
		}
		<-last.Finished()
	}
	if got := m.Counters().CacheHits; got != maxFinishedJobs+10 {
		t.Fatalf("cache hits %d, want %d", got, maxFinishedJobs+10)
	}
	if n := len(m.Jobs()); n != maxFinishedJobs {
		t.Fatalf("job table holds %d jobs, want %d", n, maxFinishedJobs)
	}
	if j, ok := m.Get(last.Status().ID); !ok || j != last {
		t.Fatal("newest job not fetchable")
	}
	if _, ok := m.Get(first.Status().ID); ok {
		t.Fatal("oldest finished job still in the table")
	}
}
