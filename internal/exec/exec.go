// Package exec is the shared execution layer under the paper-artifact
// sweeps: lscatter-bench and the lscatter-worker shards submit jobs through
// one Executor interface and persist results through the content-addressed
// store (internal/store) that lscatter-served also writes directly.
//
// An Executor turns a Job — a stable identifier plus a seed — into artifact
// bytes. Three implementations compose:
//
//   - Local runs the job's RunFunc in-process. It is the deterministic
//     leaf every other executor bottoms out in.
//   - Checkpointed wraps any executor with a durable store: completed
//     artifacts are recorded, and (in resume mode) artifacts already in the
//     store are returned without recompute, so a killed sweep restarted
//     over the same directory recomputes only what is missing.
//   - Sharded fans jobs out to stdlib HTTP worker processes
//     (cmd/lscatter-worker), hash-sharding job IDs so each worker computes
//     a disjoint subset, with re-dispatch to the surviving workers when one
//     dies mid-sweep.
//
// Each is the index-ordered bounded worker pool; All builds on it to run a
// batch of jobs and return artifacts in job order. Determinism is the
// package's contract: jobs carry their own seeds, RunFuncs are pure in
// (job, seed), and no executor or pool shape may change a single output
// byte — which is exactly the property that makes artifacts safe to
// checkpoint, share and shard. See docs/DISTRIBUTED.md.
package exec

import (
	"context"
	"runtime"
	"sync"
)

// Job is one unit of work: a stable artifact identifier plus the seed the
// runner must use verbatim. The pair fully determines the artifact bytes —
// every runner behind an Executor is pure — so a Job can be executed
// anywhere (in-process, another process, another machine) with identical
// results.
type Job struct {
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
}

// RunFunc computes one job's artifact bytes. It must be deterministic in
// the job (same ID and seed → same bytes) and honor ctx cancellation.
type RunFunc func(ctx context.Context, job Job) ([]byte, error)

// Executor turns a submitted job into its artifact bytes. Implementations
// must be safe for concurrent Submit calls.
type Executor interface {
	Submit(ctx context.Context, job Job) ([]byte, error)
}

// Local is the leaf executor: it runs the job's function in-process.
type Local struct {
	// Run computes an artifact; required.
	Run RunFunc
}

// Submit executes the job unless ctx is already cancelled.
func (l *Local) Submit(ctx context.Context, job Job) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Run(ctx, job)
}

// workerCtxKey carries the pool slot All assigned to a Submit call, for
// metrics attribution only — it never influences artifact bytes.
type workerCtxKey struct{}

// WithWorker tags ctx with a pool slot index.
func WithWorker(ctx context.Context, worker int) context.Context {
	return context.WithValue(ctx, workerCtxKey{}, worker)
}

// Worker returns the pool slot tagged by WithWorker, or 0.
func Worker(ctx context.Context) int {
	if w, ok := ctx.Value(workerCtxKey{}).(int); ok {
		return w
	}
	return 0
}

// Each calls fn(ctx, i) for every i in [0, n) on a pool of workers,
// dispatching in index order. workers <= 0 selects NumCPU; the pool is
// never larger than n. Each call's ctx is tagged with its pool slot
// (WithWorker). Each stops dispatching on the first error or when ctx is
// cancelled, waits for the calls already running, and returns that first
// error, else ctx.Err(). It is the one index-ordered pool under All, the
// deployment runner and the link-sweep CLI.
func Each(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}

	feedCh := make(chan int)
	stop := make(chan struct{})
	var (
		stopOnce sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wctx context.Context) {
			defer wg.Done()
			for i := range feedCh {
				if err := fn(wctx, i); err != nil {
					stopOnce.Do(func() {
						firstErr = err
						close(stop)
					})
				}
			}
		}(WithWorker(ctx, w))
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case feedCh <- i:
		case <-ctx.Done():
			break feed
		case <-stop:
			break feed
		}
	}
	close(feedCh)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// All submits every job through the executor on an Each pool and returns
// the artifacts in job order. workers <= 0 selects NumCPU. Determinism is
// unconditional: each job carries its own seed and executors share no
// mutable state that reaches the output, so the returned bytes are
// identical at any worker count.
//
// If ctx is cancelled, All stops dispatching, waits for in-flight jobs and
// returns the partial results (unrun jobs are nil) alongside ctx.Err(). If
// a Submit fails, All stops dispatching and returns the partial results
// with the first error; that job's slot is nil.
func All(ctx context.Context, ex Executor, jobs []Job, workers int) ([][]byte, error) {
	results := make([][]byte, len(jobs))
	err := Each(ctx, len(jobs), workers, func(ctx context.Context, i int) error {
		out, err := ex.Submit(ctx, jobs[i])
		if err != nil {
			return err
		}
		results[i] = out
		return nil
	})
	return results, err
}
