package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"lscatter/internal/exec"
)

// This file is the bridge between the experiment registry and the shared
// execution layer (internal/exec): artifacts become exec.Jobs, runners
// become an exec.RunFunc, and Results round-trip through artifact bytes so
// any executor — in-process, checkpointed to a durable store, or sharded
// across lscatter-worker processes — regenerates the registry with
// byte-identical output. See docs/DISTRIBUTED.md.

// EncodeResult serializes a Result to artifact bytes. The encoding is JSON:
// every field that reaches Render is a string slice, so the round-trip
// through DecodeResult is exact and rendered tables are byte-identical to
// the in-process path no matter which executor carried the bytes.
func EncodeResult(res *Result) ([]byte, error) {
	return json.Marshal(res)
}

// DecodeResult parses artifact bytes produced by EncodeResult.
func DecodeResult(data []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("experiments: decode artifact: %w", err)
	}
	return &res, nil
}

// ExecJobs lists the registry as executor jobs in canonical ID order, each
// carrying its derived per-artifact seed — the same DeriveSeed contract
// RunAll has always had, so jobs are order- and worker-independent.
func ExecJobs(seed uint64) []exec.Job {
	ids := IDs()
	jobs := make([]exec.Job, len(ids))
	for i, id := range ids {
		jobs[i] = exec.Job{ID: id, Seed: DeriveSeed(seed, id)}
	}
	return jobs
}

// ExecRunner adapts the registry to an exec.RunFunc: look up the artifact,
// run it instrumented with the job's seed verbatim, and encode the Result.
// This is the one compute path every executor shares — lscatter-bench's
// local pool, the checkpointed resume path and the lscatter-worker shards
// all bottom out here.
func ExecRunner() exec.RunFunc {
	return func(ctx context.Context, job exec.Job) ([]byte, error) {
		r, ok := registry[job.ID]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown artifact %q", job.ID)
		}
		res := runInstrumented(job.ID, r, job.Seed, exec.Worker(ctx))
		return EncodeResult(res)
	}
}

// RunAllOn regenerates every registered artifact through an arbitrary
// executor and returns the results in ID order. It is the generalized
// RunAll: the executor decides where and whether each job computes (local
// pool, checkpoint restore, HTTP shard), while seed derivation, ordering
// and decoding stay here — which is why the rendered output is
// byte-identical across executors.
//
// On cancellation the partial results are returned (unrun artifacts nil)
// alongside ctx.Err(); on an executor failure the first error is returned
// with whatever completed.
func RunAllOn(ctx context.Context, ex exec.Executor, seed uint64, workers int) ([]*Result, error) {
	jobs := ExecJobs(seed)
	blobs, runErr := exec.All(ctx, ex, jobs, workers)
	results := make([]*Result, len(jobs))
	for i, blob := range blobs {
		if blob == nil {
			continue
		}
		res, err := DecodeResult(blob)
		if err != nil {
			return results, fmt.Errorf("artifact %s: %w", jobs[i].ID, err)
		}
		results[i] = res
	}
	return results, runErr
}
