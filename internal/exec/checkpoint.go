package exec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"

	"lscatter/internal/store"
)

// Checkpointed wraps any executor with a durable content-addressed store:
// every computed artifact is recorded under the job's store key (jobKey),
// and — when Resume is set — a job whose artifact is already in the store is
// answered from it without recompute. A sweep killed after K of N artifacts and
// restarted over the same directory therefore recomputes exactly N−K.
//
// Correctness rests on the determinism contract: the stored bytes for a key
// are the bytes any executor would produce for that job, so restoring is
// indistinguishable from recomputing. The store itself guards against
// torn or corrupt checkpoints (atomic writes, checksummed reads), and its
// advisory lock makes the directory safe to share with sibling processes —
// workers checkpointing into the directory a later resume reads is the
// multi-process sharing path.
type Checkpointed struct {
	// Inner computes artifacts the store does not hold; required.
	Inner Executor
	// Store is the durable artifact store; required.
	Store *store.DiskStore
	// Resume enables read-before-compute. Without it the executor only
	// records checkpoints — the cold-sweep mode, which never serves stale
	// state no matter what the directory holds.
	Resume bool

	computed, restored atomic.Uint64
}

// jobKey is the store key of a job's artifact: a SHA-256 of the
// namespaced job ID plus the seed verbatim. The namespace is the one every
// -artifact-dir and worker directory has been written with, so existing
// directories keep their file names.
func jobKey(job Job) store.Key {
	sum := sha256.Sum256([]byte("lscatter-bench-artifact:" + job.ID))
	return store.Key{SpecHash: hex.EncodeToString(sum[:]), Seed: job.Seed}
}

// Submit answers from the store when resuming, otherwise computes through
// the inner executor and checkpoints the result. A failed computation is
// never checkpointed.
func (c *Checkpointed) Submit(ctx context.Context, job Job) ([]byte, error) {
	k := jobKey(job)
	if c.Resume {
		if body, ok := c.Store.Get(k); ok {
			c.restored.Add(1)
			return body, nil
		}
	}
	body, err := c.Inner.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	c.Store.Put(k, body)
	c.computed.Add(1)
	return body, nil
}

// Stats reports how many submissions this executor computed versus restored
// from the store — the observability behind "exactly N−K recomputes".
func (c *Checkpointed) Stats() (computed, restored uint64) {
	return c.computed.Load(), c.restored.Load()
}
