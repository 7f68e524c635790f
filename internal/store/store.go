// Package store is the shared content-addressed artifact store under every
// execution surface: the serve.Manager result cache, the checkpointed
// lscatter-bench sweeps and the lscatter-worker shards all persist finished
// artifact bodies here, keyed by (content hash, seed).
//
// The package has two layers. Memory is a bounded in-process LRU over result
// bodies. DiskStore is the durable layer: one self-describing LSCATART file
// per artifact (fixed header carrying the key, the body length and a SHA-256
// of the body), atomic temp+fsync+rename writes, quarantine-on-corruption
// and byte-budget LRU eviction. The artifact files are the DiskStore's only
// index: a startup scan rebuilds the entries, and LRU recency is each file's
// modification time, refreshed on every hit, so it survives restarts and is
// shared by every process using the directory. An advisory file lock
// (lock_unix.go) serializes mutations so several processes — a server plus a
// sweep, or a fleet of lscatter-worker shards — can share one artifact
// directory; a Get that misses the in-memory index probes the canonical file
// name on disk and adopts artifacts written by sibling processes.
//
// Identical keys denote identical computations — every runner in this
// repository is deterministic in (content, seed) — so a stored body can be
// served for any later request with the same key without recompute, byte for
// byte. That determinism contract is what makes the store safe to share.
package store

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"
)

// Key addresses one artifact: the content hash of the computation's
// normalized input plus the seed. The hash is lowercase hex, at most 64
// characters (a SHA-256).
type Key struct {
	SpecHash string `json:"spec_hash"`
	Seed     uint64 `json:"seed"`
}

// Memory is the bounded in-memory content-addressed artifact store. Values
// are finished result bodies exactly as they are served to clients. Eviction
// is LRU by access so a hot key survives a sweep of one-off requests.
type Memory struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions uint64
	bytes                   int64
}

type memoryEntry struct {
	key  Key
	body []byte
}

// NewMemory builds a store bounded to max entries; max <= 0 selects a
// default of 256.
func NewMemory(max int) *Memory {
	if max <= 0 {
		max = 256
	}
	return &Memory{
		max:     max,
		entries: make(map[Key]*list.Element),
		order:   list.New(),
	}
}

// Get returns the stored body for the key, or (nil, false). The returned
// slice is shared — callers must not mutate it.
func (s *Memory) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*memoryEntry).body, true
}

// Put stores a body under the key. A concurrent duplicate computation may
// Put the same key twice; the bodies are identical by the determinism
// contract, so the second write just refreshes recency.
func (s *Memory) Put(k Key, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		return
	}
	s.entries[k] = s.order.PushFront(&memoryEntry{key: k, body: body})
	s.bytes += int64(len(body))
	for len(s.entries) > s.max {
		el := s.order.Back()
		e := el.Value.(*memoryEntry)
		s.order.Remove(el)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.body))
		s.evictions++
	}
}

// MemoryStats is the memory store's observability snapshot.
type MemoryStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns a consistent snapshot of the store counters.
func (s *Memory) Stats() MemoryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MemoryStats{
		Entries:   len(s.entries),
		Bytes:     s.bytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
	}
}

// WriteAtomic durably writes data to path: a temp file in the same
// directory, fsync, then rename over the destination. A crash at any point
// leaves either the old file or the new one, never a torn mix — the property
// the artifact store relies on for its LSCATART files and the metrics
// reports rely on for `-metrics` output.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
