package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lscatter/internal/serve"
	"lscatter/internal/store"
)

// The serve-cached traffic: two closed-loop clients, each submitting a spec
// drawn uniformly from a hot set that set-up computed, then fetching its
// result. The hot set is the unique specs of the first blocks of the
// serve-compute schedule at the same seed, so both served workloads carry the
// same specs and result bodies. The memory store holds just under half the
// hot set, so about half of the submissions are answered by the memory tier
// and the rest by the disk tier; nothing is computed while the clock runs.
const (
	hotBlocks     = 3 // serve-compute schedule blocks whose unique specs form the hot set
	cachedClients = 2
	// segmentOps is how many operations each fresh server serves. A run
	// starts segments until their measured time fills the window; the
	// set-up time, rate and heap figures are medians over the segments.
	segmentOps  = 10000
	probePasses = 200
)

// hotSpecs draws the hot set: the unique specs of the first hotBlocks blocks
// of the serve-compute schedule, which skips the in-flight repeats.
func hotSpecs(seed uint64) [][]byte {
	var out [][]byte
	for _, a := range computeSchedule(seed, float64(hotBlocks*len(blockLayout))/computeRate) {
		if a.repeatOf < 0 {
			out = append(out, a.spec)
		}
	}
	return out
}

// cachedRig is an artifact directory holding the hot set, and while a
// segment runs, a server over it plus the clients.
type cachedRig struct {
	dir     string
	specs   [][]byte
	bodies  [][]byte // served body per hot spec, fetched when it was computed
	srv     *server
	clients []*client
}

// newCachedRig computes the hot set through a server over a fresh artifact
// directory, then stops that server; the directory keeps the results.
func newCachedRig(seed uint64) (*cachedRig, error) {
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), "hot-")
	if err != nil {
		return nil, err
	}
	g := &cachedRig{dir: dir, specs: hotSpecs(seed)}
	if err := g.start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	g.bodies, err = g.clients[0].submitAll(g.specs)
	if err != nil {
		err = fmt.Errorf("hot set: %w", err)
	} else if c, cerr := g.clients[0].counters(); cerr != nil {
		err = cerr
	} else if c.Runs != uint64(len(g.specs)) {
		err = fmt.Errorf("hot set: %d runs for %d specs", c.Runs, len(g.specs))
	}
	if serr := g.stop(); err == nil {
		err = serr
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return g, nil
}

// start brings up a fresh server over the hot set's directory and the
// clients.
func (g *cachedRig) start() error {
	srv, err := startServer(serve.Options{Workers: 2, JobWorkers: 1, StoreEntries: len(g.specs) / 2, ArtifactDir: g.dir})
	if err != nil {
		return err
	}
	g.srv = srv
	for i := 0; i < cachedClients; i++ {
		g.clients = append(g.clients, newClient(srv.base))
	}
	return nil
}

// stop shuts the server down and drops it, so its heap can be collected;
// the directory, specs and bodies stay.
func (g *cachedRig) stop() error {
	for _, c := range g.clients {
		c.close()
	}
	err := g.srv.stop()
	g.srv, g.clients = nil, nil
	return err
}

// runServeCached computes the hot set once, then drives the closed loop in
// segments of a fixed number of operations, each on a fresh server over the
// hot set's directory whose start is the timed set-up: it opens the durable
// store and serves from it with a cold memory tier, as a restarted
// lscatter-served does. The job manager keeps every finished job, so the
// live heap at the end of a segment grows with the requests it served; a
// fixed count per segment bounds that growth and makes it comparable
// between runs. One operation is one submit plus one result fetch.
func runServeCached(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{layers: map[string]float64{}}
	var (
		rates, heaps, allocs []float64
		memHits, diskHits    []float64
		heldKB               []float64
		measured             time.Duration
	)
	t0 := time.Now()
	rig, err := newCachedRig(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(rig.dir)
	hotTook := time.Since(t0)
	for measured.Seconds() < cfg.seconds {
		t0 := time.Now()
		if err := rig.start(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		seg, err := rig.drive(cfg, res)
		if serr := rig.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stop: %w", serr)
		}
		if err != nil {
			return nil, err
		}
		heldKB = append(heldKB, (seg.liveHeapMB-liveHeapMB())*1e3/float64(segmentOps))
		measured += seg.took
		rates = append(rates, seg.rate)
		heaps = append(heaps, seg.liveHeapMB)
		allocs = append(allocs, seg.allocMB)
		memHits = append(memHits, seg.memHit)
		diskHits = append(diskHits, seg.diskHit)
	}
	res.opsPerS = median(rates)
	res.liveHeapMB, res.cacheMB = median(heaps), waveformCacheMB()
	res.allocMB = median(allocs)
	bodyBytes := 0
	for _, b := range rig.bodies {
		bodyBytes += len(b)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("hot set of %d specs (%.2f MB of result bodies, which the clients also hold as the reference) computed in %.3f s",
			len(rig.specs), float64(bodyBytes)/1e6, hotTook.Seconds()),
		fmt.Sprintf("closed loop, %d clients, %d segments of %d operations, memory store %d: memory hits %.3f, disk hits %.3f",
			cachedClients, len(rates), segmentOps, len(rig.specs)/2, median(memHits), median(diskHits)),
		fmt.Sprintf("heap the server held at the end of a segment, less the heap once it stopped: %.2f KB per operation", median(heldKB)))

	checkHotBodies(ctx, res, cfg.seed, rig)
	if cfg.tr != nil {
		spans := cfg.tr.snapshot()
		selfT := selfTimes(spans)
		var opSelf []float64
		for _, s := range spans {
			if s.Name == "serve.op" {
				opSelf = append(opSelf, float64(selfT[s.ID])/1e3)
			}
		}
		res.layers["serve.submit_us"] = median(durations(spans, "serve.submit", time.Microsecond))
		res.layers["serve.results_us"] = median(durations(spans, "serve.results", time.Microsecond))
		res.layers["serve.op.self_us"] = median(opSelf)
		res.layers["store.mem_hit_ratio"] = median(memHits)
		res.layers["store.disk_hit_ratio"] = median(diskHits)
		if err := readPathProbe(cfg.tr, rig, res.layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// segmentResult is what one closed-loop segment measured.
type segmentResult struct {
	took                      time.Duration
	rate, liveHeapMB, allocMB float64
	memHit, diskHit           float64
}

// drive runs one segment of the closed loop on this rig, adding the
// operations, latencies and check failures to res.
func (g *cachedRig) drive(cfg runConfig, res *runResult) (segmentResult, error) {
	var seg segmentResult
	c0, err := g.clients[0].counters()
	if err != nil {
		return seg, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	type clientOut struct {
		lat           []float64
		ops, accepted int
		last          time.Time
		failures      []string
	}
	outs := make([]clientOut, cachedClients)
	var wg sync.WaitGroup
	for ci := range g.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, out := g.clients[ci], &outs[ci]
			r := rand.New(rand.NewPCG(cfg.seed, uint64(len(res.setup)<<8|ci)))
			for out.ops < segmentOps/cachedClients {
				k := r.IntN(len(g.specs))
				opStart := time.Now()
				root := cfg.tr.beginAt("serve.op", "", 0, opStart)
				out.ops++
				sp := cfg.tr.begin("serve.submit", "", root)
				st, err := c.submit(g.specs[k])
				cfg.tr.end(sp)
				if err != nil {
					out.failures = append(out.failures, err.Error())
					cfg.tr.end(root)
					continue
				}
				out.accepted++
				if st.State != serve.Done || !st.CacheHit {
					out.failures = append(out.failures, fmt.Sprintf("hot spec %d: state %s, cache_hit %v", k, st.State, st.CacheHit))
					cfg.tr.end(root)
					continue
				}
				sp = cfg.tr.begin("serve.results", "", root)
				body, err := c.results(st.ID)
				cfg.tr.end(sp)
				cfg.tr.end(root)
				end := time.Now()
				switch {
				case err != nil:
					out.failures = append(out.failures, err.Error())
				case !bytes.Equal(body, g.bodies[k]):
					out.failures = append(out.failures, fmt.Sprintf("hot spec %d: body differs from the one first served", k))
				default:
					out.lat = append(out.lat, float64(end.Sub(opStart))/1e6)
					out.last = end
				}
			}
		}(ci)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	var last time.Time
	accepted, completed := 0, 0
	for _, out := range outs {
		res.attempted += out.ops
		accepted += out.accepted
		completed += len(out.lat)
		res.lat = append(res.lat, out.lat...)
		for _, f := range out.failures {
			res.fail("%s", f)
		}
		if out.last.After(last) {
			last = out.last
		}
	}
	c1, err := g.clients[0].counters()
	if err != nil {
		res.fail("metricsz: %v", err)
	} else {
		checkLedger(res, c1, accepted)
	}
	seg.liveHeapMB = liveHeapMB()
	seg.took = time.Since(start)
	if completed > 0 {
		seg.rate = float64(completed) / last.Sub(start).Seconds()
		seg.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(completed)
	}
	submitted := float64(c1.Submitted - c0.Submitted)
	seg.memHit = float64(c1.CacheHits-c0.CacheHits) / max(submitted, 1)
	seg.diskHit = float64(c1.DiskHits-c0.DiskHits) / max(submitted, 1)
	return seg, nil
}

// checkHotBodies compares a seeded sample of the hot set's served bodies
// with a direct computation. Every body served during the window was
// already compared with these.
func checkHotBodies(ctx context.Context, res *runResult, seed uint64, rig *cachedRig) {
	r := rand.New(rand.NewPCG(seed, 0xb0d2))
	for _, k := range r.Perm(len(rig.specs))[:bodyChecks] {
		res.attempted++
		want, _, err := directBody(ctx, rig.specs[k])
		if err != nil {
			res.fail("hot spec %d: direct run: %v", k, err)
			continue
		}
		if !bytes.Equal(rig.bodies[k], want) {
			res.fail("hot spec %d: served body differs from a direct RunDeployment", k)
		}
	}
}

// readPathProbe times the calls a cached submission makes outside HTTP:
// spec decoding, normalization and hashing, and store reads from each tier,
// on the hot set's specs and bodies. Each span covers one pass over the
// hot set; the metrics are microseconds per call.
func readPathProbe(tr *tracer, rig *cachedRig, layers map[string]float64) error {
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir, 0, nil)
	if err != nil {
		return err
	}
	mem := store.NewMemory(len(rig.specs))
	keys := make([]store.Key, len(rig.specs))
	for i, spec := range rig.specs {
		s, err := serve.DecodeSpec(bytes.NewReader(spec))
		if err != nil {
			return err
		}
		n, err := s.Normalize()
		if err != nil {
			return err
		}
		keys[i] = store.Key{SpecHash: n.Hash(), Seed: n.Seed}
		mem.Put(keys[i], rig.bodies[i])
		disk.Put(keys[i], rig.bodies[i])
	}
	root := tr.begin("store.probe", "", 0)
	defer tr.end(root)
	pass := func(name string, call func(i int) error) (float64, error) {
		var per []float64
		for p := 0; p < probePasses; p++ {
			sp := tr.begin(name, "", root)
			start := time.Now()
			for i := range keys {
				if err := call(i); err != nil {
					return 0, err
				}
			}
			per = append(per, float64(time.Since(start))/1e3/float64(len(keys)))
			tr.end(sp)
		}
		return median(per), nil
	}
	if layers["serve.spec_us"], err = pass("serve.spec", func(i int) error {
		s, err := serve.DecodeSpec(bytes.NewReader(rig.specs[i]))
		if err != nil {
			return err
		}
		n, err := s.Normalize()
		if err != nil {
			return err
		}
		if n.Hash() != keys[i].SpecHash {
			return fmt.Errorf("hot spec %d: hash changed", i)
		}
		return nil
	}); err != nil {
		return err
	}
	if layers["store.mem_get_us"], err = pass("store.mem_get", func(i int) error {
		if _, ok := mem.Get(keys[i]); !ok {
			return fmt.Errorf("memory store lost hot key %d", i)
		}
		return nil
	}); err != nil {
		return err
	}
	layers["store.disk_get_us"], err = pass("store.disk_get", func(i int) error {
		if _, ok := disk.Get(keys[i]); !ok {
			return fmt.Errorf("disk store lost hot key %d", i)
		}
		return nil
	})
	return err
}
