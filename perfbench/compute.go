package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lscatter/internal/serve"
	"lscatter/internal/store"
)

// The serve-compute traffic: an open loop of unique deployment specs at a
// fixed rate a little under half the capacity of two server workers (about
// 11 jobs/s when overloaded on a 2-vCPU box), so queues form and drain
// without growing. Arrivals follow blockLayout, ten at a time:
// three small exact-mode specs (one with one tag, two with two), six
// semi-analytic fleets of 100-300 tags, and one repeat of the semi-analytic
// arrival before it, sent 20 ms later while that run is still in flight, so
// the server coalesces the two. The two-tag exact runs are the slowest fifth
// of the arrivals, so the 90th-percentile latency falls inside one class of
// job rather than on the edge between two. The layout, the tag-count strata,
// the venues, bandwidths and impairments are the same for every seed, so
// every run offers the same work in the same pattern and queues the same
// way; the seed picks which semi-analytic slot gets which tag stratum, the
// traffic, hours and link seeds. The 6:3:1 shares of semi-analytic, exact
// and repeated arrivals are assumptions, not measured usage: README.md gives
// the reason for each.
const (
	computeRate   = 4.0 // arrivals per second
	blockLayout   = "sXssrYsXss"
	repeatDelay   = 20 * time.Millisecond
	pollInterval  = 3 * time.Millisecond
	drainGrace    = 60 * time.Second
	computeSetups = 5 // set-ups per run; the reported set-up time is their median
	bodyChecks    = 8 // served bodies per run compared with a direct computation
	diskPutProbes = 32
)

var (
	venueNames = []string{"home", "mall", "outdoor"}
	trafficMix = []string{"lte", "wifi", "lora"}
	semiBWs    = []string{"5MHz", "10MHz", "20MHz"}
)

type arrival struct {
	due      time.Duration // from the start of the schedule
	spec     []byte
	repeatOf int // index of the repeated arrival, -1 for a unique spec
}

// exactSpec is a small exact-mode spec: 5 MHz, five subframes, at home. An
// exact run's cost depends on its venue (outdoor runs take about 0.6x and
// mall runs 1.2x the time of home runs), so one venue keeps each class of
// exact run uniform.
func exactSpec(tags int, impaired bool, seed uint64) wireSpec {
	w := wireSpec{Venue: "home", Mode: "exact", Bandwidth: "5MHz", Subframes: 5, Tags: tags, Seed: seed}
	if impaired {
		w.Impairment = "mild"
	}
	return w
}

// semiSpec is a semi-analytic fleet spec; the seed picks its traffic and
// hour.
func semiSpec(r *rand.Rand, venue, bw string, tags int, seed uint64) wireSpec {
	h := float64(r.IntN(48)) / 2
	return wireSpec{Venue: venue, Bandwidth: bw, Tags: tags,
		Traffic: trafficMix[r.IntN(len(trafficMix))], Hour: &h, Seed: seed}
}

// computeSchedule draws the arrivals of one run from the workload seed. In
// blockLayout, s is a semi-analytic spec, X a two-tag and Y a one-tag exact
// spec, and r repeats the arrival before it.
func computeSchedule(seed uint64, seconds float64) []arrival {
	r := rand.New(rand.NewPCG(seed, 0xc0))
	n := max(int(computeRate*seconds), 1)
	semis := strings.Count(blockLayout, "s")
	out := make([]arrival, n)
	for b := 0; b*len(blockLayout) < n; b++ {
		strata := r.Perm(semis)
		semi := 0
		for j, kind := range blockLayout {
			idx := b*len(blockLayout) + j
			if idx == n {
				break
			}
			due := time.Duration(float64(idx) / computeRate * float64(time.Second))
			linkSeed := seed<<20 ^ uint64(idx)
			var w wireSpec
			switch kind {
			case 'r':
				out[idx] = arrival{due: out[idx-1].due + repeatDelay, spec: out[idx-1].spec, repeatOf: idx - 1}
				continue
			case 's':
				tags := 100 + (200*strata[semi]+r.IntN(200))/semis
				w = semiSpec(r, venueNames[(semi+2*b)%len(venueNames)], semiBWs[(semi+b)%len(semiBWs)], tags, linkSeed)
				semi++
			default:
				tags := 1
				if kind == 'X' {
					tags = 2
				}
				w = exactSpec(tags, b%2 == 1, linkSeed)
			}
			out[idx] = arrival{due: due, spec: w.encode(), repeatOf: -1}
		}
	}
	return out
}

// warmupSpecs are computed during set-up, one after the other, so the first
// measured arrivals do not pay for filling the process's waveform cache.
// They are the same for every seed, so set-up does the same work on every
// run, and their link seeds have bit 19 set, which no arrival's has.
func warmupSpecs() [][]byte {
	h := 12.0
	return [][]byte{
		wireSpec{Venue: "home", Mode: "exact", Bandwidth: "5MHz", Subframes: 5, Tags: 1, Seed: 1 << 19}.encode(),
		wireSpec{Venue: "home", Bandwidth: "20MHz", Tags: 100, Traffic: "lte", Hour: &h, Seed: 1<<19 + 1}.encode(),
	}
}

// jobRec is one arrival as the client saw it.
type jobRec struct {
	idx  int
	id   string
	due  time.Time
	lag  time.Duration     // send time behind due time
	done time.Time         // result fetched
	sum  [sha256.Size]byte // of the result body, which is not kept
	root int               // span of the whole job
	err  error
}

// computeRig is a server plus the two client connections of a run.
type computeRig struct {
	srv            *server
	submit, poller *client
	sched          []arrival
}

// stop shuts the server down and drops it, so its heap can be collected.
func (g *computeRig) stop() error {
	g.submit.close()
	g.poller.close()
	err := g.srv.stop()
	g.srv, g.submit, g.poller = nil, nil, nil
	return err
}

func newComputeRig(cfg runConfig) (*computeRig, error) {
	srv, err := startServer(serve.Options{Workers: 2, JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	g := &computeRig{srv: srv, submit: newClient(srv.base), poller: newClient(srv.base)}
	for _, spec := range warmupSpecs() {
		if _, err := g.poller.submitAll([][]byte{spec}); err != nil {
			g.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	g.sched = computeSchedule(cfg.seed, cfg.seconds)
	return g, nil
}

// runServeCompute drives the open loop and checks every job and a sample of
// result bodies. One operation is one submitted job.
func runServeCompute(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{layers: map[string]float64{}}
	var rig *computeRig
	for i := 0; i < computeSetups; i++ {
		t0 := time.Now()
		g, err := newComputeRig(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if rig != nil {
			if err := rig.stop(); err != nil {
				return nil, fmt.Errorf("stop: %w", err)
			}
		}
		rig = g
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, accepted := driveOpenLoop(rig, cfg)
	accepted += len(warmupSpecs())
	runtime.ReadMemStats(&after)
	counters, cerr := rig.poller.counters()
	res.liveHeapMB, res.cacheMB = liveHeapMB(), waveformCacheMB()
	if err := rig.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	heldMB := res.liveHeapMB - liveHeapMB()
	if cerr != nil {
		res.fail("metricsz: %v", cerr)
	} else {
		checkLedger(res, counters, accepted)
	}

	var last time.Time
	var lags []float64
	completed := 0
	for _, rec := range recs {
		lags = append(lags, float64(rec.lag)/1e6)
		if rec.err != nil {
			res.fail("job %d: %v", rec.idx, rec.err)
			continue
		}
		completed++
		res.lat = append(res.lat, float64(rec.done.Sub(rec.due))/1e6)
		if rec.done.After(last) {
			last = rec.done
		}
		if a := rig.sched[rec.idx]; a.repeatOf >= 0 && recs[a.repeatOf].err == nil && rec.sum != recs[a.repeatOf].sum {
			res.fail("job %d: coalesced body differs from job %d", rec.idx, a.repeatOf)
		}
	}
	res.attempted = len(recs)
	if completed > 0 {
		res.opsPerS = float64(completed) / last.Sub(recs[0].due).Seconds()
		res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(completed)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("open loop %g/s, %d arrivals, %d completed; server runs %d, coalesced %d",
			computeRate, len(recs), completed, counters.Runs, counters.Coalesced),
		fmt.Sprintf("heap the server held at the end, less the heap once it stopped: %.2f MB, %.1f KB per submitted job",
			heldMB, heldMB*1e3/float64(max(counters.Submitted, 1))))
	for _, class := range classLatencies(rig.sched, recs) {
		res.notes = append(res.notes, class)
	}

	deploy, self, bodies := checkComputeBodies(ctx, res, cfg.seed, rig.sched, recs, cfg.tr != nil)
	if cfg.tr != nil {
		spans := cfg.tr.snapshot()
		selfT := selfTimes(spans)
		var jobSelf []float64
		for _, s := range spans {
			if s.Name == "serve.job" {
				jobSelf = append(jobSelf, float64(selfT[s.ID])/1e6)
			}
		}
		_, lagTail, _ := tail(lags)
		res.layers["experiments.deploy_ms"] = median(deploy)
		res.layers["serve.self_ms"] = median(self)
		res.layers["serve.submit_ms"] = median(durations(spans, "serve.submit", time.Millisecond))
		res.layers["serve.job.self_ms"] = median(jobSelf)
		res.layers["gen_lag_ms"] = lagTail
		if counters.Submitted > 0 {
			res.layers["serve.coalesced_ratio"] = float64(counters.Coalesced) / float64(counters.Submitted)
			res.layers["serve.computed_ratio"] = float64(counters.Runs) / float64(counters.Submitted)
		}
		put, err := diskPutProbe(cfg.tr, bodies)
		if err != nil {
			return nil, err
		}
		res.layers["store.disk_put_ms"] = put
	}
	return res, nil
}

// driveOpenLoop sends the schedule on one connection and tracks completion
// by polling on the other. It returns every arrival's record and how many
// submissions the server accepted.
func driveOpenLoop(rig *computeRig, cfg runConfig) ([]*jobRec, int) {
	tr := cfg.tr
	recs := make([]*jobRec, len(rig.sched))
	var (
		mu          sync.Mutex
		outstanding []*jobRec
		accepted    int
		wg          sync.WaitGroup
	)
	submitted := make(chan struct{})
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(submitted)
		for i, a := range rig.sched {
			due := t0.Add(a.due)
			time.Sleep(time.Until(due))
			rec := &jobRec{idx: i, due: due, lag: time.Since(due)}
			recs[i] = rec
			rec.root = tr.beginAt("serve.job", "", 0, due)
			sp := tr.begin("serve.submit", "", rec.root)
			st, err := rig.submit.submit(a.spec)
			tr.end(sp)
			if err != nil {
				rec.err = err
				tr.end(rec.root)
				continue
			}
			rec.id = st.ID
			mu.Lock()
			accepted++
			outstanding = append(outstanding, rec)
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		deadline := t0.Add(time.Duration(cfg.seconds*float64(time.Second)) + drainGrace)
		for {
			mu.Lock()
			pending := append([]*jobRec(nil), outstanding...)
			mu.Unlock()
			if len(pending) == 0 {
				select {
				case <-submitted:
					mu.Lock()
					n := len(outstanding)
					mu.Unlock()
					if n == 0 {
						return
					}
				case <-time.After(pollInterval):
				}
				continue
			}
			if time.Now().After(deadline) {
				for _, rec := range pending {
					rec.err = fmt.Errorf("not finished %v after the window", drainGrace)
					tr.end(rec.root)
				}
				return
			}
			finished := map[*jobRec]bool{}
			for _, rec := range pending {
				if pollJob(rig.poller, tr, rec) {
					finished[rec] = true
				}
			}
			mu.Lock()
			kept := outstanding[:0]
			for _, rec := range outstanding {
				if !finished[rec] {
					kept = append(kept, rec)
				}
			}
			outstanding = kept
			mu.Unlock()
			if len(finished) == 0 {
				time.Sleep(pollInterval)
			}
		}
	}()
	wg.Wait()
	return recs, accepted
}

// pollJob checks one job and, when it is done, fetches its result. It
// reports whether the job left the outstanding set.
func pollJob(c *client, tr *tracer, rec *jobRec) bool {
	sp := tr.begin("serve.status", "", rec.root)
	st, err := c.status(rec.id)
	tr.end(sp)
	switch {
	case err != nil:
		rec.err = err
	case st.State == serve.Done:
		sp := tr.begin("serve.results", "", rec.root)
		var body []byte
		body, rec.err = c.results(rec.id)
		rec.sum = sha256.Sum256(body)
		tr.end(sp)
		rec.done = time.Now()
	case st.State == serve.Failed || st.State == serve.Canceled:
		rec.err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
	default:
		return false
	}
	tr.end(rec.root)
	return true
}

// checkComputeBodies compares a seeded sample of served bodies with a direct
// computation of the same spec. It returns the direct deployment times and
// each sampled job's end-to-end latency minus its deployment time, in ms,
// and the checked bodies.
func checkComputeBodies(ctx context.Context, res *runResult, seed uint64, sched []arrival, recs []*jobRec, traced bool) (deploy, self []float64, bodies [][]byte) {
	r := rand.New(rand.NewPCG(seed, 0xb0d1))
	checked := 0
	for _, i := range r.Perm(len(sched)) {
		if checked == bodyChecks {
			break
		}
		if sched[i].repeatOf >= 0 || recs[i].err != nil {
			continue
		}
		checked++
		res.attempted++
		want, took, err := directBody(ctx, sched[i].spec)
		if err != nil {
			res.fail("job %d: direct run: %v", i, err)
			continue
		}
		if recs[i].sum != sha256.Sum256(want) {
			res.fail("job %d: served body differs from a direct RunDeployment", i)
			continue
		}
		bodies = append(bodies, want)
		if traced {
			// The best of two direct runs estimates the computation alone,
			// without the contention the served run met.
			if _, again, err := directBody(ctx, sched[i].spec); err == nil {
				took = min(took, again)
			}
		}
		deploy = append(deploy, float64(took)/1e6)
		self = append(self, float64(recs[i].done.Sub(recs[i].due)-took)/1e6)
	}
	return deploy, self, bodies
}

// diskPutProbe times durable store writes of served bodies into a fresh
// store, each body under several keys, returning the median milliseconds
// per Put.
func diskPutProbe(tr *tracer, bodies [][]byte) (float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), "probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := store.Open(dir, 0, nil)
	if err != nil {
		return 0, err
	}
	root := tr.begin("store.probe", "", 0)
	defer tr.end(root)
	var ms []float64
	for i := 0; len(bodies) > 0 && i < diskPutProbes; i++ {
		key := store.Key{SpecHash: fmt.Sprintf("%016x", i), Seed: uint64(i)}
		sp := tr.begin("store.disk_put", "", root)
		start := time.Now()
		d.Put(key, bodies[i%len(bodies)])
		ms = append(ms, float64(time.Since(start))/1e6)
		tr.end(sp)
	}
	return median(ms), nil
}

// classLatencies summarizes the latency of each kind of arrival: exact runs
// by tag count, semi-analytic runs and coalesced repeats.
func classLatencies(sched []arrival, recs []*jobRec) []string {
	lat := map[string][]float64{}
	for i, rec := range recs {
		if rec.err != nil {
			continue
		}
		var w wireSpec
		_ = json.Unmarshal(sched[i].spec, &w) // the benchmark encoded it
		class := "semi-analytic"
		switch {
		case sched[i].repeatOf >= 0:
			class = "repeat"
		case w.Mode == "exact":
			class = fmt.Sprintf("exact %d-tag", w.Tags)
		}
		lat[class] = append(lat[class], float64(rec.done.Sub(rec.due))/1e6)
	}
	var out []string
	for _, class := range []string{"semi-analytic", "repeat", "exact 1-tag", "exact 2-tag"} {
		xs := lat[class]
		out = append(out, fmt.Sprintf("  %-14s n=%3d  p50 %8.1f ms  min %8.1f  max %8.1f", class, len(xs), median(xs), quantile(xs, 0), quantile(xs, 1)))
	}
	return out
}
