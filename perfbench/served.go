package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lscatter/internal/experiments"
	"lscatter/internal/serve"
)

// server is one lscatter-served instance on a loopback listener. Every served
// run builds a fresh one: the job manager keeps every finished job, so a
// reused server would carry the previous run's jobs on its heap.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	dir     string // artifact directory the server created and removes
	base    string
	stopped chan error
}

// startServer starts a server over opts.ArtifactDir, or over a temporary
// artifact directory of its own when that is empty.
func startServer(opts serve.Options) (*server, error) {
	var dir string
	if opts.ArtifactDir == "" {
		var err error
		if dir, err = os.MkdirTemp(filepath.Join(workDir, "tmp"), "serve-"); err != nil {
			return nil, err
		}
		opts.ArtifactDir = dir
	}
	opts.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: server: "+format+"\n", args...)
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Manager().Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		dir:     dir,
		base:    "http://" + ln.Addr().String(),
		stopped: make(chan error, 1),
	}
	go func() { s.stopped <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the job manager down and removes the
// artifact directory if the server created it.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.stopped; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.srv.Manager().Shutdown(ctx); err == nil {
		err = merr
	}
	if s.dir == "" {
		return err
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one HTTP/1.1 connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submit posts a spec and returns the job snapshot of an accepted request.
func (c *client) submit(spec []byte) (serve.JobStatus, error) {
	var st serve.JobStatus
	code, body, err := c.do(http.MethodPost, "/v1/runs", spec)
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted {
		return st, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	return st, json.Unmarshal(body, &st)
}

func (c *client) status(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	code, body, err := c.do(http.MethodGet, "/v1/runs/"+id, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, code)
	}
	return st, json.Unmarshal(body, &st)
}

func (c *client) results(id string) ([]byte, error) {
	code, body, err := c.do(http.MethodGet, "/v1/runs/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("results %s: HTTP %d", id, code)
	}
	return body, nil
}

// wait polls a submitted job until it finishes and returns its result body.
func (c *client) wait(st serve.JobStatus) ([]byte, error) {
	var err error
	for st.State != serve.Done {
		if st.State == serve.Failed || st.State == serve.Canceled {
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollInterval)
		if st, err = c.status(st.ID); err != nil {
			return nil, err
		}
	}
	return c.results(st.ID)
}

// submitAll submits the specs and waits for every result body, so the
// server's workers compute them concurrently.
func (c *client) submitAll(specs [][]byte) ([][]byte, error) {
	sts := make([]serve.JobStatus, len(specs))
	for i, spec := range specs {
		st, err := c.submit(spec)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	bodies := make([][]byte, len(specs))
	for i, st := range sts {
		body, err := c.wait(st)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// counters reads the job ledger from /metricsz.
func (c *client) counters() (serve.Counters, error) {
	var doc struct {
		Jobs serve.Counters `json:"jobs"`
	}
	code, body, err := c.do(http.MethodGet, "/metricsz", nil)
	if err != nil {
		return doc.Jobs, err
	}
	if code != http.StatusOK {
		return doc.Jobs, fmt.Errorf("metricsz: HTTP %d", code)
	}
	return doc.Jobs, json.Unmarshal(body, &doc)
}

// checkLedger fails the run unless every accepted submission is classified
// exactly once and the server saw as many as the clients sent.
func checkLedger(res *runResult, c serve.Counters, accepted int) {
	if c.Submitted != c.CacheHits+c.DiskHits+c.Coalesced+c.Runs {
		res.fail("ledger: submitted %d != cache_hits %d + disk_hits %d + coalesced %d + runs %d",
			c.Submitted, c.CacheHits, c.DiskHits, c.Coalesced, c.Runs)
	}
	if c.Submitted != uint64(accepted) {
		res.fail("ledger: server counted %d submissions, clients had %d accepted", c.Submitted, accepted)
	}
}

// wireSpec is the request body the benchmark sends. It never names a lane:
// the float lane is the default.
type wireSpec struct {
	Venue      string   `json:"venue,omitempty"`
	Bandwidth  string   `json:"bandwidth,omitempty"`
	Tags       int      `json:"tags"`
	Traffic    string   `json:"traffic,omitempty"`
	Hour       *float64 `json:"hour,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	Subframes  int      `json:"subframes,omitempty"`
	Impairment string   `json:"impairment,omitempty"`
	Seed       uint64   `json:"seed"`
}

func (w wireSpec) encode() []byte {
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // a struct of scalars always marshals
	}
	return b
}

// directBody computes the result body for a spec without the server: decode,
// normalize, RunDeployment, and the served document layout.
func directBody(ctx context.Context, spec []byte) ([]byte, time.Duration, error) {
	s, err := serve.DecodeSpec(bytes.NewReader(spec))
	if err != nil {
		return nil, 0, err
	}
	n, err := s.Normalize()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	dep, err := experiments.RunDeployment(ctx, n.Deployment(), 1, nil)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	doc := &serve.ResultDoc{Key: serve.Key{SpecHash: n.Hash(), Seed: n.Seed}, Spec: n, Result: dep}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	return append(b, '\n'), took, nil
}
