// Command lscatter-worker is one shard of a distributed lscatter-bench
// sweep: a small HTTP process that computes experiment artifacts on demand.
//
// Usage:
//
//	lscatter-worker [-addr 127.0.0.1:9301] [-artifact-dir DIR] [-disk-max-bytes N]
//
// The protocol is the executor wire format (see docs/DISTRIBUTED.md):
//
//	POST /v1/jobs   {"id": "F23", "seed": 12345} → 200 artifact bytes
//	GET  /healthz   liveness
//	GET  /statsz    served/errors/computed/restored counters
//
// With -artifact-dir the worker checkpoints every computed artifact into the
// shared content-addressed store and answers repeat jobs from it, so several
// workers (and a later `lscatter-bench -resume`) sharing one directory
// compute each artifact exactly once between them — the store's advisory
// file lock is what makes the sharing safe. Without it the worker is a pure
// stateless compute shard.
//
// The bound address is printed on stdout (one line) so harnesses can pass
// -addr 127.0.0.1:0 and read back the kernel-chosen port; logs go to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"lscatter/internal/exec"
	"lscatter/internal/experiments"
	"lscatter/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9301", "listen address (use :0 for a kernel-chosen port)")
		artifactDir = flag.String("artifact-dir", "", "shared durable artifact store; enables checkpoint + restore")
		diskMax     = flag.Int64("disk-max-bytes", 0, "byte budget for -artifact-dir (0 = default 256 MiB)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lscatter-worker: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	var ex exec.Executor = &exec.Local{Run: experiments.ExecRunner()}
	if *artifactDir != "" {
		st, err := store.Open(*artifactDir, *diskMax, log.Printf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lscatter-worker: %v\n", err)
			os.Exit(1)
		}
		ex = &exec.Checkpointed{
			Inner:  ex,
			Store:  st,
			Resume: true,
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lscatter-worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("http://%s\n", ln.Addr())
	log.Printf("lscatter-worker: serving on http://%s (artifact-dir=%q)", ln.Addr(), *artifactDir)
	if err := newHTTPServer(exec.NewWorkerHandler(ex)).Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "lscatter-worker: %v\n", err)
		os.Exit(1)
	}
}

// Header reads and idle keep-alive connections are bounded so a slow or
// abandoned client cannot pin a connection forever. There is deliberately
// no ReadTimeout or WriteTimeout: a job's response is written only when its
// artifact is computed, which can take far longer than any fixed budget.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the worker handler in the server's connection limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
