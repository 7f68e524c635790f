# LScatter build targets. Everything is stdlib Go; no external tools needed.

GO ?= go

.PHONY: all ci test race vet fmt-check docs-check fuzz-smoke golden-update resilience bench bench-compare rtf fleet-check dist-check figures examples examples-check served-check served-load cover clean

all: vet test

# The full gate a PR must pass: vet, gofmt, the suite under the race
# detector, the doc-comment check, the example-stdout goldens, the
# fleet-engine scaling gate, both server smokes (end-to-end crash/restart,
# then load with required coalesce + disk-hit evidence) and the
# distributed-execution smoke. Run it before pushing.
ci: vet fmt-check race docs-check examples-check fleet-check served-check served-load dist-check

test:
	$(GO) test ./...

# Full suite under the race detector; the experiment pool and waveform cache
# must stay race-clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) build ./... && $(GO) vet ./...

# Every Go file must be gofmt-clean; gofmt -l prints the ones that are not.
fmt-check:
	test -z "$$(gofmt -l .)"

# Every package and command must carry a doc comment (see tools/docscheck.sh).
docs-check:
	sh tools/docscheck.sh

# 30 seconds of native fuzzing per target on top of the committed corpora
# (testdata/fuzz/). The receiver and the frame decoder must never panic on
# arbitrary input; see docs/RESILIENCE.md.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/ue -run='^$$' -fuzz=FuzzEstimateCFO -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/scatterframe -run='^$$' -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/scatterframe -run='^$$' -fuzz=FuzzDecodeSoft -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dsp -run='^$$' -fuzz=FuzzCorrelatorEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzSpecDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^$$' -fuzz=FuzzArtifactDecode -fuzztime=$(FUZZTIME)

# Regenerate the golden conformance vectors (testdata/*.json) after an
# intentional waveform or RNG change; review the diff like code.
golden-update:
	$(GO) test -run TestGolden -update .

# The link-resilience sweep: the exact chain through the fault-injection
# ladder (see docs/RESILIENCE.md).
resilience:
	$(GO) run ./cmd/lscatter-bench -impair

# Regenerate every paper table/figure, the ablations and the validation.
figures:
	$(GO) run ./cmd/lscatter-bench -all

# One benchmark per paper artifact plus the signal-path micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Diff two `lscatter-bench -metrics` reports (override OLD/NEW to compare
# other runs); fails on an allocation regression beyond the threshold in
# tools/benchdiff.
OLD ?= BENCH_R3.json
NEW ?= BENCH_R4.json
bench-compare:
	$(GO) run ./tools/benchdiff $(OLD) $(NEW)

# Print the float Session's real-time factor at 20 MHz on one goroutine;
# see docs/PERFORMANCE.md.
rtf:
	$(GO) run ./cmd/lscatter-bench -rtf

# The fleet-engine gate: fleet and simlink tests under the race detector,
# then the parked-heavy scaling smoke — a 10x-larger fleet at fixed aggregate
# load must not cost more than 3x the wall time (see docs/FLEET.md).
fleet-check:
	$(GO) test -race -count=1 ./internal/fleet ./internal/simlink
	$(GO) run ./tools/fleetcheck

# Distributed-execution smoke: two lscatter-worker shards over one shared
# artifact directory; the sharded `-all` sweep must print byte-identical
# output to the local sweep with every artifact computed exactly once across
# the workers and zero restores on the cold store (see docs/DISTRIBUTED.md).
dist-check:
	$(GO) build -o bin/lscatter-bench ./cmd/lscatter-bench
	$(GO) build -o bin/lscatter-worker ./cmd/lscatter-worker
	$(GO) run ./tools/distcheck -bench bin/lscatter-bench -worker bin/lscatter-worker

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smarthome
	$(GO) run ./examples/continuousauth
	$(GO) run ./examples/spectrumsurvey
	$(GO) run ./examples/multitag

# Golden-stdout smoke tests for every example (testdata/examples/*.txt);
# regenerate after an intentional output change with
# `go test -run TestExampleStdout -update .` and review the diff.
examples-check:
	$(GO) test -run TestExampleStdout -count=1 .

# End-to-end smoke of the deployment-simulation server binary: build it,
# launch on an ephemeral port, healthz + one tiny run over real TCP, then a
# SIGTERM graceful-drain exit — followed by the durability phase: SIGKILL
# mid-life and a restart that must serve the same body from disk without
# recompute (see docs/SERVING.md).
served-check:
	$(GO) build -o bin/lscatter-served ./cmd/lscatter-served
	$(GO) run ./tools/servedcheck -bin bin/lscatter-served

# Load smoke: a few seconds of mixed bursts (concurrent-identical, duplicate,
# unique, canceled) against a freshly launched server with a 1-entry memory
# store over a temp artifact dir. Fails unless coalesced joins AND disk hits
# both actually happened; prints sustained runs/sec (baseline in
# docs/BENCHMARKS.md).
LOADTIME ?= 5s
served-load:
	$(GO) build -o bin/lscatter-served ./cmd/lscatter-served
	$(GO) run ./tools/servedload -bin bin/lscatter-served -duration $(LOADTIME) -require-coalesce -require-disk-hits

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean -testcache
