# Personal Virtual Networks — build/test/reproduce targets.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build vet lint lint-fix-audit test race test-race fuzz-short e16-determinism e17-determinism soak-short soak-exit-gate soak bench-gate bench-baseline check bench experiments examples cover loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis. pvnlint first: it is stdlib-only, works offline, and
# enforces the project contracts (determinism, clock discipline,
# fail-closed specs, atomic/plain field races, dropped lifecycle
# errors, plus the flow-sensitive trustflow/lockorder/goleak suite:
# wire data verified before sinks, lock ordering, stoppable
# goroutines) that generic linters cannot know about. Then staticcheck when
# it is installed (or fetchable), with a `go vet` fallback so
# offline/minimal environments still get a lint pass instead of a hard
# failure.
lint:
	$(GO) run ./cmd/pvnlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "lint: staticcheck ($$(staticcheck --version 2>/dev/null))"; \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) --version >/dev/null 2>&1; then \
		echo "lint: staticcheck $(STATICCHECK_VERSION) via go run"; \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline?); falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# Audit trail for lint suppressions: every //lint:allow annotation in
# the tree with its mandatory reason, one line each, for review. The
# flow-sensitive checks use the same mechanism, so deliberate
# unverified flows and held-across-blocking locks show up here too
# (pvnlint -json gives the machine-readable finding list CI archives).
lint-fix-audit:
	$(GO) run ./cmd/pvnlint -allows ./...

test:
	$(GO) test ./...

# Concurrency regression tests (dataplane, middlebox, openflow) need the
# race detector to mean anything.
race:
	$(GO) test -race ./...

# Discovery→deploy lifecycle suite under the race detector: the session
# state machine, the locked deployserver (concurrent HandleDM / deploy /
# teardown, and deploys racing chain traffic on the self-locking
# middlebox runtime), the health ladder and its two owners, and the
# deterministic fault-injection tests — and the flow table those deploys
# write while lookups read it. Faster than a full `make race` and
# targeted at the lifecycle code paths.
test-race:
	$(GO) test -race ./internal/discovery/ ./internal/deployserver/ ./internal/netsim/ ./cmd/pvnd/ \
		./internal/health/ ./internal/middlebox/ ./internal/tunnel/ ./internal/openflow/

# A short seed-corpus + random fuzz pass over every fuzz target in the
# tree, i.e. every parser that handles untrusted bytes: the packet
# decoder and the HTTP/TLS/DNS parsers each chain hop runs on wire bytes,
# the DHT wire envelope, the distributed-store module manifest, the PVNC
# and user-script compilers, and the pcap reader. Patterns are anchored:
# go test refuses -fuzz when it matches more than one target.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeEnvelope$$' -fuzztime=10s ./internal/overlay/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeModule$$' -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzHTTPDecode$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzTLSDecode$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzDNSDecode$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=6s ./internal/pvnc/
	$(GO) test -run='^$$' -fuzz='^FuzzCompileScript$$' -fuzztime=6s ./internal/middlebox/mbx/
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=6s ./internal/pcapio/

# The overlay determinism gate: the E16 table must be bit-identical
# across runs under the race detector (DESIGN.md §12).
e16-determinism:
	$(GO) test -race -run 'TestExperimentsDeterministic|TestE16OverlayShape' ./internal/experiments/

# The orchestrator determinism gate: the E17 table (placement book,
# evacuation, billing) must be bit-identical across runs under the race
# detector, and the placement property/fuzz suite must hold.
e17-determinism:
	$(GO) test -race -run 'TestE17OrchestrationShape|TestPlacementDeterminism|TestPlacementProperties' ./internal/experiments/ ./internal/orchestrator/

# The adversarial soak gate: a composed random failure storm (roam
# storms, flaps, lease churn, provider crashes, adversarial campaigns)
# on the scenario engine, strict-checked against every global invariant
# under the race detector. Any failure prints a pvnbench -soak -seed=N
# line that replays it bit-for-bit.
soak-short:
	$(GO) test -race -run 'TestSoakShort|TestSoakDeterminism|TestBrokenInvariantDetected' ./internal/scenario/

# The headless soak exit gate: `pvnbench -soak` MUST exit non-zero when
# invariants are violated, or CI's soak runs green-light broken code.
soak-exit-gate:
	$(GO) test -run 'TestSoakExitCode' ./cmd/pvnbench/

# The long soak: >= 1,000,000 simulated seconds of storm composition,
# plus the reclamation-vs-roam race. Minutes-scale; not part of check.
soak:
	$(GO) test -race -run 'TestSoakMillionSimSeconds' ./internal/scenario/
	$(GO) test -race -run 'TestReclaimOrphansRacesBeginRoam' ./internal/core/

# The dataplane performance gate: re-run the scaling sweep (no-chain and
# chain-bearing rule sets, and the flow-cache miss path at a thousand
# subscribers) and diff it against the committed BENCH_DATAPLANE.json.
# Allocs/op gates strictly (machine-independent); ops/sec only flags
# collapses below 25% of the baseline, so CI hardware variance passes
# but a new per-packet allocation or lock does not.
bench-gate:
	$(GO) run ./cmd/pvnbench -gate BENCH_DATAPLANE.json -quick

# Re-record the committed dataplane baseline (full-size sweep). Run on a
# quiet machine and commit the resulting BENCH_DATAPLANE.json.
bench-baseline:
	$(GO) run ./cmd/pvnbench -dataplane -bench-json .

# The pre-merge gate: build, lint, full tests, full race pass, the E16
# and E17 determinism pairs, the short adversarial soak, the soak exit
# gate, short fuzz, and the dataplane perf gate.
check: build lint test race e16-determinism e17-determinism soak-short soak-exit-gate fuzz-short bench-gate

# One iteration of every benchmark (experiments E1-E12 + micro-benches).
bench:
	$(GO) test -bench=. -benchmem .

# Full experiment tables, as recorded in EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/pvnbench

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/secure-roaming
	$(GO) run ./examples/video-policy
	$(GO) run ./examples/selective-redirect
	$(GO) run ./examples/iot-privacy

cover:
	$(GO) test -cover ./...

# Non-test Go lines per package, and the total outside bench/ — the
# number ROADMAP open item 2's "fewer lines" target is stated in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total outside bench/\n", t }' | sort -k2

clean:
	$(GO) clean ./...
