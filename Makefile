# Personal Virtual Networks — build/test/reproduce targets.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build vet lint lint-fix-audit test race test-race fuzz-short e16-determinism e17-determinism soak-short soak-exit-gate soak bench-gate bench-baseline ab check bench experiments examples cover loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis. pvnlint first: it is stdlib-only, works offline, and
# enforces the project contracts (determinism and clock discipline,
# fail-closed specs, atomic/plain field races, dropped lifecycle
# errors, plus the flow-sensitive lock ordering) that generic linters
# cannot know about. Then staticcheck when
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
# flow-sensitive lockorder uses the same mechanism, so deliberate
# held-across-blocking locks show up here too (pvnlint -json gives the
# machine-readable finding list CI archives).
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
# write while lookups read it — plus the reusable decoder and the boxes
# that read it, since race builds poison the chain's pooled decode after
# every invocation (a box that keeps a view of it fails there), the
# DNS resolvers every owner's dns-validate box shares, and the trust
# store's signature memo that every owner's tls-verify box and every
# audit share — and the pipeline, whose submitters resolve through each
# shard's switch over that one table and finish chain-free packets
# themselves while workers finish chain work. Faster than a
# full `make race` and targeted at the lifecycle code paths.
test-race:
	$(GO) test -race ./internal/discovery/ ./internal/deployserver/ ./internal/netsim/ ./cmd/pvnd/ \
		./internal/health/ ./internal/middlebox/ ./internal/tunnel/ ./internal/openflow/ ./internal/dataplane/ \
		./internal/packet/ ./internal/middlebox/mbx/ ./internal/dnssim/ ./internal/pki/ ./internal/auditor/

# A short seed-corpus + random fuzz pass over every fuzz target in the
# tree, i.e. every parser that handles untrusted bytes: the packet
# decoder and the HTTP/TLS/DNS parsers each chain hop runs on wire bytes,
# the DHT wire envelope (a differential against encoding/json, plus
# its encoder held to json.Marshal) and the offer/module records it carries, the
# distributed-store module manifest, certificate blobs, tunnel frames,
# the PVNC and user-script compilers, the pcap reader, pvnd's DM request
# (whose offer must be well-formed) and its deploy request (which must
# tear down to the host it found) — plus the
# differentials holding the reusable Decoder to a fresh decode, the
# in-place HTTP view to the old string parser, the boxes' packet rewrites
# to the Reserialize oracle, and the TCP reassembler to
# a plain byte array, pii-detect's scan to the reference scan on any
# text and secret list, and tls-verify's per-connection
# state across random segment sequences with FIN and RST. Patterns are anchored:
# go test refuses -fuzz when it matches more than one target.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzDecoderReuse$$' -fuzztime=10s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeEnvelope$$' -fuzztime=10s ./internal/overlay/
	$(GO) test -run='^$$' -fuzz='^FuzzEnvelopeEncode$$' -fuzztime=6s ./internal/overlay/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeModule$$' -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzHTTPDecode$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzHTTPView$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzRewrite$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzTLSDecode$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzDNSDecode$$' -fuzztime=6s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=6s ./internal/pvnc/
	$(GO) test -run='^$$' -fuzz='^FuzzCompileScript$$' -fuzztime=6s ./internal/middlebox/mbx/
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=6s ./internal/pcapio/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeCertificate$$' -fuzztime=6s ./internal/pki/
	$(GO) test -run='^$$' -fuzz='^FuzzDecap$$' -fuzztime=6s ./internal/tunnel/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRecord$$' -fuzztime=6s ./internal/overlay/
	$(GO) test -run='^$$' -fuzz='^FuzzDispatchDM$$' -fuzztime=6s ./cmd/pvnd/
	$(GO) test -run='^$$' -fuzz='^FuzzDeployRequest$$' -fuzztime=6s ./cmd/pvnd/
	$(GO) test -run='^$$' -fuzz='^FuzzReassemble$$' -fuzztime=6s ./internal/reasm/
	$(GO) test -run='^$$' -fuzz='^FuzzTLSVerify$$' -fuzztime=6s ./internal/middlebox/mbx/
	$(GO) test -run='^$$' -fuzz='^FuzzPIIScan$$' -fuzztime=6s ./internal/middlebox/mbx/

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
# but a new per-packet allocation or lock does not. Then re-run E16, the
# overlay, at full size and hold its allocs/op to BENCH_E16.json by the
# same rule.
bench-gate:
	$(GO) run ./cmd/pvnbench -gate BENCH_DATAPLANE.json -quick
	$(GO) run ./cmd/pvnbench -gate BENCH_E16.json

# Re-record the committed dataplane baseline (full-size sweep). Run on a
# quiet machine and commit the resulting BENCH_DATAPLANE.json.
bench-baseline:
	$(GO) run ./cmd/pvnbench -dataplane -bench-json .

# A/B pairs for a claim on bench's workloads: build bench at AB_BASE
# (unpacked with git archive, offline) and from the working tree into
# AB_DIR, run AB_PAIRS alternating pairs of each of AB_WORKLOADS at
# bench's own run length, print `bench -compare` of the two sides and
# the change's win count per end-to-end metric. Writes nothing under
# bench/. Minutes-scale; not part of check.
AB_BASE ?= HEAD
AB_DIR ?= $(or $(TMPDIR),/tmp)/pvn-ab
AB_WORKLOADS ?= fwd_cached
AB_PAIRS ?= 10
ab:
	$(GO) run ./cmd/pvnbench -ab $(AB_BASE) -ab-dir $(AB_DIR) -ab-workloads $(AB_WORKLOADS) -ab-pairs $(AB_PAIRS)

# The pre-merge gate: build, lint, full tests, full race pass, the E16
# and E17 determinism pairs, the short adversarial soak, the soak exit
# gate, short fuzz, and the dataplane and overlay perf gates.
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
