GO ?= go

# Packages exercised by the concurrency-sensitive paths (parallel exhibit
# runner, memoized workloads, allocator scratch state) plus the live
# transfer engine — including the disk (DirStore partial-sidecar
# streaming) and tiered (LRU hot cache over disk) store backends, whose
# tests race concurrent Puts against List walks and snapshots — its
# fault-injection harness, the telemetry layer (whose tests scrape the
# registry while the data path mutates it), the hybrid control plane
# (the pooled vc client, the session broker, and the xferman pool that
# dispatches through them), the control-channel connection pool, the
# token-bucket pacing layer (whose buckets are shared across concurrent
# data streams), the fleet registry/dispatcher (whose scrape loop and
# placement path race against each other by design), the cluster rig
# (whose background-load sessions run beside the test goroutine), and
# the root package whose C10k rig hammers the sharded session registry
# and the per-transfer passive listeners.
RACE_PKGS = ./internal/netsim ./internal/experiments ./internal/sessions \
	./internal/gridftp/... ./internal/faultnet/... ./internal/telemetry \
	./internal/vc/... ./internal/xferman ./internal/connpool \
	./internal/pacing ./internal/fleet ./internal/rig .

.PHONY: check vet vet-ctx rig-lint loc api race flake drills bench bench-c10k bench-store bench-trace bench-paced bench-fleet fuzz-smoke all

all: check

# Tier-1 verify: the whole module must build, every test pass, vet (and
# the context-plumbing lint) stay clean, the transfer engine's fault
# matrix, the telemetry registry, and the hybrid control plane run under
# the race detector, and every fuzz corpus gets a short randomized shake.
# The benchmark is its own module (bench/, outside ./...), so it is
# vetted and tested here too: an API change that breaks its build fails
# CI rather than the next benchmark run.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) vet-ctx
	$(MAKE) rig-lint
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	$(GO) test -race -count=1 ./internal/gridftp/... ./internal/faultnet/... \
		./internal/telemetry ./internal/vc/... ./internal/xferman \
		./internal/connpool ./internal/pacing ./internal/fleet ./internal/rig .
	$(MAKE) fuzz-smoke

# Fuzz smoke: run each data-plane fuzz target, and the session policy's
# agreement with sessions.Group, briefly on top of its committed seed
# corpus. go test accepts a single -fuzz pattern per
# invocation, hence the loop. Override FUZZ_TIME for longer campaigns
# (e.g. make fuzz-smoke FUZZ_TIME=5m).
FUZZ_TIME ?= 10s
FUZZ_TARGETS = gridftp:FuzzReadBlock gridftp:FuzzReadBlockInto gridftp:FuzzFrameReader \
	gridftp:FuzzWindowAssembler gridftp:FuzzAssembler gridftp:FuzzDrainConn \
	gridftp:FuzzParseHostPort gridftp:FuzzDirStorePutRegion gridftp:FuzzMemStore \
	pacing:FuzzBucketRefill core:FuzzSessionPolicy
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fz=$${t##*:}; \
		echo "fuzz-smoke: $$pkg/$$fz ($(FUZZ_TIME))"; \
		$(GO) test ./internal/$$pkg/ -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZ_TIME) >/dev/null || exit 1; \
	done

vet:
	$(GO) vet ./...

# Context-plumbing lint: every exported blocking method on the hybrid
# control plane's core types (vc.Client, broker.Broker, xferman.Manager),
# the control-channel pool (connpool.Pool, whose Get and GetPair dial),
# the pacing layer (pacing.Bucket, pacing.Limiter), and the fleet
# (fleet.Dispatcher, fleet.Registry — whose Place and ScrapeNow issue
# network RPCs) must take a context.Context first, so no caller can be
# left without a cancellation path. Accessors, teardown, and
# non-blocking bucket arithmetic are exempt by name.
CTX_EXEMPT = Addr|ProtocolVersion|Close|Disposition|End|Sessions|String|Result|OnRateChange|SetRate|Rate|Burst|Waited|With|Registry|Snapshot|Stats
vet-ctx:
	@bad=$$(grep -nE '^func \([A-Za-z] \*(Client|Broker|Manager|Lease|Bucket|Limiter|Dispatcher|Registry|Pool)\) [A-Z][A-Za-z]*\(' \
		internal/vc/*.go internal/vc/broker/*.go internal/xferman/*.go \
		internal/connpool/*.go internal/pacing/*.go internal/fleet/*.go \
		| grep -v '_test.go:' \
		| grep -vE '\(ctx context\.Context' \
		| grep -vE '\) ($(CTX_EXEMPT))\('); \
	if [ -n "$$bad" ]; then \
		echo "$$bad"; \
		echo "vet-ctx: exported blocking methods must take a context.Context first parameter"; \
		exit 1; \
	fi

# Cluster-rig lint: drills and tests outside internal/gridftp build
# their loopback clusters with internal/rig, whose one teardown carries
# the leak census; a hand-rolled server, daemon or hub endpoint in these
# files is a cluster the census never sees.
rig-lint:
	@bad=$$(grep -nE 'gridftp\.Serve\(|oscarsd\.Start\(|\.ListenAndServe\("127\.0\.0\.1:0"\)' \
		examples/*/*.go *_test.go internal/xferman/*_test.go internal/connpool/*_test.go); \
	if [ -n "$$bad" ]; then \
		echo "$$bad"; \
		echo "rig-lint: build loopback clusters with internal/rig (rig.New / rig.Main)"; \
		exit 1; \
	fi

# Non-test Go lines per package (directory), largest first: the figure a
# PR's size claim quotes ("internal/gridftp 5,252 -> 4,898"), so the
# claim is re-derivable by one command. Raw lines, comments included.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec dirname {} \; | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $${d#./}; \
	done | sort -k1,1nr -k2

# Exported surface of the live transfer stack and of the VC decision
# rule with its live user (core's SessionPolicy, vc/broker), one block
# per package:
# the listing a PR's "the API only shrank" claim quotes, re-derivable
# from the CI log the way `make loc` makes its line-count claim. The
# one-line declarations are followed by every exported struct's field
# block (go doc -all, comment and blank lines dropped), since -short
# folds those to `struct{ ... }` and would hide an added Config field.
API_PKGS = ./internal/gridftp ./internal/connpool ./internal/xferman \
	./internal/core ./internal/vc/broker
api:
	@for p in $(API_PKGS); do \
		echo "== $$p"; $(GO) doc -short $$p || exit 1; \
		$(GO) doc -all $$p | awk '/^type [A-Z][A-Za-z0-9_]* struct \{$$/ { on = 1 } \
			on && !/^[[:space:]]*(\/\/|$$)/ { print } /^\}$$/ { on = 0 }'; \
		echo; \
	done

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Flake gate: the live packages' tests repeated, so an ordering bug that
# passes most runs (a reply written before the server has finished, a
# pool slot released late) fails CI instead of one run in thirty.
# -short skips the long single-shot measurements (xferman's 10^4-job
# heap soak), which plain `go test ./...` still runs once. The drain
# loops' shared hold state (blocks waiting in their frame buffers for a
# sibling's gap) is repeated under the race detector too.
FLAKE_COUNT ?= 10
flake:
	$(GO) test -short -count=$(FLAKE_COUNT) ./internal/gridftp/ ./internal/connpool/ ./internal/xferman/ \
		./internal/vc/... ./internal/rig
	$(GO) test -race -count=$(FLAKE_COUNT) -run 'Drain|Striped|Window|Hold' ./internal/gridftp/

# Drill smoke: every example is self-checking (log.Fatal on any wrong
# result) and the live ones, through rig.Main().Close(), census-checked,
# so running each to completion is their test.
DRILLS = livetransfer livehybrid liveqos livetrace livefleet streamresume \
	quickstart hybridengine vcscheduling
drills:
	@for d in $(DRILLS); do \
		echo "drills: $$d"; \
		timeout 60 $(GO) run ./examples/$$d >/dev/null || exit 1; \
	done

# One iteration of every root benchmark, machine-readable, for
# before/after comparisons across PRs. Override BENCH_OUT to record a
# new snapshot (e.g. make bench BENCH_OUT=BENCH_4.json).
BENCH_OUT ?= BENCH_3.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x -json . | tee $(BENCH_OUT)

# Storage-backend throughput: streaming RETR/STOR of an 8 MiB object
# against mem, dir, and tiered stores — the server-side half of the
# paper's endpoint quadrants. Machine-readable snapshot for cross-PR
# comparison; override STORE_BENCH_OUT to re-record.
STORE_BENCH_OUT ?= BENCH_7.json
bench-store:
	$(GO) test ./internal/gridftp/ -run '^$$' -bench '^BenchmarkStore' \
		-benchmem -count=1 -json | tee $(STORE_BENCH_OUT)

# The C10k live-engine ramp: thousands of in-memory control sessions
# against one server, dial/first-byte percentiles from telemetry spans,
# and the pooled-vs-redial A/B. Set C10K_XL=1 for a 100k plateau.
C10K_OUT ?= BENCH_6.json
bench-c10k:
	C10K_OUT=$(C10K_OUT) $(GO) test -run '^TestC10kReport$$' -count=1 -v -timeout 20m .

# Tracing overhead A/B: the same pooled transfer workload with tracing
# off and on, per-job latency percentiles and the overhead on the mean
# (budget: <= 5%). Machine-readable snapshot for cross-PR comparison.
TRACE_OUT ?= BENCH_8.json
bench-trace:
	TRACE_OUT=$(TRACE_OUT) $(GO) test -run '^TestTraceOverheadReport$$' -count=1 -v -timeout 10m .

# Pacing A/B: staggered concurrent transfers unshaped vs token-bucket
# shaped (completion-time spread must drop >= 3x), plus a VC-dispatched
# xferman job that must run within 10% of the broker's reserved rate —
# the live check that reservations are enforced, not advisory.
PACED_OUT ?= BENCH_9.json
bench-paced:
	PACED_OUT=$(PACED_OUT) $(GO) test -run '^TestPacedReport$$' -count=1 -v -timeout 10m .

# Fleet placement A/B: M managed jobs across three rate-capped replicas
# with one replica loaded, dispatched round-robin vs by the Eq. 2
# contention model (completion-time spread or tail must drop >= 2x) —
# the live check that load-aware placement beats blind distribution.
FLEET_OUT ?= BENCH_10.json
bench-fleet:
	FLEET_OUT=$(FLEET_OUT) $(GO) test -run '^TestFleetReport$$' -count=1 -v -timeout 10m .
