# Tier-1 gate: `make verify` must pass before merging.
#
#   vet          go vet ./..., gofmt -l . must list no file, and the count
#                of //nolint:errcheck sites in non-test code outside bench/
#                must not exceed NOLINT_MAX (a ratchet: lower it with every
#                site handled, never raise it)
#   build        go build ./...
#   test         go test -race ./... (full suite under the race detector,
#                including the root package's Example functions, whose
#                printed scenario figures and provenance trees must match
#                their // Output: blocks)
#   allocs       the per-hop allocation budgets (testing.AllocsPerRun), which
#                skip themselves under the race detector: types.HashTuple
#                and a warmed wire.Encoder.Tuple allocate 0, a rule
#                evaluation 0 unless it fires and <=3 per firing, one
#                untraced pipeline step stays under its stated budget
#                and, run with ship=false as WAL replay and shadow applies
#                run it, encodes nothing, and the pooled batch encode path
#                stays at 0
#   fuzz-smoke   every Fuzz* target of the packages that decode bytes from
#                outside the process (types, wire, cluster, store, ndlog),
#                a few seconds each from its seeded corpus — the decoders
#                behind the socket, the WAL, the snapshot files, the
#                snapshot payload loader (checkpoints, handoffs,
#                read-repair), the replicated-record replayer and the
#                parser must not panic, the two payload decoders must not
#                allocate by a decoded count, and what the decoders
#                accept must re-encode to itself
#   chaos        the seeded fault-injection suite, race-enabled, no test cache
#   serve-smoke  provd end to end over real HTTP: boot on a random port
#                with tracing on, inject a workload, cold + cached query
#                per scheme (the cached one must be >=10x faster), fetch
#                + validate each query's span tree from /v1/trace/{id},
#                scrape /metrics and assert non-zero counters, then a
#                short Zipf load phase
#   recover-smoke  crash-recovery end to end against real processes: boot a
#                child provd on a temp -data-dir, inject + record every
#                provenance tree, kill -9 mid-load, reboot and require WAL
#                replay plus identical trees, then a clean SIGTERM
#                (checkpoint) followed by a zero-replay boot
#   elastic-smoke  the membership lifecycle on a small replicated cluster:
#                rendezvous ownership movement at 1000 simulated members,
#                then boot 5 live nodes with 2 replicas and walk through
#                kill (replica failover), restart (read-repair), two joins
#                and a leave (partition handoff) with provenance queries
#                answering and byte-class accounting exact at every step
#   cache-smoke  the keyed-invalidation floor at reduced scale: a mixed
#                read/write workload (Zipf readers racing a sustained
#                writer into the very equivalence class every read
#                target belongs to) against the dependency-indexed
#                cache, which must hold a hit rate > 0.5 with the writer
#                landing events throughout
#   soak-smoke   the multi-tenant scenario soak at reduced scale: every
#                registered DELP scenario (forwarding, bgp, gossip) runs
#                bursty ingest, Zipf queries from a well-behaved and an
#                over-quota tenant (only the greedy one may see 429s), a
#                deletion storm with restore, and a cache drain (one
#                delete/restore wave over the injected events) — then
#                the graveyard, cache-entry, dep-key, and trace-span
#                gauges must all be back at their baselines
#
# `make bench` is not part of the gate: it runs the Go microbenchmarks and
# the benchmark BENCHMARK.json declares (go run ./bench; see bench/README.md).
#
# The chaos tests use fixed FaultPlan seeds, so a failure reproduces
# deterministically; -count=1 defeats the test cache to make sure the
# transport actually runs every time.

GO ?= go
NOLINT_MAX := 41

.PHONY: verify vet build test allocs fuzz-smoke chaos serve-smoke bench recover-smoke elastic-smoke cache-smoke soak soak-smoke

verify: vet build test allocs fuzz-smoke chaos serve-smoke recover-smoke elastic-smoke cache-smoke soak-smoke

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi
	@n=$$(grep -r --include='*.go' --exclude='*_test.go' --exclude-dir=bench -c 'nolint:errcheck' . | awk -F: '{s+=$$2} END {print s}'); \
	if [ "$$n" -gt $(NOLINT_MAX) ]; then echo "$$n //nolint:errcheck sites, ratchet is $(NOLINT_MAX)"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

allocs:
	$(GO) test -count=1 -run 'Allocs$$' ./internal/types/ ./internal/wire/ ./internal/engine/ ./internal/cluster/

# go test -fuzz takes one package and one target at a time.
fuzz-smoke:
	@set -e; for pkg in internal/types internal/wire internal/cluster internal/store internal/ndlog; do \
		for target in $$($(GO) test -list '^Fuzz' ./$$pkg | grep '^Fuzz'); do \
			echo "fuzz ./$$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 3s ./$$pkg; \
		done; \
	done

chaos:
	$(GO) test -race -count=1 -run 'Chaos|Malformed|Quiesce|Restart|LateResult' ./internal/cluster/ ./internal/provserve/

serve-smoke:
	$(GO) run ./cmd/provd -selftest -nodes 5 -trace

# Go microbenchmarks plus the repo's benchmark (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./internal/engine/ ./internal/cluster/
	$(GO) run ./bench

recover-smoke:
	$(GO) run ./cmd/provd -recover-smoke

elastic-smoke:
	$(GO) run ./cmd/provsim -elastic-nodes 5 -elastic-replicas 2 elastic

cache-smoke:
	$(GO) run ./cmd/provsim -bench-smoke cache

# Full-scale multi-tenant scenario soak (soak-smoke is the verify-gated
# reduced-scale variant).
soak:
	$(GO) run ./cmd/provsim soak

soak-smoke:
	$(GO) run ./cmd/provsim -bench-smoke soak
