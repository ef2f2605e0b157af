# Tier-1 gate: `make verify` must pass before merging.
#
#   vet          go vet ./..., gofmt -l . must list no file, and the count
#                of //nolint:errcheck sites in non-test code outside bench/
#                must not exceed NOLINT_MAX (a ratchet: lower it with every
#                site handled, never raise it)
#   build        go build ./...
#   test         go test -race ./... (full suite under the race detector).
#                Besides the unit tests it holds the end-to-end checks: the
#                root package's Example functions, whose printed scenario
#                figures and provenance trees must match their // Output:
#                blocks; cmd/provd's tests, which boot provd's own main as a
#                child process over real HTTP (cold + cached query per
#                scheme, span trees, /metrics, a load phase) and through
#                kill -9 and SIGTERM restarts on one -data-dir; and
#                provserve's same-class-writer cache floor and per-scenario
#                multi-tenant soak
#   allocs       the per-hop allocation budgets (testing.AllocsPerRun), which
#                skip themselves under the race detector: types.HashTuple,
#                types.RuleExecID and a warmed wire.Encoder.Tuple allocate
#                0, a tuple made
#                only of names decodes through a name table into its Args
#                slice alone, the receive dedup filter allocates 0 for a
#                sender it tracks, a rule evaluation 0 unless it fires and
#                <=3 per firing (1 into a shard worker's warm buffers), a
#                scheme's FireAt <=1 per stored firing, one untraced
#                pipeline step on Forwarding and on BGP stays under its
#                stated budget
#                and, run with ship=false as WAL replay and shadow applies
#                run it, encodes nothing, the pooled batch encode path
#                stays at 0, and so does a warmed WAL append; replaying
#                a WAL allocates as often for 1 024 records as for 16
#   fuzz-smoke   every Fuzz* target of the packages that decode bytes from
#                outside the process (types, wire, cluster, store, ndlog,
#                provserve), a few seconds each from its seeded corpus —
#                the decoders behind the socket, the WAL, the snapshot
#                files, the snapshot payload loader (checkpoints, handoffs,
#                read-repair), the replicated-record replayer, the parser
#                and the HTTP event and query bodies must not panic, the
#                two payload decoders must not allocate by a decoded
#                count, what the decoders accept must re-encode to
#                itself, a tuple decoded through a name table must equal
#                its plain decode, and an event record no owner logs must
#                replay as a no-op
#   chaos        the seeded fault-injection suite, race-enabled, no test cache:
#                every test that sets a FaultPlan (its -run regex must
#                select each one; check with go test -list), plus the
#                kill/restart, malformed-frame and Quiesce tests
#
# `make bench` is not part of the gate: it runs the Go microbenchmarks and
# the benchmark BENCHMARK.json declares (go run ./bench; see bench/README.md).
#
# A FaultPlan wraps each link's connection: a drop fails the write, a
# delay stalls it (past the write deadline, into a timeout), a reset tears
# the frame and closes the socket, and the transport recovers through its
# one failure path. The chaos tests use fixed FaultPlan seeds, so a
# failure reproduces deterministically; -count=1 defeats the test cache to
# make sure the transport actually runs every time.

GO ?= go
NOLINT_MAX := 21

.PHONY: verify vet build test allocs fuzz-smoke chaos bench

verify: vet build test allocs fuzz-smoke chaos

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
	$(GO) test -count=1 -run 'Allocs$$' ./internal/types/ ./internal/wire/ ./internal/engine/ ./internal/core/ ./internal/cluster/ ./internal/store/

# go test -fuzz takes one package and one target at a time.
fuzz-smoke:
	@set -e; for pkg in internal/types internal/wire internal/cluster internal/store internal/ndlog internal/provserve; do \
		for target in $$($(GO) test -list '^Fuzz' ./$$pkg | grep '^Fuzz'); do \
			echo "fuzz ./$$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 3s ./$$pkg; \
		done; \
	done

chaos:
	$(GO) test -race -count=1 -run 'Chaos|Malformed|Quiesce|Restart|LateResult|Fault|HaltSettles|ByteClassesFollow|ClusterThroughFacade' . ./internal/cluster/ ./internal/provserve/

# Go microbenchmarks plus the repo's benchmark (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./internal/engine/ ./internal/cluster/
	$(GO) run ./bench
