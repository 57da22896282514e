GO ?= go

.PHONY: all build test check fmt vet nodeps surface race allocs determinism golden fuzz load-smoke loc bench-kernel bench-cache bench-sim bench-suite bench-smoke results

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: vet, formatting, the production binaries' imports,
# the dead-surface gate, race-enabled tests (the parallel experiment runner
# and the HA replication machinery must be race-clean), the allocation pins,
# which cannot run under the detector, and the scheduling-independence tests
# on one, two and four cores.
check: vet fmt nodeps surface race allocs determinism

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# nodeps fails if a binary under cmd/ links the testing package: test
# support belongs in _test.go files, which production builds never compile.
nodeps:
	@if $(GO) list -deps ./cmd/... | grep -qx testing; then \
		echo "nodeps: a cmd/ binary links the testing package via:"; \
		$(GO) list -deps -f '{{.ImportPath}}: {{join .Imports " "}}' ./cmd/... | grep -E ' testing( |$$)'; \
		exit 1; \
	fi

# surface type-checks every non-test package and fails when an identifier
# declared under internal/ has no production caller and no line in
# internal/surface/surface.txt giving a reason to keep it, or when a listed
# one gained a caller or is gone; the failure prints the lines to add or
# remove. It is an ordinary test, so `go test ./...` runs it too, but it
# skips itself under -race, where type-checking the module takes over 10 s
# and one goroutine leaves nothing to check.
surface:
	$(GO) test -count=1 ./internal/surface/

# The routeserver, daemon, HA, pgstate, and plan packages run twice under the
# detector: routeserver's parallel miss path overlaps slow searches with
# scoped and full mutations (the reader/writer strategy lock is exactly the
# kind of claim the detector can refute, the shard table's lock-free lookup
# another, and a miss claiming its key against a writer a third); HA
# exercises real sockets,
# elections, and concurrent sync streams; pgstate's shard stress drives one
# table from many goroutines; plan snapshots a server that concurrent
# queries are hammering; a daemon session's reader and writer goroutines
# share the pending reply buffer, eviction and drain. All see different
# interleavings run to run. The experiment runner runs twice more too:
# twenty experiments split into row tasks that share a graph, a policy
# database, an oracle or a workload read-only across goroutines, and a
# task that wrote what another reads would show in some runs only.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'TestRowsAtAnyParallelism|TestRunAllParallelDeterminism' ./internal/experiments/
	$(GO) test -race -count=2 ./internal/routeserver/daemon/
	$(GO) test -race -count=2 -run 'TestMiss|TestParallel|TestQueryLogConcurrent|TestServerConcurrent|TestScopedChurn|TestLockFree|TestMutationStraddling|TestCoalesce|TestLateMiss' ./internal/routeserver/
	$(GO) test -race -count=2 ./internal/routeserver/ha/
	$(GO) test -race -count=2 -run 'TestConcurrent' ./internal/pgstate/
	$(GO) test -race -count=2 ./internal/routeserver/plan/

# The testing.AllocsPerRun pins on the session fast path, the search kernel,
# policy.ADSet, the simulator's message path (a warm SendMessage and
# delivery, a stale flooded copy, IDRP's tie-break) and a small PG table's
# first slab skip themselves under -race (its instrumentation allocates), so
# they get a pass without.
allocs:
	$(GO) test -run 'Allocs' ./internal/wire/ ./internal/routeserver/daemon/ ./internal/synthesis/ ./internal/policy/ ./internal/sim/ ./internal/flood/ ./internal/pgstate/ ./internal/protocols/idrp/

# One synthesis per key per epoch is what makes the E20-E25 counters and the
# parallel runner's output independent of scheduling; the window that broke
# it only opens on real cores, so these run at several GOMAXPROCS, repeated.
# TestMutationStraddlingMissSynthesizesOnce pins the case a mutation used to
# reopen: a miss that claimed its key before the mutation and searches after
# it is joined, not duplicated, by a query issued once the mutation returned.
# The lock-free lookup's contract — a reader sees only what was published,
# and nothing whose eviction had returned — is a claim about real cores too.
determinism:
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestServerDeterministicAtAnyParallelism|TestLateMissServedFromCache|TestMutationStraddlingMissSynthesizesOnce|TestLockFreeReadersVersusWriter' ./internal/routeserver/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestRunAllParallelDeterminism|TestRowsAtAnyParallelism|TestE20RouteServer' ./internal/experiments/

# The committed report must come out byte for byte, serially (one worker:
# the default is one per CPU) and from the parallel runner.
golden:
	$(GO) run ./cmd/experiments -seed 42 -parallel 1 | cmp - results_seed42.txt
	$(GO) run ./cmd/experiments -seed 42 -parallel 8 | cmp - results_seed42.txt

# fuzz runs three native fuzz targets for 15 s each, past the seed corpora
# every `go test` replays: FuzzDecode holds Unmarshal to no panic and to a
# fixed point after one re-encode, FuzzDecoderStream holds the copy,
# in-place and Decoder read paths to the same messages and errors, and
# FuzzFindRoute holds the search kernel, on a differential world the seed
# picks, to the reference search with and without the reach rule. An input
# that fails is written under the package's testdata/fuzz, where `go test`
# replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 15s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoderStream$$' -fuzztime 15s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzFindRoute$$' -fuzztime 15s ./internal/synthesis/

# load-smoke enters where production enters: it builds the real routed once,
# starts it as a daemon on a unix socket, asks the untouched daemon for
# "stats" and "state" through the remote line mode (routed -connect: the only
# check that the shipped binary's operator path reaches a live daemon), and
# runs the load harness with the -churn fail/restore pair over the wire
# against it and once more in process. Both runs must exit 0 (any request error or refused event exits
# 1), the wire report must count no errors, every -bench-json key the two
# modes shared before they were one harness must be in both files, and the
# daemon must drain on SIGTERM. Nothing else checks that the binary's two
# load modes are one harness. A second daemon, started on
# scenarios/policy_change.json, is the operator path for scenarios: a load run
# over the wire must deliver the scenario's policy change (no event errors),
# after which the daemon answers "8 6" with no-route — AD6's only neighbour
# now carries sources 6 and 7 alone. Everything it writes goes to a temp dir.
load-smoke:
	@set -e; tmp=$$(mktemp -d); pid=; pid2=; \
	trap 'kill $$pid $$pid2 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/routed ./cmd/routed; \
	$$tmp/routed -unix $$tmp/sock > $$tmp/daemon.out 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -S $$tmp/sock ] && break; sleep 0.1; done; \
	printf 'stats\nstate\n' | $$tmp/routed -connect $$tmp/sock > $$tmp/op.out \
		&& grep -q '^gen 0:' $$tmp/op.out && grep -q '^conns:' $$tmp/op.out && grep -q '^flows 0' $$tmp/op.out \
		|| { echo "load-smoke: the operator line mode did not reach the daemon"; cat $$tmp/op.out; exit 1; }; \
	$$tmp/routed -load -churn -connect $$tmp/sock -bench-json $$tmp/a.json > $$tmp/a.out; \
	$$tmp/routed -load -churn -bench-json $$tmp/b.json > $$tmp/b.out; \
	grep -q '"errors": 0' $$tmp/a.json && grep -q '"event_errors": 0' $$tmp/a.json \
		|| { echo "load-smoke: wire run reported errors"; cat $$tmp/a.out; exit 1; }; \
	for k in requests served no_route elapsed_ns qps latency_p50 latency_p95 latency_p99; do \
		grep -q "\"$$k\":" $$tmp/a.json && grep -q "\"$$k\":" $$tmp/b.json \
			|| { echo "load-smoke: -bench-json key $$k missing"; exit 1; }; \
	done; \
	kill -TERM $$pid; wait $$pid; pid=; \
	grep -q '^drained:' $$tmp/daemon.out \
		|| { echo "load-smoke: daemon did not drain"; cat $$tmp/daemon.out; exit 1; }; \
	sc=scenarios/policy_change.json; \
	$$tmp/routed -scenario $$sc -unix $$tmp/sock2 > $$tmp/daemon2.out 2>&1 & pid2=$$!; \
	for i in $$(seq 100); do [ -S $$tmp/sock2 ] && break; sleep 0.1; done; \
	$$tmp/routed -load -scenario $$sc -connect $$tmp/sock2 -bench-json $$tmp/c.json > $$tmp/c.out \
		&& grep -q '"event_errors": 0' $$tmp/c.json \
		|| { echo "load-smoke: scenario run over the wire failed"; cat $$tmp/c.out; exit 1; }; \
	printf '8 6\n' | $$tmp/routed -connect $$tmp/sock2 > $$tmp/op2.out && grep -q '^no-route' $$tmp/op2.out \
		|| { echo "load-smoke: the scenario's policy change did not reach the daemon"; cat $$tmp/op2.out; exit 1; }; \
	kill -TERM $$pid2; wait $$pid2; pid2=; \
	grep -q '^drained:' $$tmp/daemon2.out \
		|| { echo "load-smoke: scenario daemon did not drain"; cat $$tmp/daemon2.out; exit 1; }; \
	echo "load-smoke: ok"

# Non-test, non-blank Go lines under internal/ and cmd/: the count a
# simplicity PR quotes before and after.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -cv '^[[:space:]]*$$'

# bench-kernel is the search layer of the ladder, five samples each: a
# search over a held snapshot, split into the tape's searches that find a
# route (found) and those that find none (noroute, which the reachability
# pass settles with no expansion), so each shows where its time goes
# (expansions/op is pinned by TestExpandedPinned, allocs/op by
# TestAllocsFindRoute); a compile (ns/op and B/op: what every mutation and
# every holder whose graph moved pays); and a compile plus a search, which
# is what a compile left inside a loop costs.
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkFindRoute$$|BenchmarkCompile$$|BenchmarkFindRouteOneShot$$' -benchmem -count 5 ./internal/synthesis/

# bench-cache is the serving-cache layer, five samples each: a cached answer
# from one goroutine, from every core on Zipf keys (the two must stay close:
# a hit writes nothing another core reads), and a miss on a capped server
# behind a stub strategy, which is insert, reverse-index upkeep and CLOCK
# eviction with the search taken out.
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkQueryHit$$|BenchmarkQueryHitParallel$$|BenchmarkMissInsertEvict$$' -benchmem -count 5 ./internal/routeserver/

# bench-sim is the discrete-event protocol layer repro_suite times, five
# samples each: E10's 320-constraint row, 200 negotiations over 60 ADs
# (rounds/op is that row's total and must not move), and one IDRP cold start
# to quiescence on E9's largest internet (messages/op and wire-bytes/op are
# E9's idrp row and must not move either).
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkNegotiate$$' -benchmem -count 5 ./internal/ordering/
	$(GO) test -run '^$$' -bench 'BenchmarkIDRPConverge$$' -benchmem -count 5 ./internal/protocols/idrp/

# bench-suite is what repro_suite runs, experiment by experiment, five
# samples each: every table of the report on one worker, with its bytes and
# allocations per run, and the twenty that split into row tasks (all but
# figure1, E13-E17 and E23, which stay whole) once more on one worker per
# CPU. The one-worker time is the experiment's serial cost; the ratio is
# what the fan-out buys here.
bench-suite:
	$(GO) test -run '^$$' -bench 'BenchmarkRows$$' -benchmem -count 5 ./internal/experiments/

# bench-smoke runs every benchmark exactly once — CI uses it to catch
# benchmarks that no longer compile or that crash, without paying for
# real measurement. Each benchmark lives in the package it times and
# writes no file; the checks a benchmark used to make once per CI run
# (the plan engine's cost following blast radius, no request lost across
# an HA primary kill) are tests.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Regenerate the committed golden output for the default seed.
results:
	$(GO) run ./cmd/experiments -seed 42 > results_seed42.txt
