#!/bin/sh
# CI gate: everything here must pass before a change lands. Kept to the Go
# toolchain only — no external dependencies.
set -eux

go build ./...
go vet ./...
# Off Linux every TCP connection keeps its reader goroutine
# (internal/nexus/rawio_other.go); nothing else builds that code.
GOOS=darwin go vet ./...
GOOS=windows go vet ./...
test -z "$(gofmt -l .)"
# Size ceilings: a package's non-test Go lines, counted as ROADMAP counts
# them. A change that needs more lines there raises the ceiling and says why.
for ceiling in internal/nexus:2676 internal/bench:1252 internal/apps:636 internal/apps/pipeline:333 internal/apps/linsolve:248 internal/apps/dnadb:229; do
	pkg="${ceiling%:*}"
	lines="$(cat $(ls "$pkg"/*.go | grep -v '_test\.go$') | wc -l)"
	echo "$pkg: $lines non-test lines"
	test "$lines" -le "${ceiling#*:}"
done
# The figure harness and the applications it shares with the examples are
# written against what pardis-idl generates: their tables come from IDL and
# their servants implement the generated typed interfaces. No hand-built
# operation table or servant that dispatches on the operation's name may
# come back into their own files, nor into the launchers that deploy them
# (the generated subpackages benchidl, linsolveidl and dnadbidl are not
# among them).
bench_hand_built="$(grep -nE 'core\.InterfaceDef\{|poa\.ServantFunc|op string, in \[\]any' $(ls internal/bench/*.go internal/apps/*.go internal/apps/pipeline/*.go internal/apps/linsolve/*.go internal/apps/dnadb/*.go | grep -v '_test\.go$') || true)"
test -z "$bench_hand_built"
# Each of the paper's applications exists once: its servants are in
# internal/apps/pipeline, internal/apps/linsolve or internal/apps/dnadb,
# which Figures 5, 2 and 4 and the examples deploy. No second copy of the
# visualizer, gradient, solver, database or list servant may appear beside
# the generated stubs.
servant_copies="$(grep -rnE 'func \([^)]*\) (Show|Gradient|Solve|Search|Match)\([^)]*\*poa\.Context' --include='*.go' . | grep -v 'zz_generated\.go:' | grep -vE '^\./internal/apps/(pipeline|linsolve|dnadb)/' || true)"
test -z "$servant_copies"
# The runtime links no HTTP server, TLS stack or profiler: of the repo's
# packages only the debug endpoint's (internal/obs/obshttp) and the two
# commands that start it may have net/http among their dependencies.
http_linkers="$(go list -f '{{.ImportPath}}{{range .Deps}}{{if eq . "net/http"}} net/http{{end}}{{end}}' ./... | awk 'NF > 1 { print $1 }')"
echo "packages linking net/http: $(echo "$http_linkers" | grep -c .)"
test -z "$(echo "$http_linkers" | grep -Fvx -e pardis/internal/obs/obshttp -e pardis/cmd/pardis-reg -e pardis/cmd/pardis-bench)"
go test ./...
go test -race ./...
# The packages that hold no process-global selector any more, in random
# order, three times: an order-dependent test there has nothing to hide behind.
go test -shuffle=on -count=3 ./internal/core ./internal/rts ./internal/bench ./internal/apps/... ./internal/dseq ./internal/future ./internal/dist
# The one rts mailbox, over the in-process and the TCP fabric, the one
# wake-up a POA computing thread parks on for both of its endpoints, and the
# agreement that fills a sibling's mailbox only with announcements: the
# non-consuming arrival probe, no empty phase in ImplIsReady under a flood of
# SPMD calls or on a one-thread adapter, and a lockstep ProcessRequests.
go test -race -count=5 -timeout 300s -run 'Mailbox|SiblingWakes|BcastArrived|AgreementFlood|SkipsEmptyPhases|StaysLockstep' ./internal/rts ./internal/poa
# Record and frame lifetime (DESIGN.md §7) under the race detector, which
# poisons recycled call records and overwrites recycled frames with 0xDB:
# - the client's call records, recycled by the owning thread: cancels from
#   other goroutines racing replies and expiries, cells that park without a
#   pump, and the dispatch pool's accounting;
# - the lock-free cell (one atomic state word, a driver its first parked
#   waiter installs when it has no pump, a scalar first result kept unboxed
#   in its word): readers racing its resolution, the word read against what
#   the boxed path decodes, and a cancel waking an owner parked in a
#   blocking receive;
# - frames: kept values survive thousands of recycled frames, every released
#   frame goes back to the pool exactly once and no other does, large and
#   unpooled frames are still borrowed;
# - the one dispatch step: a co-located call ends as the same call over the
#   wire does, and the segments of SPMD calls that are never collected are
#   freed once their binding's next call is dispatched.
# -count=25 because the cell and cancel tests are both record checks (5
# runs) and cell checks (20).
go test -race -count=25 -timeout 300s -run 'Record|Pending|Cancel|Cell|PoolGrows|Future|Scalar|Word|Recycl|StillBorrows|Colocated|SegmentFlood' ./internal/core ./internal/future ./internal/nexus ./internal/poa
# The one timed wait (DESIGN.md §12): every wall-clock deadline wakes on the
# frame it waits for and never gives up before its instant, a virtual-clock
# deadline receive ends on the exact instant, and an endpoint has one waiter.
go test -race -count=20 -timeout 300s -run 'TimedWaits|DeadlineRecvWakes|WaiterWatch|PumpedWaitTimeout|SharedRouterOneRegistration' ./internal/poa ./internal/rts ./internal/nexus ./internal/future

# The repo benchmark is a module of its own, so nothing above builds it.
# This lane is what notices a runtime change that breaks its build or its
# endpoint decorator, or that moves idlgen output away from the committed
# benchmark/zz_generated.go (TestGeneratedUpToDate). Its smoke test runs all
# six workloads verified, which makes it the lane that exercises segment
# fan-out, streamed transfers and the dispatch pool under real concurrency.
(cd benchmark && go vet . && go test .)

# Ledger lane: a short plain run of the benchmark (3 x 2 s per workload, no
# traced pass, results written outside the tree) compared with the newest
# committed BENCH_<pr>.json. "worse" on a listed workload fails the build;
# "unresolved" and the provisional workloads' verdicts only print. 2 s is the
# shortest repetition tried on the 2-vCPU development box, and gave no
# "worse" (and no "unresolved") in five consecutive runs against
# BENCH_22.json, and none in three against BENCH_23.json; a committed file
# from another machine is not a baseline —
# regenerate it there first (cd benchmark && go run . -json ../BENCH_<pr>.json).
ledger="$(mktemp -d)"
newest="$(ls BENCH_*.json | sort -V | tail -1)"
(cd benchmark &&
	go run . -dur 2s -reps 3 -trace-dur 0 -out "$ledger" -json "$ledger/ledger.json" > /dev/null &&
	go run . -compare "../$newest" "$ledger/ledger.json")
rm -rf "$ledger"

# Smoke-run the figure harness — every pardis-bench figure, once — and keep
# its JSON summary as a CI artifact.
go run ./cmd/pardis-bench -quick -json > bench-summary.json

# One-shot pass over the schedule-cache micro-benchmark, the pipelined TCP
# round trip (every echo verified, through the deferred-flush path) and the
# request and reply header codecs, so a broken concurrent path or codec fails
# CI even when the unit tests are green.
go test -run NONE -bench 'ScheduleCache|ORBPipelinedTCP|RequestCodec|ReplyCodec' -benchtime 1x . ./internal/pgiop

# Same for the tree collectives and the single-frame dispatch agreement.
go test -run NONE -bench 'Bcast|AllGather|Barrier' -benchtime 1x ./internal/rts
go test -run NONE -bench 'DispatchAgreement' -benchtime 1x ./internal/poa

# Fault lane: every fault-injection / deadline / recovery test under the
# race detector (their whole point is timing races between sweeps, retries,
# late replies, and peer death).
go test -race -run Fault -count=1 ./internal/nexus ./internal/rts ./internal/poa
# Every fuzz target in the tree, 10 s each, found by listing them: the
# decoders a peer can reach (cdr, pgiop, dist layouts, the TCP frame stream
# and address parser, rts frames, the POA's agreement frame, typecode
# borrow = copy, IORs, the cell's word decode, the one segment applier,
# registry digests) on arbitrary bytes, and the IDL front end on arbitrary
# source — no panic, no allocation sized by an unchecked length field. A
# target added later runs here unlisted.
go test -list '^Fuzz' ./... |
	awk '/^Fuzz/ { f[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, f[i]; n = 0 }' |
	while read -r pkg target; do
		go test -run NONE -fuzz "^$target\$" -fuzztime 10s "$pkg"
	done
# The TCP fabric's deferred flush and read role (DESIGN.md §12): delivery
# without a second call, order, flush-on-Close, flusher lifecycle; reading
# in place, its hand-over to a reader goroutine, wake-ups and the flood of
# two in-place endpoints — repeated, on one and two processors, because who
# writes and who reads a frame are scheduling outcomes. The read role's
# rules themselves are checked over every interleaving by the tier-1
# explorer (TestReadRoleExplorer, TestReadRoleMutations).
go test -race -count=10 -cpu 1,2 -timeout 300s -run 'Defer|Flusher|CloseFlush|InPlace|FromCache|BeyondDuration' ./internal/nexus ./internal/rts ./internal/core
# And the policy end to end, where the adapter's take loop is what keeps the
# server's backlog in the inbox the policy looks at: at least 8 frames per
# write(2) for a depth-32 caller, pooled server and serial, on one processor
# and on two; a blocking call and the idle adapter serving it park in
# their read of the connection without polling it first; and a reply
# deferred for a sibling never waits for it.
go test -count=1 -cpu 1,2 -run 'TestPipelinedCallsShareWrites|TestBlockingCallWaitsInOneRead' .
go test -race -count=5 -run TestDeferredReplyDoesNotWaitForSibling ./internal/poa

# Seeded chaos soak: the dead-rank and lossy-network scenarios repeated
# under fixed injection seeds. Deterministic schedules, so a failure here
# reproduces with the same -count and seed corpus; includes the
# goroutine-leak check after every iteration.
go test -run FaultChaosSoak -count=20 ./internal/poa

# Fan-in lane: the end-to-end gate over the connection-scale figure (client
# channels multiplexed over shared sockets vs one socket per client),
# asserting 10k clients ride few connections with a >= 10x per-connection
# resident-memory advantage over the baseline.
go test -run TestFaninGate -count=1 .

# Serve lane: the gate over the replicated-group serving figure (healthy /
# replica-killed / overload with and without POA admission control),
# asserting >= 99% idempotent completion through a mid-run kill, dead-member
# expiry within the registry TTL, and shed p99 strictly under the
# no-admission p99. The chaos soak repeats the wall-clock kill/failover
# scenario under the race detector with the leak check.
go test -run TestServeGate -count=1 .
go test -race -run TestGroupChaosFailoverSoak -count=3 .

# Observability lane: a tracing-enabled bench run must complete and export
# a non-empty Chrome trace (the 4-rank SPMD span chain is asserted by
# internal/poa/trace_test.go); the overhead guard must hold — allocs/op
# always, ns/op too under PARDIS_OVERHEAD_GATE=1 — and every metric name
# registered anywhere in the linked tree must be unique and well-formed.
go run ./cmd/pardis-bench -fig 4 -quick -trace trace.json > /dev/null
test -s trace.json
PARDIS_OVERHEAD_GATE=1 go test -run 'TestTracingOverheadGate|TestMetricNameHygiene' -count=1 .

# Obs-plane lane: the gate over the flight-recorder / federation figure
# (tail-retention recall under a mixed load, federation-page scrape cost),
# asserting >= 95% of interesting traces retained, the boring bulk
# recycled, and the retained set within its configured bound.
go test -run TestObsPlaneGate -count=1 .
