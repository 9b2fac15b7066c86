# Development targets for the skewjoin reproduction.

GO ?= go

.PHONY: all build vet test race lint lint-fixtures test-sanitize check fuzz bench bench-smoke bench-coproc bench-coproc-smoke bench-shard bench-shard-smoke bench-stream bench-stream-smoke experiments examples serve-smoke cluster-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project-specific static analysis: the per-statement analyzers (atomic
# consistency, context propagation, hot-path allocations, lock
# discipline) plus the CFG/dataflow analyzers (lock-order,
# goroutine-leak, err-drop, retry-discipline); see DESIGN.md §4c.
# -unused-ignores makes stale suppressions fail the gate too.
lint:
	$(GO) run ./cmd/skewlint -unused-ignores ./...

# Each analyzer against its positive fixture, asserting exact findings.
lint-fixtures:
	$(GO) test ./internal/lint -run TestFixtures -v

# Run the whole suite with the sanitizer assertions compiled in
# (chain-cycle detection, scatter bounds, ring geometry).
test-sanitize:
	$(GO) test -tags sanitize ./...

# The pre-PR gate: everything CI checks that runs in minutes, locally.
check: build vet lint test test-sanitize
	test -z "$$(gofmt -l .)"

# 60 seconds of differential fuzzing against the oracle.
fuzz:
	$(GO) test -fuzz=FuzzJoinMatchesOracle -fuzztime=60s .

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash, without waiting for stable timings (CI runs this).
bench-smoke:
	$(GO) test -bench . -benchtime 1x ./...

# Co-processing sweep (zipf x placement policy) of the
# cost-model split executor against its pinned single-backend controls;
# writes the machine-readable baseline committed as BENCH_coproc.json.
# The harness exits non-zero if the model policy measurably loses to the
# better control in any cell. -shm 8 reproduces the paper's
# skew-to-shared-memory pressure at this reduced scale (see README).
# -threads 4 models a 4-core host (the executor's hybrid clock divides
# CPU busy time by the worker count), putting the CPU within a small
# multiple of the coupled GPU — the co-processing regime the paper
# targets, and the one where the deep-skew cells must fragment the hot
# partition to beat the single-backend controls.
bench-coproc:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp coproc -n 131072 -threads 4 -repeats 3 -shm 8 -out BENCH_coproc.json

# Tiny oracle-verified coproc run for CI: exercises a degenerate cell and
# a must-fragment deep-skew cell once each under every policy,
# checks the regression and fragment gates, and asserts the JSON artifact
# carries the measured makespans, the fragment markers, the host (env) and
# the A/A spread. -minwin 1
# lowers the 25ms absolute win floor, meaningless at this tiny size.
bench-coproc-smoke:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp coproc -n 8192 -threads 4 -repeats 1 -shm 8 -minwin 1 -zipf 0,1.2 -out /tmp/BENCH_coproc.json
	grep -q '"makespan_ns"' /tmp/BENCH_coproc.json
	grep -q '"predicted_makespan_ns"' /tmp/BENCH_coproc.json
	grep -q '"calibration"' /tmp/BENCH_coproc.json
	grep -q '"fragmented": true' /tmp/BENCH_coproc.json
	grep -q '"env"' /tmp/BENCH_coproc.json
	grep -q '"spread"' /tmp/BENCH_coproc.json

# Sharded-tier sweep (zipf x routing policy on an in-process 3-shard
# fleet with an A/A hash control); writes the machine-readable baseline
# committed as BENCH_shard.json. The harness exits non-zero if frag does
# not beat both hash runs at the deepest skew point, or regresses
# elsewhere (see internal/bench/shard.go).
bench-shard:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp shard -n 65536 -repeats 3 -out BENCH_shard.json

# Tiny oracle-verified shard run for CI: exercises every (zipf, policy)
# cell, checks the routing shapes and the deep-skew gate, and asserts the
# JSON artifact carries the per-shard breakdown, the host (env) and the A/A
# spread.
bench-shard-smoke:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp shard -n 16384 -repeats 2 -out /tmp/BENCH_shard.json
	grep -q '"makespan_ns"' /tmp/BENCH_shard.json
	grep -q '"per_shard_ns"' /tmp/BENCH_shard.json
	grep -q '"resolved"' /tmp/BENCH_shard.json
	grep -q '"env"' /tmp/BENCH_shard.json
	grep -q '"spread"' /tmp/BENCH_shard.json

# Streaming-join sweep (zipf x limit fraction x operator, with an A/A
# streaming control); writes the machine-readable baseline committed as
# BENCH_stream.json. The harness exits non-zero if the streaming
# operator's time-to-limit is not 4x ahead of the blocking control at
# small limits, or a no-limit streaming run regresses past parity (see
# internal/bench/stream.go).
bench-stream:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp stream -n 131072 -repeats 3 -out BENCH_stream.json

# Tiny oracle-verified stream run for CI: exercises every (zipf, limit,
# operator) cell, checks terminations against the oracle, and asserts the
# JSON artifact carries the milestone clocks, the host (env) and the A/A
# spread.
bench-stream-smoke:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp stream -n 8192 -repeats 1 -out /tmp/BENCH_stream.json
	grep -q '"time_to_first_ns"' /tmp/BENCH_stream.json
	grep -q '"time_to_limit_ns"' /tmp/BENCH_stream.json
	grep -q '"limit_hit"' /tmp/BENCH_stream.json
	grep -q '"env"' /tmp/BENCH_stream.json
	grep -q '"spread"' /tmp/BENCH_stream.json

# Regenerate every table and figure of the paper (plus extensions).
experiments:
	$(GO) run -buildvcs=true ./cmd/skewbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/graphjoin
	$(GO) run ./examples/skewsweep
	$(GO) run ./examples/devicetuning
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/planner

# End-to-end smoke test of the join daemon: build skewjoind/skewjoinctl,
# register relations, run an auto join, force a 429, check /stats.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the sharded tier: build the daemon, router and
# client, start 3 shards plus a router and a single-node control, then
# assert the fleet's answers (summary, count, topk, both routings) are
# byte-identical to the single node's, drain a shard gracefully, and
# check /cluster/stats.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# The artifacts recorded in EXPERIMENTS.md.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f r.skjr s.skjr
