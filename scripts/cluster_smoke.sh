#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the sharded tier.
#
# Builds skewjoind, skewrouter and skewjoinctl, starts three shards plus
# a router in front of them and a separate single-node daemon as the
# control, registers the same skewed workload on both tiers, and asserts
# the fleet's answers — summary, count and topk, under both hash and
# fragment-and-replicate routing — are identical to the single node's.
# Then it exercises the operational paths: /cluster/stats aggregation,
# router-side shedding surfaced as 429, and a shard's graceful drain.
set -eu

BASE="${SKEWROUTER_SMOKE_PORT:-18410}"
ROUTER_ADDR="localhost:$BASE"
SINGLE_ADDR="localhost:$((BASE + 1))"
S0="localhost:$((BASE + 2))"
S1="localhost:$((BASE + 3))"
S2="localhost:$((BASE + 4))"
BIN="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT

go build -o "$BIN/skewjoind" ./cmd/skewjoind
go build -o "$BIN/skewrouter" ./cmd/skewrouter
go build -o "$BIN/skewjoinctl" ./cmd/skewjoinctl

for addr in "$S0" "$S1" "$S2" "$SINGLE_ADDR"; do
    "$BIN/skewjoind" -addr "$addr" -threads 2 -queue 8 2>"$BIN/daemon-$addr.log" &
    PIDS="$PIDS $!"
done
"$BIN/skewrouter" -addr "$ROUTER_ADDR" -shards "$S0,$S1,$S2" 2>"$BIN/router.log" &
ROUTER_PID=$!
PIDS="$PIDS $ROUTER_PID"

rctl() { "$BIN/skewjoinctl" -addr "$ROUTER_ADDR" "$@"; }
sctl() { "$BIN/skewjoinctl" -addr "$SINGLE_ADDR" "$@"; }

# Wait for the whole fleet: the router's healthz probes every shard.
wait_up() {
    i=0
    until "$BIN/skewjoinctl" -addr "$1" stats >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 50 ] || { echo "cluster-smoke: $1 did not come up" >&2; exit 1; }
        sleep 0.1
    done
}
wait_up "$SINGLE_ADDR"
wait_up "$ROUTER_ADDR"

echo "== register the skewed workload on both tiers =="
for ctl in rctl sctl; do
    "$ctl" gen r 65536 1.1 -stream 1 >/dev/null
    "$ctl" gen s 65536 1.1 -stream 2 >/dev/null
done

echo "== fleet answers must match the single node =="
# Only the result fields are comparable; timings and algorithm labels
# legitimately differ between the tiers.
summarize() { head -1 "$1" | grep -o 'matches=[0-9]*\|checksum=[^ 	]*'; }
for routing in hash frag; do
    rctl join r s -routing "$routing" >"$BIN/cluster-$routing.out"
    summarize "$BIN/cluster-$routing.out" >"$BIN/cluster-$routing.sum"
done
sctl join r s >"$BIN/single.out"
summarize "$BIN/single.out" >"$BIN/single.sum"
diff "$BIN/cluster-hash.sum" "$BIN/single.sum"
diff "$BIN/cluster-frag.sum" "$BIN/single.sum"
grep -q 'policy=frag' "$BIN/cluster-frag.out"
grep -q 'policy=hash' "$BIN/cluster-hash.out"

echo "== count and topk consumers =="
rctl join r s -consumer count | grep '^rows' >"$BIN/cluster.rows"
sctl join r s -consumer count | grep '^rows' >"$BIN/single.rows"
diff "$BIN/cluster.rows" "$BIN/single.rows"
# topk is exact on both tiers, so the fleet's candidate merge must list
# the single node's keys and weights line for line.
sctl join r s -consumer topk -k 3 | grep '^topkey' >"$BIN/single.topk"
[ "$(wc -l <"$BIN/single.topk")" -eq 3 ]
for routing in hash frag; do
    rctl join r s -routing "$routing" -consumer topk -k 3 | grep '^topkey' >"$BIN/cluster-$routing.topk"
    diff "$BIN/cluster-$routing.topk" "$BIN/single.topk"
done

echo "== cluster stats aggregate all three shards =="
rctl cluster-stats | tee "$BIN/cluster-stats.out"
grep -q 'shards=3' "$BIN/cluster-stats.out"
[ "$(grep -c 'healthy' "$BIN/cluster-stats.out")" -eq 3 ]

echo "== a draining shard refuses work with Retry-After =="
# SIGTERM the first shard: healthz goes 503, drain completes (nothing in
# flight), and the process exits cleanly within its bound.
FIRST_PID="$(echo "$PIDS" | awk '{print $1}')"
kill -TERM "$FIRST_PID"
i=0
while kill -0 "$FIRST_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "cluster-smoke: shard did not drain" >&2; exit 1; }
    sleep 0.1
done
grep -q 'drained' "$BIN/daemon-$S0.log"

echo "== a down shard surfaces as a gateway error, not a hang =="
if rctl join r s >"$BIN/down.out" 2>&1; then
    echo "cluster-smoke: join with a dead shard unexpectedly succeeded" >&2
    exit 1
fi
grep -q 'HTTP 50[24]' "$BIN/down.out"

echo "cluster-smoke: OK"
