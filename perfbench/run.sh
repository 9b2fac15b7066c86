#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build artifact and cache goes under
# .bench_build/ so nothing outside the checkout is written.
set -euo pipefail
root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
if [ ! -f "$bench/../go.mod" ]; then
  echo "perfbench: the repository's go.mod is missing next to $bench; nothing to build" >&2
  exit 2
fi
(cd "$bench" && go build -o "$out/perfbench" .)
# The revision is the git commit when the root is a git work tree, and a
# digest of the Go sources and module files otherwise.
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  rev="git:$(git -C "$root" rev-parse --short HEAD)"
else
  rev="src-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print \
    | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
PERFBENCH_REVISION="$rev" exec "$out/perfbench" "$@"
