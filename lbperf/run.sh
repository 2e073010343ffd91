#!/usr/bin/env bash
# Builds the lbperf benchmark from the checkout's sources and runs it.
#
#   bash lbperf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash lbperf/run.sh compare OLD.jsonl NEW.jsonl
#
# Run it from the root of the repository. Everything it writes stays under
# .bench_build/ in that directory: the Go build cache, the binary, the
# per-run result records (results.jsonl) and the traced runs' span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/lbperf/go.mod" ]; then
	echo "lbperf: run from the repository root (go.mod and lbperf/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$out/tmp"

# Keep the toolchain offline and its files inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

# The commit is stamped when the checkout is a git work tree; the search for
# a repository stops at the checkout's parent.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

(cd "$root/lbperf" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/lbperf" .)
exec "$out/lbperf" "$@"
