#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and then replaces this
# shell with the binary, so no child process can outlive the command. The Go
# build cache, GOPATH, the toolchain's config directory and its scratch
# directory are pointed into .bench_build/ too, and the module proxy is off:
# everything the build and the run read and write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/pkabench" .)
exec "$out/pkabench" -tmp "$out/tmp" "$@"
