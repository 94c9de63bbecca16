#!/usr/bin/env bash
# The benchmark's build file and launcher: builds ./benchmark from source
# into .bench_build/ at the root of the checkout, with every cache and
# temporary directory the go tool writes kept inside the checkout, and runs
# it with the arguments given. BENCHMARK.json's command is
# `bash benchmark/run.sh`, started from the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry in its default "local" mode the go tool starts a detached
# child (`go` re-executed as the telemetry uploader) that outlives it. The
# mode is read from this file only, so turn it off before the first go call:
# the build then starts no process it does not wait for.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/prepuc-benchmark" ./benchmark
exec "$build/prepuc-benchmark" "$@"
