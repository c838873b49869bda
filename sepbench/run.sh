#!/usr/bin/env bash
# Builds the verifier benchmark from source and runs one workload:
#
#   bash sepbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and the
# run's temporary files live under $CARGO_TARGET_DIR (default .bench_build),
# so the run writes nothing outside the checkout; XDG_CONFIG_HOME keeps the go
# command's own configuration files there too. The build needs no network.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/sepbench" && go build -o "$out/sepbench" .)
exec "$out/sepbench" -scratch "$out" "$@"
