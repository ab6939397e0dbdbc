#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload hot-audit --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, the write-ahead-log
# directories of the durable workload, run reports and span dumps.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/gomodcache" "$out/config" "$out/work"
# The go command's caches and its telemetry counters (under the user
# config directory) go to .bench_build too; nothing is downloaded.
(cd "$here" && GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= go build -o "$out/perfbench" .)
cd "$root"
# The write-ahead logs go to .bench_build/work. Where the system allows a
# private mount namespace, that directory is a tmpfs seen by this run
# alone and gone when it exits: the log code runs in full (framing,
# write, fsync, rotation, recovery), but a shared disk's fsync latency,
# which no run can control, stays out of the figures. Elsewhere the logs
# go to the disk; every run records the filesystem it used.
mount_work='mount -t tmpfs -o size=1g,mode=0755 perfbench-work "$0" 2>/dev/null || true; exec "$@"'
for ns in "--mount" "--mount --map-root-user"; do
	# shellcheck disable=SC2086 # $ns is a list of flags
	if command -v unshare >/dev/null && unshare $ns --propagation private true 2>/dev/null; then
		exec unshare $ns --propagation private sh -c "$mount_work" "$out/work" "$out/perfbench" "$@"
	fi
done
exec "$out/perfbench" "$@"
