#!/bin/sh
# Disk-full degradation check: point every persistent layer (graph,
# ordering and cell stores) at a full volume and require the
# grid to finish exit-0, compute-without-cache, with the degradation
# counted and warned instead of crashing.
#   usage: sh scripts/disk_full_check.sh <mountpoint>
# CI mounts a size-capped tmpfs; locally any small volume works.
# Run from the repo root.
set -eu

MOUNT=${1:?usage: disk_full_check.sh <mountpoint>}
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"; rm -f "$MOUNT/filler"' EXIT
export PYTHONPATH=src
unset REPRO_FAULTS 2>/dev/null || true
export REPRO_CACHE_DIR="$MOUNT/repro-cache"
GRID="fig1 --datasets euroroad --schemes natural,random"

echo "== filling $MOUNT so cache writes hit real ENOSPC"
mkdir -p "$REPRO_CACHE_DIR"
dd if=/dev/zero of="$MOUNT/filler" bs=1M count=4096 2>/dev/null || true

echo "== grid with the cache on the full volume must exit 0"
python -m repro.bench $GRID >"$SCRATCH/out" 2>"$SCRATCH/err" || {
    status=$?
    echo "FAIL: grid exited $status on a full cache volume" >&2
    cat "$SCRATCH/err" >&2
    exit 1
}
grep -q "disk-full" "$SCRATCH/err" || {
    echo "FAIL: no disk-full degradation was recorded" >&2
    cat "$SCRATCH/err" >&2
    exit 1
}

echo "disk full check: OK"
