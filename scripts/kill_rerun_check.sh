#!/bin/sh
# Kill-and-rerun check (the `make test-faults` leg): resuming a bench
# run is re-running it.
#   1. run the grid to completion on a fresh cache (the reference),
#   2. start the same grid on a second fresh cache, wait until its
#      ordering store holds >= 3 committed entries and SIGKILL it —
#      FAIL if it finished before the kill landed,
#   3. rerun the grid on the killed run's cache under perf/tracer.py:
#      it must exit 0, print the reference output (timings
#      normalised), and serve at least one ordering as a store hit.
# Run from the repo root.
set -eu

WORK=$(mktemp -d)
pid=
cleanup() {
    if [ -n "$pid" ]; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT
export PYTHONPATH=src
unset REPRO_FAULTS 2>/dev/null || true
GRID="fig1 --datasets euroroad,pgp"
NORMALIZE='s/\([0-9][0-9]*\.[0-9]s\)/(Xs)/g'

echo "== reference: the grid run to completion on a fresh cache"
REPRO_CACHE_DIR="$WORK/reference" python -m repro.bench $GRID \
    | sed "$NORMALIZE" >"$WORK/reference.out"

echo "== kill -9 the same grid after >= 3 committed orderings"
export REPRO_CACHE_DIR="$WORK/killed"
python -m repro.bench $GRID >/dev/null 2>&1 &
pid=$!
deadline=$(( $(date +%s) + 300 ))
while :; do
    committed=$(find "$REPRO_CACHE_DIR/orderings" -name '*.npz' \
        ! -name '.tmp-*' 2>/dev/null | wc -l)
    [ "$committed" -ge 3 ] && break
    if [ "$(date +%s)" -gt "$deadline" ]; then
        echo "FAIL: fewer than 3 orderings committed after 300s" >&2
        exit 1
    fi
    sleep 0.01
done
kill -9 "$pid" 2>/dev/null || true
set +e
wait "$pid"
status=$?
set -e
pid=
# 137 = 128 + SIGKILL; anything else means the run ended on its own
if [ "$status" -ne 137 ]; then
    echo "FAIL: the run exited ($status) before the kill landed" >&2
    exit 1
fi
echo "killed after $committed committed orderings"

echo "== rerun on the killed run's cache resumes it"
python perf/tracer.py --out "$WORK/spans.json" --cli repro.bench -- $GRID \
    | sed "$NORMALIZE" >"$WORK/rerun.out"
diff -u "$WORK/reference.out" "$WORK/rerun.out" || {
    echo "FAIL: rerun after kill printed different results" >&2
    exit 1
}
python - "$WORK/spans.json" <<'PYEOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    hits = json.load(handle)["counters"].get("ordering.store.hits", 0)
assert hits >= 1, f"rerun served no ordering from the store (hits={hits})"
print(f"rerun served {hits} ordering(s) as store hits")
PYEOF

echo "kill rerun check: OK"
