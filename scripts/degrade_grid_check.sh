#!/bin/sh
# Degradation-ladder grid check (the `make test-faults` leg):
#   1. the ordering bench grid, over a scheme set that reaches the
#      counting sort, gorder and partition (metis, nested_dissection)
#      kernels, with every native kernel build failing (injected
#      `native-build-fail`) must exit 0 — each kernel is off for the
#      process and the Python tiers (for most kernels the scalar twin)
#      carry the run,
#   2. the same grid runs clean at the default engine, with every
#      kernel built; its cached gorder, metis and nested_dissection
#      entries must record the `native` tier, so the comparison below
#      really crosses tiers,
#   3. stdout (timings normalised) must be byte-identical between the
#      two runs, and so must every cached ordering entry — permutation
#      bits, cost, and metadata with the recorded `engine` tier
#      stripped; no faulted entry may record `native`,
#   4. `--native-info --health` under the fault must report a
#      `kernel.<name>:native-build-fail` counter (small grids can
#      short-circuit to the scalar tier before dispatching a kernel, so
#      the build-failure proof is explicit).
# Run from the repo root.
set -eu

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export PYTHONPATH=src
unset REPRO_FAULTS REPRO_ORDERING_ENGINE 2>/dev/null || true
# pgp is large enough that the grid's kernels do real work, so the
# grid genuinely dispatches native kernels (and degrades) on every
# scheme that has one
SCHEMES="rcm,degree_sort,natural,random,gorder,metis,nested_dissection"
GRID="fig1 --datasets pgp --schemes $SCHEMES"
NORMALIZE='s/\([0-9][0-9]*\.[0-9]s\)/(Xs)/g'

# compare_grids FAULT GRID TAG: run GRID under REPRO_FAULTS=FAULT and
# again clean with the kernels; stdout and every cached ordering (its
# tier label aside) must match, no faulted entry may record the native
# tier, and the clean kernel schemes must record it.
compare_grids() {
    fault=$1 grid=$2 tag=$3
    echo "== $tag: grid under $fault must exit 0"
    REPRO_FAULTS="$fault" REPRO_CACHE_DIR="$WORK/$tag-faulted" \
        python -m repro.bench $grid 2>"$WORK/$tag-faulted.err" \
        | sed "$NORMALIZE" >"$WORK/$tag-faulted.out"
    grep -q "\[degrade\]" "$WORK/$tag-faulted.err" || {
        echo "FAIL: faulted run printed no [degrade] warning" >&2
        cat "$WORK/$tag-faulted.err" >&2
        exit 1
    }

    echo "== $tag: clean grid with the native kernels"
    REPRO_CACHE_DIR="$WORK/$tag-clean" \
        python -m repro.bench $grid | sed "$NORMALIZE" >"$WORK/$tag-clean.out"

    echo "== $tag: stdout and cached orderings must be bit-identical"
    diff -u "$WORK/$tag-clean.out" "$WORK/$tag-faulted.out" || {
        echo "FAIL: degraded run printed different results" >&2
        exit 1
    }
    python - "$WORK/$tag-faulted" "$WORK/$tag-clean" <<'PYEOF'
import json
import os
import sys

import numpy as np

def entries(root):
    base = os.path.join(root, "orderings")
    found = {}
    for dirpath, _dirs, files in os.walk(base):
        for name in files:
            if name.endswith(".npz"):
                path = os.path.join(dirpath, name)
                found[os.path.relpath(path, base)] = path
    return found

faulted, clean = entries(sys.argv[1]), entries(sys.argv[2])
crossed = set()
assert faulted, "faulted run cached no orderings"
assert set(faulted) == set(clean), (sorted(faulted), sorted(clean))
for rel in sorted(faulted):
    with np.load(faulted[rel], allow_pickle=False) as a, \
            np.load(clean[rel], allow_pickle=False) as b:
        assert np.array_equal(a["permutation"], b["permutation"]), rel
        assert int(a["cost"]) == int(b["cost"]), rel
        meta_a = json.loads(str(a["metadata"]))
        meta_b = json.loads(str(b["metadata"]))
    tier_a, tier_b = meta_a.pop("engine", None), meta_b.pop("engine", None)
    assert meta_a == meta_b, (rel, meta_a, meta_b)
    # the recorded tier is the fallback, never the faulted native tier
    assert tier_a != "native", (rel, tier_a)
    scheme = os.path.basename(rel).rsplit("-", 1)[0]
    if scheme in ("gorder", "metis", "nested_dissection"):
        assert tier_b == "native", (rel, tier_b)
        crossed.add(scheme)
assert len(crossed) == 3, sorted(crossed)
print(f"compared {len(faulted)} ordering entries across tiers: identical")
PYEOF
}

compare_grids "native-build-fail:p=1" "$GRID" "build-fail"

echo "== leg 4: --native-info --health reports the build failures"
out=$(REPRO_FAULTS="native-build-fail:p=1" \
    python -m repro.bench --native-info --health 2>/dev/null)
printf '%s\n' "$out" \
    | grep -q "\[counter\] kernel\.[a-z_]*:native-build-fail" || {
    echo "FAIL: health report shows no kernel.<name>:native-build-fail counter" >&2
    printf '%s\n' "$out" >&2
    exit 1
}

echo "degrade grid check: OK"
