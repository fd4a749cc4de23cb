#!/bin/sh
# Run a pytest leg with the native kernels rebuilt under a sanitizer
# profile.  Usage:
#
#   sh scripts/native_sanitize.sh asan|ubsan [pytest args...]
#
# The profile is exported as REPRO_NATIVE_SANITIZE so NativeKernel
# recompiles every kernel with the instrumented flag set (cache-keyed
# per profile, so -O3 builds are untouched).  asan additionally needs
# its runtime preloaded into the *python* process, because the
# instrumented .so is dlopen'd by ctypes after startup.  Sanitizer
# output is steered to a scratch log_path directory and triaged by
# `python -m repro.analysis --san-reports`, so a finding fails the leg
# with its SUMMARY line instead of scrolling past on stderr.
set -eu

PROFILE="${1:-}"
if [ -z "$PROFILE" ]; then
    echo "usage: $0 asan|ubsan [pytest args...]" >&2
    exit 2
fi
shift

# Resolve the real interpreter: version-manager shims (pyenv) are shell
# scripts, and LD_PRELOAD-ing a sanitizer runtime into /bin/sh crashes
# before python ever starts.  sys.executable is the actual ELF binary.
PY="$(python3 -c 'import sys; print(sys.executable)')"
CC_BIN="${CC:-cc}"
LOGDIR="$(mktemp -d "${TMPDIR:-/tmp}/repro-sanitize.XXXXXX")"
trap 'rm -rf "$LOGDIR"' EXIT

export REPRO_NATIVE_SANITIZE="$PROFILE"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

case "$PROFILE" in
    asan)
        LIB="$($CC_BIN -print-file-name=libasan.so)"
        [ -f "$LIB" ] || { echo "libasan.so not found via $CC_BIN" >&2; exit 3; }
        export LD_PRELOAD="$LIB${LD_PRELOAD:+ $LD_PRELOAD}"
        # detect_leaks=0: CPython intentionally leaks interpreter state;
        # kernel leaks are clint's job (c-malloc-leak), not LSan's.
        export ASAN_OPTIONS="detect_leaks=0:log_path=$LOGDIR/report:exitcode=42"
        ;;
    ubsan)
        # libubsan is linked into the instrumented .so directly.
        export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:log_path=$LOGDIR/report"
        ;;
    *)
        echo "unknown sanitizer profile '$PROFILE' (want asan|ubsan)" >&2
        exit 2
        ;;
esac

echo "== native-sanitize: profile=$PROFILE logs=$LOGDIR"
status=0
"$PY" -m pytest "$@" || status=$?

# Structured triage: any report file fails the leg even if pytest
# exited 0 (a finding in a passing test is still a finding).
"$PY" -m repro.analysis --san-reports "$LOGDIR" || status=1

exit $status
