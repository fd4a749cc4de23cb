"""Shared infrastructure for lazy-compiled C kernels.

:mod:`repro._native` kernels are hot loops with no numpy-friendly
structure, written once in C, compiled on first use with the system
compiler, cached by source hash, and loaded through :mod:`ctypes` —
with the pure-Python path kept as bit-identical ground truth.  Every
kernel shares one build cache, one fallback gate, and one reporting
surface:

* :class:`NativeKernel` wraps a C source string plus its symbol
  prototypes; ``kernel.lib()`` returns the loaded library or ``None``
  (no compiler, build failure, or a runtime fault earlier in the
  process).  Whether C runs at all is the engine's call
  (:func:`repro.engine.resolve_engine`): dispatch sites ask for the
  library only under the ``"native"`` engine;
* every kernel must name its **scalar and vector twins** — the Python
  implementations it is bit-identical to — which the reprolint contracts
  checker verifies statically;
* every kernel runs on the calling thread;
* :func:`build_info_all` reports per-kernel status (compiler, cache hit,
  fallback reason) for ``python -m repro.bench --version`` and the perf
  harness, so a silent fallback to pure Python cannot masquerade as a
  performance regression.

The shared objects live under ``~/.cache/repro-native`` (or
``XDG_CACHE_HOME``, or the system temp dir) keyed by a hash of the C
source *and* the flag profile; a ``.json`` sidecar next to each ``.so``
records the compiler name, its version, and the exact flag list that
produced it, so ``build_info()`` can report full provenance on
cache-hit loads too.  Compilation happens once per machine, not once
per process.

Sanitizer build profiles
------------------------
``REPRO_NATIVE_SANITIZE=asan|ubsan`` (read through
:func:`sanitize_profile`, the single sanctioned accessor) switches every
kernel to an instrumented build: ``-fsanitize=... -g -O1
-fno-omit-frame-pointer`` with ``-Wall -Wextra -Werror`` so compiler
warnings become hard findings.  Instrumented and ``-O3`` shared objects
never collide because the profile participates in the cache key.  The
``make test-asan`` / ``test-ubsan`` legs (via
``scripts/native_sanitize.sh``) run the bit-identity suites under each
profile and turn any sanitizer report into a structured failure via
:func:`collect_sanitizer_reports`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import tempfile
from typing import Callable, Mapping, Sequence, TypeVar

from ..resilience import degrade, faults

__all__ = [
    "NativeKernel",
    "NativeBuildError",
    "guarded",
    "runtime_gate",
    "get_kernel",
    "kernel_names",
    "build_info_all",
    "cache_dir",
    "sanitize_profile",
    "collect_sanitizer_reports",
    "SANITIZE_PROFILES",
]

#: registry of every declared kernel, in declaration order.
_KERNELS: dict[str, "NativeKernel"] = {}

def cache_dir() -> str:
    """Directory holding the compiled shared objects."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    path = os.path.join(base, "repro-native")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


#: sanitizer profiles: extra flags appended to the instrumented build.
#: ``REPRO_NATIVE_SANITIZE`` selects one; the profile name participates
#: in the ``.so`` cache key so instrumented builds never shadow ``-O3``.
SANITIZE_PROFILES: dict[str, tuple[str, ...]] = {
    "asan": ("-fsanitize=address",),
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=undefined"),
}


class NativeBuildError(RuntimeError):
    """A kernel failed to compile; carries the compiler diagnostics."""

    def __init__(self, message: str, *, stderr: str = "") -> None:
        super().__init__(message)
        self.stderr = stderr


def sanitize_profile() -> str | None:
    """The active sanitizer profile, or None for the plain -O3 build.

    Single sanctioned read of ``REPRO_NATIVE_SANITIZE``.  An unknown
    value raises immediately — a typo'd sanitizer knob silently running
    uninstrumented builds would defeat the whole gate.
    """
    value = os.environ.get("REPRO_NATIVE_SANITIZE", "").strip().lower()
    if not value:
        return None
    if value not in SANITIZE_PROFILES:
        raise ValueError(
            f"REPRO_NATIVE_SANITIZE={value!r} is not a known profile; "
            f"expected one of {sorted(SANITIZE_PROFILES)}"
        )
    return value


def _compiler() -> list[str] | None:
    """The first available C compiler as an argv prefix, or None.

    ``$CC`` may name a wrapper with arguments (``CC="ccache gcc"``); the
    string is split shell-style and availability is judged on the first
    word, so wrapper invocations survive instead of failing a bare
    ``shutil.which("ccache gcc")`` lookup.
    """
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not cand:
            continue
        try:
            argv = shlex.split(cand)
        except ValueError:
            continue
        if argv and shutil.which(argv[0]):
            return argv
    return None


def _compiler_version(cc: Sequence[str]) -> str | None:
    """First line of ``$CC --version``, or None when it cannot run."""
    try:
        proc = subprocess.run(
            [*cc, "--version"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        # degrade: version probe only; the build itself reports errors
        return None
    line = (proc.stdout or proc.stderr).splitlines()
    return line[0].strip() if line else None


class NativeKernel:
    """One lazily compiled C kernel with declared Python twins.

    Parameters
    ----------
    name:
        Registry key; also the shared-object basename prefix.
    source:
        Complete C source of the kernel.
    symbols:
        ``{symbol: (argtypes, restype)}`` ctypes prototypes applied after
        loading.
    scalar_twin / vector_twin:
        ``"module:function"`` references naming the pure-Python ground
        truth and the numpy middle tier this kernel is bit-identical to.
        The contracts checker (:mod:`repro.analysis.contracts`) resolves
        both statically, so a kernel cannot ship without its fallbacks.
    """

    def __init__(
        self,
        name: str,
        source: str,
        *,
        symbols: Mapping[str, tuple[Sequence[object], object]],
        scalar_twin: str,
        vector_twin: str,
    ) -> None:
        if name in _KERNELS:
            raise ValueError(f"native kernel {name!r} already registered")
        self.name = name
        self.source = source
        self.symbols = dict(symbols)
        self.scalar_twin = scalar_twin
        self.vector_twin = vector_twin
        self._lib: ctypes.CDLL | None = None
        self._tried = False
        self._status = "not built"
        self._compiler_used: str | None = None
        self._compiler_version: str | None = None
        self._flags_used: list[str] | None = None
        self._profile: str | None = None
        self._compile_stderr: str | None = None
        self._cache_hit: bool | None = None
        _KERNELS[name] = self

    # -- build ---------------------------------------------------------
    @property
    def source_digest(self) -> str:
        """Short hash of the C source (half of the build-cache key)."""
        return hashlib.sha256(self.source.encode()).hexdigest()[:16]

    def build_flags(self, profile: str | None) -> list[str]:
        """Compile flags for ``profile`` (None = plain ``-O3`` build).

        Instrumented builds trade ``-O3`` for ``-g -O1
        -fno-omit-frame-pointer`` (usable sanitizer stacks) and promote
        warnings to errors so a diagnosed kernel cannot ship silently.
        """
        if profile is None:
            return ["-O3", "-fPIC", "-shared"]
        return [
            "-g",
            "-O1",
            "-fno-omit-frame-pointer",
            "-fPIC",
            "-shared",
            "-Wall",
            "-Wextra",
            "-Werror",
            *SANITIZE_PROFILES[profile],
        ]

    def _so_path(self, profile: str | None) -> str:
        # cache key = (source digest, flags profile): a flags change —
        # not just a source change — must force a rebuild, and the
        # instrumented .so must never shadow the -O3 one.
        flags_tag = hashlib.sha256(
            " ".join(self.build_flags(profile)).encode()
        ).hexdigest()[:8]
        tag = f"{profile or 'opt'}-{flags_tag}"
        return os.path.join(
            cache_dir(), f"{self.name}_{self.source_digest}_{tag}.so"
        )

    def _meta_path(self, profile: str | None) -> str:
        return self._so_path(profile) + ".json"

    def _load_sidecar(self, profile: str | None) -> dict:
        """Provenance recorded by the build that produced the cached .so."""
        try:
            with open(self._meta_path(profile)) as f:
                meta = json.load(f)
            return meta if isinstance(meta, dict) else {}
        except (OSError, ValueError):
            return {}

    def _build(self, profile: str | None) -> ctypes.CDLL:
        """Compile (or reuse) the kernel and load it with prototypes."""
        # injected before the cache probe so the fault fires on warm
        # .so caches too — the degradation path must not depend on
        # whether this machine compiled before
        if faults.maybe_native_build_fail(self.name):
            raise NativeBuildError(
                f"kernel {self.name!r} failed to compile: "
                "injected native-build-fail",
                stderr="injected fault: native-build-fail",
            )
        so_path = self._so_path(profile)
        self._profile = profile
        self._cache_hit = os.path.exists(so_path)
        flags = self.build_flags(profile)
        if self._cache_hit:
            meta = self._load_sidecar(profile)
            self._compiler_used = meta.get("compiler")
            self._compiler_version = meta.get("compiler_version")
            recorded = meta.get("flags")
            self._flags_used = (
                list(recorded) if isinstance(recorded, list) else flags
            )
        else:
            cc = _compiler()
            if cc is None:
                raise RuntimeError("no C compiler found")
            self._compiler_used = " ".join(cc)
            self._compiler_version = _compiler_version(cc)
            self._flags_used = flags
            with tempfile.TemporaryDirectory() as tmp:
                c_path = os.path.join(tmp, f"{self.name}.c")
                with open(c_path, "w") as f:
                    f.write(self.source)
                tmp_so = os.path.join(tmp, f"{self.name}.so")
                proc = subprocess.run(
                    [*cc, *flags, "-o", tmp_so, c_path],
                    capture_output=True,
                    text=True,
                )
                if proc.returncode != 0:
                    stderr = (proc.stderr or "").strip()
                    self._compile_stderr = stderr
                    first = stderr.splitlines()[0] if stderr else "(no diagnostics)"
                    raise NativeBuildError(
                        f"kernel {self.name!r} failed to compile "
                        f"(exit {proc.returncode}): {first}",
                        stderr=stderr,
                    )
                tmp_meta = os.path.join(tmp, f"{self.name}.json")
                with open(tmp_meta, "w") as f:
                    json.dump(
                        {
                            "compiler": self._compiler_used,
                            "compiler_version": self._compiler_version,
                            "flags": flags,
                            "profile": profile,
                            "source_digest": self.source_digest,
                        },
                        f,
                    )
                # atomic publish so concurrent builders cannot race;
                # sidecar first so a visible .so always has its metadata
                os.replace(tmp_meta, self._meta_path(profile))
                os.replace(tmp_so, so_path)
        lib = ctypes.CDLL(so_path)
        for symbol, (argtypes, restype) in self.symbols.items():
            fn = getattr(lib, symbol)
            fn.argtypes = list(argtypes)
            fn.restype = restype
        return lib

    def lib(self) -> ctypes.CDLL | None:
        """The compiled kernel, or None when unavailable or disabled."""
        if self._tried:
            return self._lib
        # resolved outside the fallback guard (and before the latch): a
        # malformed sanitizer knob must fail loudly on every call, never
        # silently run uninstrumented
        profile = sanitize_profile()
        self._tried = True
        try:
            self._lib = self._build(profile)
            self._status = "cached" if self._cache_hit else "compiled"
        except NativeBuildError as exc:
            self.disable("native-build-fail", exc)
        except Exception as exc:  # pragma: no cover - toolchain dependent
            self._lib = None
            self._status = f"unavailable ({exc.__class__.__name__})"
        return self._lib

    def disable(self, kind: str, exc: BaseException) -> None:
        """Turn the kernel off for the rest of the process and record why.

        The kernels are deterministic: a failed build stays failed and a
        runtime fault recurs on the same input, so there is nothing to
        retry.  Every later :meth:`lib` call answers ``None`` and
        dispatch runs the bit-identical twin; :meth:`reset` re-arms.
        """
        reason = f"{exc.__class__.__name__}: {exc}"
        self._lib = None
        self._tried = True
        self._status = f"degraded: {kind}: {reason}"
        degrade.record(f"kernel.{self.name}", kind, reason)

    def reset(self) -> None:
        """Forget the build attempt (tests re-run with env changes)."""
        self._lib = None
        self._tried = False
        self._status = "not built"
        self._compiler_used = None
        self._compiler_version = None
        self._flags_used = None
        self._profile = None
        self._compile_stderr = None
        self._cache_hit = None

    # -- reporting -----------------------------------------------------
    def build_info(self) -> dict:
        """Status of this kernel after (attempting) the build.

        A kernel turned off by :meth:`disable` reports ``status:
        "degraded: <kind>: <reason>"`` — never a stale
        ``"cached"``/``"compiled"`` from the sidecar: the build cache
        knows how the ``.so`` was produced, not whether this process is
        actually dispatching to it.
        """
        self.lib()
        available = self._lib is not None
        return {
            "kernel": self.name,
            "status": self._status,
            "available": available,
            "compiler": self._compiler_used,
            "compiler_version": self._compiler_version,
            "flags": self._flags_used,
            "profile": self._profile,
            "compile_stderr": self._compile_stderr,
            "cache_hit": self._cache_hit,
            "fallback": None if available else self._status,
            "source_digest": self.source_digest,
            "scalar_twin": self.scalar_twin,
            "vector_twin": self.vector_twin,
        }


_F = TypeVar("_F", bound=Callable)


def runtime_gate(kernel: NativeKernel) -> bool:
    """Fire the injected runtime fault for ``kernel``, if scheduled.

    For dispatch sites that call library symbols directly instead of
    going through a :func:`guarded` wrapper.  Returns ``True`` to
    proceed natively; an injected fault disables the kernel and returns
    ``False`` so the caller drops to its twin.
    """
    try:
        faults.maybe_native_runtime_fault(kernel.name)
    except faults.InjectedFault as exc:
        kernel.disable("native-runtime-fault", exc)
        return False
    return True


def guarded(kernel: NativeKernel) -> Callable[[_F], _F]:
    """Wrap a native dispatch function with ``kernel``'s fallback gate.

    The decorated function keeps its ``-> result | None`` contract
    (``None`` = fall back to the twin):

    * a kernel that is unavailable or disabled returns ``None`` without
      touching the native tier;
    * the injected ``native-runtime-fault`` seam fires *before* the
      call, never mid-kernel;
    * any exception escaping the native dispatch **disables the kernel**
      for the rest of the process (:meth:`NativeKernel.disable`) and
      returns ``None`` — the caller's twin fallback runs and the
      degradation is counted.
    """

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kernel.lib() is None:
                return None
            try:
                faults.maybe_native_runtime_fault(kernel.name)
                return fn(*args, **kwargs)
            except Exception as exc:
                kernel.disable("native-runtime-fault", exc)
                return None

        return wrapper  # type: ignore[return-value]

    return decorate


def get_kernel(name: str) -> NativeKernel:
    """The registered kernel called ``name``."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown native kernel {name!r}; "
            f"available: {sorted(_KERNELS)}"
        ) from None


def kernel_names() -> list[str]:
    """Registered kernel names, in declaration order."""
    return list(_KERNELS)


def build_info_all() -> dict[str, dict]:
    """``{kernel name: build_info()}`` for every registered kernel."""
    return {name: k.build_info() for name, k in _KERNELS.items()}


def collect_sanitizer_reports(log_dir: str) -> list[dict]:
    """Parse sanitizer ``log_path`` report files into structured records.

    The sanitize legs run pytest with ``ASAN_OPTIONS``/``UBSAN_OPTIONS``
    pointing ``log_path`` at a scratch directory; each
    runtime writes ``report.<pid>`` files there on a finding.  This turns
    those files into ``{"file", "summary", "kind", "text"}`` records so
    the gate fails with the actual diagnosis instead of silent stderr.
    An empty list means the leg ran clean.
    """
    reports: list[dict] = []
    try:
        names = sorted(os.listdir(log_dir))
    except OSError:
        return reports
    for name in names:
        path = os.path.join(log_dir, name)
        if not os.path.isfile(path):
            continue
        try:
            with open(path, errors="replace") as f:
                text = f.read()
        except OSError:
            continue  # degrade: unreadable report; the rest still collected
        if not text.strip():
            continue
        summary = next(
            (ln.strip() for ln in text.splitlines()
             if ln.strip().startswith("SUMMARY:")),
            text.strip().splitlines()[0],
        )
        kind = "sanitizer"
        for marker, label in (
            ("AddressSanitizer", "asan"),
            ("runtime error:", "ubsan"),
            ("UndefinedBehaviorSanitizer", "ubsan"),
        ):
            if marker in text:
                kind = label
                break
        reports.append(
            {"file": path, "summary": summary, "kind": kind, "text": text}
        )
    return reports
