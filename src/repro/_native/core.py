"""Shared infrastructure for lazy-compiled C kernels.

:mod:`repro._native` kernels are hot loops with no numpy-friendly
structure, written once in C, compiled on first use with the system
compiler, cached by source hash, and loaded through :mod:`ctypes` —
with the pure-Python path kept as bit-identical ground truth.  Every
kernel shares one build cache and one reporting surface:

* :class:`NativeKernel` wraps a C source string plus its symbol
  prototypes; ``kernel.lib()`` returns the loaded library or ``None``
  (no compiler, or a failed build).  Whether C runs at all is the
  engine's call (:func:`repro.engine.resolve_engine`): dispatch sites
  ask for the library only under the ``"native"`` engine, and answer
  ``None`` themselves when it is missing or the input leaves the
  kernel's domain.  Nothing catches an exception a dispatch raises: a
  broken wrapper is a bug, and it fails the call that found it;
* every kernel must name its **scalar twin** — the Python reference it
  is bit-identical to, and the loop dispatch falls back to when the
  kernel cannot run — which the reprolint contracts checker verifies
  statically;
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
``REPRO_NATIVE_SANITIZE=asan|ubsan`` (parsed, like ``CC`` and
``XDG_CACHE_HOME``, into the :mod:`repro.config` snapshot) switches every
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
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import tempfile
from typing import Mapping, Sequence

from .. import config
from ..resilience import degrade, faults

__all__ = [
    "NativeKernel",
    "NativeBuildError",
    "get_kernel",
    "kernel_names",
    "build_info_all",
    "native_summary",
    "cache_dir",
    "collect_sanitizer_reports",
    "SANITIZE_PROFILES",
]

#: registry of every declared kernel, in declaration order.
_KERNELS: dict[str, "NativeKernel"] = {}

def cache_dir() -> str:
    """Directory holding the compiled shared objects."""
    base = config.get().xdg_cache_home or os.path.expanduser("~/.cache")
    path = os.path.join(base, "repro-native")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


#: sanitizer profiles: extra flags appended to the instrumented build.
#: ``REPRO_NATIVE_SANITIZE`` selects one (an unknown name fails the
#: :mod:`repro.config` parse); the profile name participates
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


def _compiler() -> list[str] | None:
    """The first available C compiler as an argv prefix, or None.

    ``$CC`` may name a wrapper with arguments (``CC="ccache gcc"``); the
    string is split shell-style and availability is judged on the first
    word, so wrapper invocations survive instead of failing a bare
    ``shutil.which("ccache gcc")`` lookup.
    """
    for cand in (config.get().cc, "cc", "gcc", "clang"):
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
    """One lazily compiled C kernel with a declared Python twin.

    Parameters
    ----------
    name:
        Registry key; also the shared-object basename prefix.
    source:
        Complete C source of the kernel.
    symbols:
        ``{symbol: (argtypes, restype)}`` ctypes prototypes applied after
        loading.
    scalar_twin:
        ``"module:function"`` reference naming the pure-Python ground
        truth this kernel is bit-identical to and falls back to.  The
        contracts checker (:mod:`repro.analysis.contracts`) resolves it
        statically, so a kernel cannot ship without its fallback.
    """

    def __init__(
        self,
        name: str,
        source: str,
        *,
        symbols: Mapping[str, tuple[Sequence[object], object]],
        scalar_twin: str,
    ) -> None:
        if name in _KERNELS:
            raise ValueError(f"native kernel {name!r} already registered")
        self.name = name
        self.source = source
        self.symbols = dict(symbols)
        self.scalar_twin = scalar_twin
        self._lib: ctypes.CDLL | None = None
        self._tried = False
        #: ``"not built"``, ``"cached"``, ``"compiled"``,
        #: ``"unavailable (<error>)"`` or ``"degraded: native-build-fail:
        #: <reason>"``; read without triggering a build.
        self.status = "not built"
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
        """The compiled kernel, or None when it could not be built."""
        if self._tried:
            return self._lib
        # resolved outside the fallback guard (and before the latch): a
        # malformed sanitizer knob must fail loudly on every call, never
        # silently run uninstrumented
        profile = config.get().native_sanitize
        self._tried = True
        try:
            self._lib = self._build(profile)
            self.status = "cached" if self._cache_hit else "compiled"
        except NativeBuildError as exc:
            # a failed build stays failed, so the kernel is off for the
            # rest of the process and the bit-identical Python tier runs;
            # :meth:`reset` re-arms
            reason = f"{exc.__class__.__name__}: {exc}"
            self.status = f"degraded: native-build-fail: {reason}"
            degrade.record(f"kernel.{self.name}", "native-build-fail", reason)
        except Exception as exc:  # pragma: no cover - toolchain dependent
            self.status = f"unavailable ({exc.__class__.__name__})"
        return self._lib

    def reset(self) -> None:
        """Forget the build attempt (tests re-run with env changes)."""
        self._lib = None
        self._tried = False
        self.status = "not built"
        self._compiler_used = None
        self._compiler_version = None
        self._flags_used = None
        self._profile = None
        self._compile_stderr = None
        self._cache_hit = None

    # -- reporting -----------------------------------------------------
    def build_info(self) -> dict:
        """Status of this kernel after (attempting) the build.

        A kernel whose build failed reports ``status: "degraded:
        native-build-fail: <reason>"`` — never a stale
        ``"cached"``/``"compiled"`` from the sidecar: the build cache
        knows how the ``.so`` was produced, not whether this process is
        actually dispatching to it.
        """
        self.lib()
        available = self._lib is not None
        return {
            "kernel": self.name,
            "status": self.status,
            "available": available,
            "compiler": self._compiler_used,
            "compiler_version": self._compiler_version,
            "flags": self._flags_used,
            "profile": self._profile,
            "compile_stderr": self._compile_stderr,
            "cache_hit": self._cache_hit,
            "fallback": None if available else self.status,
            "source_digest": self.source_digest,
            "scalar_twin": self.scalar_twin,
        }


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


def native_summary(infos: dict[str, dict] | None = None) -> list[str]:
    """One human-readable status line per native kernel.

    ``infos`` defaults to a fresh :func:`build_info_all`; pass a
    measurement's recorded ``native_kernels`` to describe the run that
    produced it.
    """
    if infos is None:
        infos = build_info_all()
    lines = []
    for name in sorted(infos):
        info = infos[name]
        if info.get("available"):
            detail = info.get("compiler") or "prebuilt"
            if info.get("cache_hit"):
                detail += ", cache hit"
            lines.append(f"native {name}: ready ({detail})")
        else:
            reason = info.get("fallback") or info.get("status")
            lines.append(f"native {name}: fallback to Python ({reason})")
    return lines


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
