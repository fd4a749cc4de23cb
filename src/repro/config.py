"""The run's configuration: every environment knob, parsed once.

The only module that reads the environment.  :func:`get` parses the
knobs on first use into one frozen :class:`Config`, which forked pool
workers inherit (spawned ones re-parse the same environment);
:func:`reload` re-parses.  Values are stripped, empty means unset, the
two enumerated knobs are case-insensitive, and a malformed knob raises
``ValueError`` naming it on every :func:`get` until it is fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .resilience.faults import FaultPlan

__all__ = ["Config", "DEFAULT_CACHE_DIR", "get", "reload"]

DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class Config:
    """One process's knobs, parsed (``None`` = unset)."""

    engine: str | None  # REPRO_ORDERING_ENGINE
    sanitize: bool  # REPRO_SANITIZE, set and not "0"
    faults: FaultPlan | None  # REPRO_FAULTS, with fresh counters
    native_sanitize: str | None  # REPRO_NATIVE_SANITIZE
    cache_dir: str  # REPRO_CACHE_DIR, or DEFAULT_CACHE_DIR
    cc: str | None  # CC
    xdg_cache_home: str | None  # XDG_CACHE_HOME


_snapshot: Config | None = None


def _value(raw: str | None) -> str | None:
    return (raw or "").strip() or None


def _choice(knob: str, raw: str | None, choices) -> str | None:
    value = _value(raw)
    if value and value.lower() not in choices:
        raise ValueError(f"{knob}={value!r} is not one of {sorted(choices)}")
    return value.lower() if value else None


def _parse() -> Config:
    from ._native.core import SANITIZE_PROFILES
    from .engine import ENGINES
    from .resilience.faults import FaultPlan, parse_spec

    spec = _value(os.environ.get("REPRO_FAULTS"))
    try:
        plan = FaultPlan(parse_spec(spec)) if spec else None
    except ValueError as exc:
        raise ValueError(f"REPRO_FAULTS={spec!r}: {exc}") from exc
    engine = os.environ.get("REPRO_ORDERING_ENGINE")
    profile = os.environ.get("REPRO_NATIVE_SANITIZE")
    return Config(
        engine=_choice("REPRO_ORDERING_ENGINE", engine, ENGINES),
        sanitize=_value(os.environ.get("REPRO_SANITIZE")) not in (None, "0"),
        faults=plan,
        native_sanitize=_choice(
            "REPRO_NATIVE_SANITIZE", profile, SANITIZE_PROFILES
        ),
        cache_dir=_value(os.environ.get("REPRO_CACHE_DIR"))
        or DEFAULT_CACHE_DIR,
        cc=_value(os.environ.get("CC")),
        xdg_cache_home=_value(os.environ.get("XDG_CACHE_HOME")),
    )


def get() -> Config:
    """The process's configuration, parsed on the first call."""
    global _snapshot
    if _snapshot is None:
        _snapshot = _parse()
    return _snapshot


def reload() -> Config:
    """Re-parse the environment (the fault plan included)."""
    global _snapshot
    _snapshot = None
    return get()
