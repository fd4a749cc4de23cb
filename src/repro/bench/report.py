"""Text rendering of experiment results: tables, profiles, heat rows.

All experiment outputs are rendered as monospace tables so that the
benchmark harness "prints the same rows/series the paper reports" without a
plotting dependency.  Performance-profile curves are tabulated at a fixed
set of tau values; heat-map figures become tables with per-row best/worst
markers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..measures.profiles import PerformanceProfile

__all__ = [
    "format_table",
    "format_profile",
    "format_heat_row",
    "write_csv",
    "PROFILE_TAUS",
]

#: tau grid used when tabulating performance-profile curves.
PROFILE_TAUS = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 24.0, 40.0)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render a fixed-width table with a header rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def format_profile(
    profile: PerformanceProfile,
    *,
    taus: Sequence[float] = PROFILE_TAUS,
    title: str | None = None,
) -> str:
    """Tabulate rho_s(tau) for every scheme at the standard tau grid.

    Schemes are sorted by area under the curve (best first), matching the
    visual ordering of the paper's figures.  A scheme that failed on some
    instances (an ``inf`` ratio: a degraded cell) is labelled
    ``name [degraded k/n]`` so its zeros do not read as a real loss.
    """
    scores = {
        s: profile.area_under_curve(s, tau_max=max(taus))
        for s in profile.schemes
    }
    ranked = sorted(profile.schemes, key=lambda s: -scores[s])
    headers = ["scheme"] + [f"t={t:g}" for t in taus] + ["auc"]
    rows: list[list[object]] = []
    for s in ranked:
        failed = int(np.isinf(profile.ratios[profile.schemes.index(s)]).sum())
        label = s
        if failed:
            label = f"{s} [degraded {failed}/{len(profile.instances)}]"
        row: list[object] = [label]
        for t in taus:
            row.append(f"{profile.rho(s, t):.2f}")
        row.append(f"{scores[s]:.3f}")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_heat_row(
    values: dict[str, float], *, lower_is_better: bool = True
) -> str:
    """One heat-map row: values with ``*`` marking the best cell."""
    if not values:
        return ""
    best = min(values.values()) if lower_is_better else max(values.values())
    parts = []
    for name, v in values.items():
        marker = "*" if np.isclose(v, best) else " "
        parts.append(f"{name}={_fmt(v)}{marker}")
    return "  ".join(parts)


def write_csv(
    path: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Write rows as a minimal CSV file (no quoting of commas needed)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(headers) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(c) for c in row) + "\n")
