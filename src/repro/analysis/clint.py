"""clint: C-source static lint for the embedded native kernels.

reprolint (:mod:`repro.analysis.rules`) audits the Python tree, but PRs
6–8 moved the hottest loops into ~2.5k lines of embedded C under
:mod:`repro._native` — exactly where an out-of-bounds write silently
corrupts every bit-identity claim the engine contracts rest on.
This module extends the lint gate down into that tier.

Kernel discovery is double-entry so no kernel can hide: every
``NativeKernel(...)`` construction found by an AST walk over
``src/repro/_native/*.py`` is linted, and the set is cross-checked
against the runtime registry (``repro._native.kernel_names()``) in both
directions.  The C source never leaves its Python string literal —
findings are anchored back to the ``.py`` file and line that holds the
flagged C line, so reports are clickable like every other reprolint
finding.

Rules (all prefixed ``c-``):

* ``c-nondeterminism`` — calls into ``rand``/``time``/``clock``/
  ``getenv``-style sources of run-to-run variance;
* ``c-int-width`` — bare ``int``/``long`` loop induction variables
  instead of the fixed-width ``int64_t`` the ctypes prototypes assume;
* ``c-malloc-leak`` — ``malloc``/``calloc``/``realloc`` results never
  freed, or leaked on an early ``return`` path (a ``return`` directly
  under the allocation's null-check is exempt);
* ``c-unchecked-write`` — stores indexed by a post-incremented cursor
  (``out[pos++] = ...``) in a function that never bounds-checks that
  cursor;
* ``c-unregistered-kernel`` — the AST/registry double-entry check
  itself.

Each of ``c-malloc-leak``, ``c-nondeterminism`` and
``c-unchecked-write`` catches something the compilers miss: its seeded
fixture in ``tests/test_analysis_clint.py`` compiles cleanly with gcc
12.2 under ``-O3 -Wall -Wextra -Werror``, alone and with either
sanitizer flag (and the ASan leg runs with leak detection off).

Suppressions use a C comment on the flagged line::

    /* clint: disable=c-unchecked-write (why this is safe) */

matching the ``# reprolint: disable=...`` grammar; a bare ``disable``
silences every rule on that line.  Findings flow through the same
baseline/reporter machinery as the Python rules
(:mod:`repro.analysis.core`), so ``python -m repro.analysis --clint``
behaves exactly like the rest of the gate.
"""

from __future__ import annotations

import ast
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .core import REPO_ROOT, SRC_ROOT, Finding

__all__ = [
    "CKernelSource",
    "CFunction",
    "c_rule_help",
    "discover_kernels",
    "linted_sources",
    "scan_kernel_source",
    "check_native_sources",
    "NATIVE_ROOT",
]

#: default location of the native kernel modules.
NATIVE_ROOT = SRC_ROOT / "repro" / "_native"

#: one-line description per rule, mirrored in docs/analysis.md.
_C_RULE_HELP = {
    "c-nondeterminism": (
        "C source calls a run-to-run variance source (rand/time/clock/"
        "getenv); kernels must be deterministic functions of their inputs"
    ),
    "c-int-width": (
        "loop induction variable uses bare int/long instead of the "
        "fixed-width int64_t the ctypes prototypes assume"
    ),
    "c-malloc-leak": (
        "heap allocation is never freed, or leaks on an early return "
        "path (returns under the allocation's own null-check are exempt)"
    ),
    "c-unchecked-write": (
        "store indexed by a post-incremented cursor with no bounds "
        "comparison on that cursor anywhere in the function"
    ),
    "c-unregistered-kernel": (
        "NativeKernel constructions and the runtime registry disagree; "
        "a kernel is hiding from the gate"
    ),
}


def c_rule_help() -> dict[str, str]:
    """C-lint rule name -> one-line description."""
    return dict(sorted(_C_RULE_HELP.items()))


# ----------------------------------------------------------------------
# Kernel discovery (AST over src/repro/_native + registry cross-check)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CKernelSource:
    """One C source string found in the tree, with its anchor.

    ``literal_line`` is the 1-based line of the ``.py`` file where the
    string literal *opens*; C line ``i`` of the source maps to py line
    ``literal_line + i - 1`` (triple-quoted sources start with a
    newline, so C line 1 is the empty remainder of the opening line).
    """

    name: str
    rel_path: str
    literal_line: int
    call_line: int
    source: str


def _string_assignments(tree: ast.Module) -> dict[str, tuple[str, int]]:
    """Module-level ``NAME = "..."`` bindings -> (value, literal line)."""
    out: dict[str, tuple[str, int]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out[target.id] = (node.value.value, node.value.lineno)
    return out


def _kernel_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name)
                 and node.func.id == "NativeKernel")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "NativeKernel")
            )
        ):
            yield node


def discover_kernels(
    native_root: Path | None = None,
    *,
    repo_root: Path | None = None,
) -> list[CKernelSource]:
    """Every ``NativeKernel(...)`` construction under ``native_root``.

    The C source is resolved from the second positional argument —
    either a string literal in place or a module-level ``_SOURCE``
    binding — so the lint sees exactly what the build compiles.
    """
    root = Path(native_root) if native_root is not None else NATIVE_ROOT
    repo = (repo_root if repo_root is not None else REPO_ROOT).resolve()
    kernels: list[CKernelSource] = []
    for path in sorted(root.glob("*.py")):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue  # the Python lint owns parse errors
        try:
            rel = path.resolve().relative_to(repo).as_posix()
        except ValueError:
            rel = path.as_posix()
        strings = _string_assignments(tree)
        for call in _kernel_calls(tree):
            if not call.args:
                continue
            name_node = call.args[0]
            if not (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
            ):
                continue
            name = name_node.value
            source = None
            literal_line = call.lineno
            if len(call.args) > 1:
                src_node = call.args[1]
                if (
                    isinstance(src_node, ast.Constant)
                    and isinstance(src_node.value, str)
                ):
                    source = src_node.value
                    literal_line = src_node.lineno
                elif (
                    isinstance(src_node, ast.Name)
                    and src_node.id in strings
                ):
                    source, literal_line = strings[src_node.id]
            kernels.append(
                CKernelSource(
                    name=name,
                    rel_path=rel,
                    literal_line=literal_line,
                    call_line=call.lineno,
                    source=source or "",
                )
            )
    return kernels


# ----------------------------------------------------------------------
# C text preparation: comment/string stripping, suppressions, functions
# ----------------------------------------------------------------------
_C_SUPPRESS_RE = re.compile(
    r"/\*\s*clint:\s*disable"
    r"(?:=(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*))?"
)

_ALL = "*"


def linted_sources(
    native_root: Path | None = None,
    *,
    repo_root: Path | None = None,
) -> list[CKernelSource]:
    """Every discovered kernel whose source resolved: the C sources
    :func:`check_native_sources` runs the rules over."""
    kernels = discover_kernels(native_root, repo_root=repo_root)
    return [kernel for kernel in kernels if kernel.source]


def _c_suppressions(source: str) -> dict[int, frozenset[str]]:
    """C line (1-based) -> rules disabled on that line."""
    out: dict[int, frozenset[str]] = {}
    for idx, line in enumerate(source.split("\n"), start=1):
        match = _C_SUPPRESS_RE.search(line)
        if match is None:
            continue
        names = match.group("rules")
        if names is None:
            out[idx] = frozenset({_ALL})
        else:
            out[idx] = frozenset(
                part.strip() for part in names.split(",") if part.strip()
            )
    return out


def _strip_c(source: str) -> str:
    """Blank comments, string and char literals; newlines preserved.

    The result has the same length and line structure as the input, so
    character offsets translate to line numbers unchanged.
    """
    out = list(source)
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "*":
            j = source.find("*/", i + 2)
            j = n if j < 0 else j + 2
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif ch == "/" and nxt == "/":
            j = source.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                j += 2 if source[j] == "\\" else 1
            j = min(j + 1, n)
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


class _LineMap:
    """Character offset -> 1-based line number."""

    def __init__(self, text: str) -> None:
        self._starts = [0]
        for idx, ch in enumerate(text):
            if ch == "\n":
                self._starts.append(idx + 1)

    def line(self, offset: int) -> int:
        return bisect_right(self._starts, offset)


@dataclass
class CFunction:
    """One function definition in the stripped C text."""

    name: str
    body: str
    body_offset: int  # char offset of the body within the stripped text
    start_offset: int  # char offset of the function name


_C_KEYWORDS = frozenset(
    "if for while switch do return sizeof else case".split()
)


def _functions(stripped: str) -> list[CFunction]:
    """Top-level function definitions, found by brace matching."""
    funcs: list[CFunction] = []
    depth = 0
    i, n = 0, len(stripped)
    while i < n:
        ch = stripped[i]
        if ch == "{":
            if depth == 0:
                func = _function_at(stripped, i)
                if func is not None:
                    funcs.append(func)
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
        i += 1
    return funcs


def _function_at(stripped: str, brace: int) -> CFunction | None:
    """The function whose body opens at ``brace``, if it is one."""
    # walk back over whitespace to the parameter list's closing paren
    j = brace - 1
    while j >= 0 and stripped[j].isspace():
        j -= 1
    if j < 0 or stripped[j] != ")":
        return None  # struct/enum/initializer brace
    depth = 0
    while j >= 0:
        if stripped[j] == ")":
            depth += 1
        elif stripped[j] == "(":
            depth -= 1
            if depth == 0:
                break
        j -= 1
    if j < 0:
        return None
    k = j - 1
    while k >= 0 and stripped[k].isspace():
        k -= 1
    end = k + 1
    while k >= 0 and (stripped[k].isalnum() or stripped[k] == "_"):
        k -= 1
    name = stripped[k + 1:end]
    if not name or name in _C_KEYWORDS:
        return None
    # matching close brace of the body
    depth = 0
    m = brace
    while m < len(stripped):
        if stripped[m] == "{":
            depth += 1
        elif stripped[m] == "}":
            depth -= 1
            if depth == 0:
                break
        m += 1
    return CFunction(
        name=name,
        body=stripped[brace + 1:m],
        body_offset=brace + 1,
        start_offset=k + 1,
    )


# ----------------------------------------------------------------------
# Rules over one kernel source
# ----------------------------------------------------------------------
_NONDET_RE = re.compile(
    r"\b(rand|srand|rand_r|random|srandom|drand48|lrand48|time|clock|"
    r"gettimeofday|clock_gettime|getpid|getenv)\s*\("
)

_NARROW_FOR_RE = re.compile(
    r"\bfor\s*\(\s*((?:unsigned|signed)(?:\s+(?:int|long|short|char))?"
    r"|int|long|short)\s+[A-Za-z_]\w*"
)

_ALLOC_RE = re.compile(
    r"\b(?P<var>[A-Za-z_]\w*)\s*=\s*(?:\(\s*[\w\s*]+\s*\)\s*)?"
    r"(?P<fn>malloc|calloc|realloc)\s*\("
)

_SUBSCRIPT_STORE_RE = re.compile(
    r"\]\s*(?:=(?!=)|\+=|-=|\|=|&=|\^=)"
)

_PTR_CURSOR_STORE_RE = re.compile(
    r"\*\s*(?P<var>[A-Za-z_]\w*)\s*\+\+\s*(?:=(?!=)|\+=|-=|\|=|&=|\^=)"
)


def _check_nondeterminism(stripped: str) -> Iterator[tuple[int, str]]:
    for match in _NONDET_RE.finditer(stripped):
        yield (
            match.start(),
            f"call to {match.group(1)}() makes the kernel "
            "non-deterministic across runs",
        )


def _check_int_width(stripped: str) -> Iterator[tuple[int, str]]:
    for match in _NARROW_FOR_RE.finditer(stripped):
        yield (
            match.start(),
            f"loop index declared '{match.group(1)}'; use int64_t so the "
            "width matches the ctypes prototypes on every platform",
        )


def _null_guarded(between: str, var: str) -> bool:
    """Whether a return sits directly under ``var``'s own null-check.

    ``between`` is the text from the allocation to the ``return``; the
    idiom ``p = malloc(...); if (!p) return -1;`` is exempt because the
    failed allocation leaks nothing.
    """
    esc = re.escape(var)
    guard = re.compile(
        rf"if\s*\(\s*(?:!\s*{esc}\b|{esc}\s*==\s*NULL|NULL\s*==\s*{esc})"
        r"\s*\)\s*\{?\s*$"
    )
    return guard.search(between) is not None


def _check_malloc(func: CFunction) -> Iterator[tuple[int, str]]:
    body = func.body
    for match in _ALLOC_RE.finditer(body):
        var = match.group("var")
        frees = [
            m.start()
            for m in re.finditer(
                rf"\bfree\s*\(\s*{re.escape(var)}\b", body
            )
        ]
        if not frees:
            yield (
                func.body_offset + match.start(),
                f"{func.name}() allocates '{var}' with "
                f"{match.group('fn')}() but never frees it",
            )
            continue
        first_free = min(frees)
        for ret in re.finditer(r"\breturn\b", body):
            if not match.end() < ret.start() < first_free:
                continue
            if _null_guarded(body[match.end():ret.start()], var):
                continue
            yield (
                func.body_offset + ret.start(),
                f"return path in {func.name}() leaks '{var}' "
                f"(allocated earlier, freed only later)",
            )


def _matching_open(text: str, close: int) -> int:
    """Offset of the ``[`` matching the ``]`` at ``close``."""
    depth = 0
    for i in range(close, -1, -1):
        if text[i] == "]":
            depth += 1
        elif text[i] == "[":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _cursor_of(index_expr: str) -> str | None:
    """The identifier post-incremented inside an index expression."""
    pos = index_expr.find("++")
    if pos < 0:
        return None
    j = pos - 1
    while j >= 0 and index_expr[j].isspace():
        j -= 1
    if j >= 0 and index_expr[j] == "]":
        depth = 0
        while j >= 0:
            if index_expr[j] == "]":
                depth += 1
            elif index_expr[j] == "[":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        j -= 1
    end = j + 1
    while j >= 0 and (index_expr[j].isalnum() or index_expr[j] == "_"):
        j -= 1
    name = index_expr[j + 1:end]
    return name or None


def _has_bound_check(body: str, cursor: str) -> bool:
    esc = re.escape(cursor)
    return bool(
        re.search(rf"\b{esc}\b\s*(?:<=|>=|<|>)", body)
        or re.search(rf"(?:<=|>=|<|>)\s*{esc}\b", body)
    )


def _check_unchecked_write(func: CFunction) -> Iterator[tuple[int, str]]:
    body = func.body
    for match in _SUBSCRIPT_STORE_RE.finditer(body):
        close = match.start()  # the pattern is anchored on the ']'
        open_ = _matching_open(body, close)
        if open_ < 0:
            continue
        index_expr = body[open_ + 1:close]
        cursor = _cursor_of(index_expr)
        if cursor is None or _has_bound_check(body, cursor):
            continue
        yield (
            func.body_offset + match.start(),
            f"store indexed by '{cursor}++' in {func.name}() has no "
            f"bounds comparison on '{cursor}' anywhere in the function",
        )
    for match in _PTR_CURSOR_STORE_RE.finditer(body):
        cursor = match.group("var")
        if _has_bound_check(body, cursor):
            continue
        yield (
            func.body_offset + match.start(),
            f"store through '*{cursor}++' in {func.name}() has no "
            f"bounds comparison on '{cursor}' anywhere in the function",
        )


# ----------------------------------------------------------------------
# Per-kernel scan and tree-level entry points
# ----------------------------------------------------------------------
def scan_kernel_source(
    name: str,
    source: str,
    *,
    rel_path: str = "<memory>",
    literal_line: int = 1,
) -> list[Finding]:
    """Run every C rule over one kernel source; suppressions applied.

    C line ``i`` is reported at ``literal_line + i - 1`` so findings
    land on the physical line of the embedding ``.py`` file.
    """
    suppressed = _c_suppressions(source)
    stripped = _strip_c(source)
    lmap = _LineMap(stripped)
    funcs = _functions(stripped)

    raw: list[tuple[str, int, str]] = []  # (rule, char offset, message)
    for offset, message in _check_nondeterminism(stripped):
        raw.append(("c-nondeterminism", offset, message))
    for offset, message in _check_int_width(stripped):
        raw.append(("c-int-width", offset, message))
    for func in funcs:
        for offset, message in _check_malloc(func):
            raw.append(("c-malloc-leak", offset, message))
        for offset, message in _check_unchecked_write(func):
            raw.append(("c-unchecked-write", offset, message))

    findings: list[Finding] = []
    for rule_name, offset, message in raw:
        c_line = lmap.line(offset)
        disabled = suppressed.get(c_line)
        if disabled is not None and (
            _ALL in disabled or rule_name in disabled
        ):
            continue
        findings.append(
            Finding(
                rule=rule_name,
                path=rel_path,
                line=literal_line + c_line - 1,
                col=0,
                message=f"[{name}] {message}",
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _registry_findings(
    kernels: list[CKernelSource], registered: Iterable[str]
) -> list[Finding]:
    """Both directions of the AST/registry double-entry check."""
    findings: list[Finding] = []
    ast_names = {k.name for k in kernels}
    reg = set(registered)
    for kernel in kernels:
        if kernel.name not in reg:
            findings.append(
                Finding(
                    rule="c-unregistered-kernel",
                    path=kernel.rel_path,
                    line=kernel.call_line,
                    col=0,
                    message=(
                        f"NativeKernel({kernel.name!r}) is constructed "
                        "here but absent from kernel_names(); it would "
                        "dodge the runtime gate"
                    ),
                )
            )
    for name in sorted(reg - ast_names):
        findings.append(
            Finding(
                rule="c-unregistered-kernel",
                path="src/repro/_native/__init__.py",
                line=1,
                col=0,
                message=(
                    f"registered kernel {name!r} has no NativeKernel(...) "
                    "construction under src/repro/_native; the C lint "
                    "cannot see its source"
                ),
            )
        )
    return findings


def check_native_sources(
    native_root: Path | None = None,
    *,
    registered: Iterable[str] | None = None,
    repo_root: Path | None = None,
) -> list[Finding]:
    """Lint every native kernel source; the ``--clint`` entry point.

    With no arguments this scans the real tree: all ``NativeKernel``
    constructions under ``src/repro/_native`` and the registry
    cross-check against ``repro._native`` (imported lazily).  Tests point ``native_root`` at synthetic trees and pass
    ``registered`` explicitly; the cross-check is skipped when scanning
    a synthetic tree without an explicit registry.
    """
    findings: list[Finding] = []

    if registered is None and native_root is None:
        from repro import _native

        registered = _native.kernel_names()
    if registered is not None:
        discovered = discover_kernels(native_root, repo_root=repo_root)
        findings.extend(_registry_findings(discovered, registered))

    for kernel in linted_sources(native_root, repo_root=repo_root):
        findings.extend(
            scan_kernel_source(
                kernel.name,
                kernel.source,
                rel_path=kernel.rel_path,
                literal_line=kernel.literal_line,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
