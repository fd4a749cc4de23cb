"""Tests for the ``python -m repro`` reordering tool."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.engine import use_engine
from repro.graph.io import (
    read_edge_list,
    write_edge_list,
    write_metis,
    write_permutation,
)
from tests.conftest import random_graph


@pytest.fixture
def graph_file(tmp_path):
    g = random_graph(40, 100, seed=2)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return path


class TestCli:
    def test_basic_run(self, graph_file, capsys):
        assert main([str(graph_file), "--scheme", "rcm"]) == 0
        out = capsys.readouterr().out
        assert "natural" in out
        assert "rcm" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2

    def test_compare_mode(self, graph_file, capsys):
        assert main([
            str(graph_file), "--compare", "rcm", "degree_sort",
        ]) == 0
        out = capsys.readouterr().out
        assert "degree_sort" in out

    def test_output_and_permutation(self, graph_file, tmp_path, capsys):
        out_graph = tmp_path / "out.txt"
        out_perm = tmp_path / "perm.txt"
        assert main([
            str(graph_file), "--scheme", "rcm",
            "-o", str(out_graph), "--permutation", str(out_perm),
        ]) == 0
        reordered = read_edge_list(out_graph)
        original = read_edge_list(graph_file)
        assert reordered.num_edges == original.num_edges
        perm = np.loadtxt(out_perm, dtype=np.int64)
        assert sorted(perm) == list(range(original.num_vertices))

    def test_metis_format_roundtrip(self, tmp_path, capsys):
        g = random_graph(25, 60, seed=7)
        src = tmp_path / "g.graph"
        write_metis(g, src)
        dst = tmp_path / "out.graph"
        assert main([str(src), "--scheme", "natural", "-o", str(dst)]) == 0
        from repro.graph.io import read_metis
        assert read_metis(dst) == g


@pytest.mark.parametrize("size", (0, 1, 17, 5000, 250_000))
def test_permutation_file_has_the_savetxt_bytes(size, tmp_path):
    perm = np.random.default_rng(size).permutation(size).astype(np.int64)
    np.savetxt(tmp_path / "savetxt.txt", perm, fmt="%d")
    for engine in ("native", "scalar"):
        with use_engine(engine):
            write_permutation(perm, tmp_path / "bulk.txt")
        bulk = (tmp_path / "bulk.txt").read_bytes()
        assert bulk == (tmp_path / "savetxt.txt").read_bytes(), engine


def test_empty_graph_writes_an_empty_permutation(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    perm = tmp_path / "perm.txt"
    assert main([str(src), "--scheme", "rabbit",
                 "--permutation", str(perm)]) == 0
    assert perm.read_bytes() == b""


def test_cli_start_does_not_load_the_linter():
    """The runtime imports ``repro.analysis.sanitize`` alone; the lint
    engine, its rules, contracts and C lint stay unloaded."""
    import os
    import subprocess
    import sys

    from tests.conftest import REPO_ROOT

    probe = (
        "import sys, repro.__main__\n"
        "print(sorted(m for m in sys.modules if m in {"
        "'repro.analysis.core', 'repro.analysis.rules', "
        "'repro.analysis.contracts', 'repro.analysis.clint'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.stdout.strip() == "[]"


def test_malformed_knob_is_one_error_line(graph_file):
    """A bad knob exits 2 with one ``error:`` line, before any work."""
    import os
    import subprocess
    import sys

    from tests.conftest import REPO_ROOT

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", str(graph_file)],
        capture_output=True, text=True,
        env=dict(env, PYTHONPATH=str(REPO_ROOT / "src"),
                 REPRO_ORDERING_ENGINE="vector"),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: REPRO_ORDERING_ENGINE='vector' is not one of "
        "['native', 'scalar']"
    ]
