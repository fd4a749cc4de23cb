"""Unit tests for report formatting and the bench runner cache."""

import numpy as np
import pytest

from repro.bench import (
    format_heat_row,
    format_profile,
    format_table,
    write_csv,
)
from repro.bench.runners import (
    collect_costs,
    collect_scores,
    measures_for,
    ordering_for,
)
from repro.measures import performance_profile


class TestFormatTable:
    def test_basic(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_float_formatting(self):
        text = format_table(["x"], [[0.00001], [12345.6], [0.0]])
        assert "1e-05" in text
        assert "0" in text

    def test_alignment(self):
        text = format_table(["name"], [["abc"], ["a"]])
        rows = text.splitlines()[2:]
        assert len(rows[0]) == len(rows[1])


class TestFormatProfile:
    def test_ranked_output(self):
        scores = {
            "good": {"x": 1.0, "y": 1.0},
            "bad": {"x": 9.0, "y": 9.0},
        }
        text = format_profile(performance_profile(scores))
        lines = text.splitlines()
        # 'good' listed before 'bad'
        good_idx = next(i for i, l in enumerate(lines) if "good" in l)
        bad_idx = next(i for i, l in enumerate(lines) if "bad" in l)
        assert good_idx < bad_idx

    def test_degraded_scheme_is_labelled(self):
        scores = {
            "good": {"x": 1.0, "y": 1.0},
            "failed": {"x": float("nan"), "y": 2.0},
        }
        text = format_profile(performance_profile(scores))
        assert "failed [degraded 1/2]" in text
        assert "good [degraded" not in text

    def test_clean_table_carries_no_label(self):
        scores = {"good": {"x": 1.0}, "bad": {"x": 9.0}}
        assert "degraded" not in format_profile(performance_profile(scores))


class TestHeatRow:
    def test_marks_best(self):
        row = format_heat_row({"a": 1.0, "b": 2.0})
        assert "a=1*" in row

    def test_higher_better(self):
        row = format_heat_row({"a": 1.0, "b": 2.0}, lower_is_better=False)
        assert "b=2*" in row

    def test_empty(self):
        assert format_heat_row({}) == ""


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [[1, 2.0], [3, 4.5]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"


class TestRunnersCache:
    def test_ordering_memoised(self):
        a = ordering_for("natural", "chicago_road")
        b = ordering_for("natural", "chicago_road")
        assert a is b

    def test_measures_consistent_with_ordering(self):
        m = measures_for("natural", "chicago_road")
        assert m.average_gap > 0

    def test_collect_scores_structure(self):
        scores = collect_scores(
            ["natural", "random"], ["chicago_road"],
            lambda m: m.average_gap,
        )
        assert set(scores) == {"natural", "random"}
        assert "chicago_road" in scores["natural"]

    def test_collect_costs_positive(self):
        costs = collect_costs(["natural"], ["chicago_road"])
        assert costs["natural"]["chicago_road"] >= 1
