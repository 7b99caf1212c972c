"""Bookkeeping of scripts/bench.py, with its child processes replaced.

compare() runs one child per source tree and round and summarizes their
samples; here _child returns canned results, so no process starts.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned(bench, medians: dict):
    """Make _child return, per tree and round, one timing of that median."""
    calls = []

    def child(src):
        calls.append(src.name)
        median = medians[src.name][sum(c == src.name for c in calls) - 1]
        return {"timings": {"t": [median - 1.0, median, median + 1.0]},
                "peak_rss_mb": {"fresh": [10.0 + len(calls)]},
                "passes": {"panel": len(calls)}}

    bench._child = child
    return calls


def test_compare_alternates_sides_change_first_on_even_rounds(bench):
    calls = _canned(bench, {"change": [1.0] * 4, "baseline": [2.0] * 4})
    result = bench.compare({"change": Path("change"),
                            "baseline": Path("baseline")}, 4)
    assert calls == ["change", "baseline", "baseline", "change",
                     "change", "baseline", "baseline", "change"]
    assert result["rounds"] == 4
    change = result["sides"]["change"]
    # other entries come from the tree's first child
    assert change["passes"] == {"panel": 1}
    assert change["peak_rss_mb"]["fresh"]["samples"] == [11.0, 14.0, 15.0,
                                                         18.0]
    assert len(change["timings"]["t"]["samples"]) == 12


def test_summary_inclusive_quartiles(bench):
    # the exclusive method would give q1 1.5 and q3 7
    samples = [4.0, 1.0, 3.0, 2.0, 10.0]
    assert bench._summary(samples) == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                       "samples": samples}
    assert bench._summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5,
                                     "samples": [2.5]}


def test_change_wins_counts_a_tie_as_no_win(bench):
    _canned(bench, {"change": [1.0, 2.0, 3.0, 5.0],
                    "baseline": [2.0, 2.0, 2.0, 6.0]})
    result = bench.compare({"change": Path("change"),
                            "baseline": Path("baseline")}, 4)
    # rounds 0 and 3 win, round 1 ties, round 2 loses
    assert result["change_wins"] == {"t": 0.5}


def test_no_change_wins_without_a_baseline(bench):
    _canned(bench, {"change": [1.0, 1.0]})
    result = bench.compare({"change": Path("change")}, 2)
    assert "change_wins" not in result
    assert list(result["sides"]) == ["change"]
