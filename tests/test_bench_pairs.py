"""The summary arithmetic of tools/bench_pairs.py, on canned results.

The runs themselves take minutes and stay outside tier-1; this checks the
medians, quartiles, wins and ratio the table reports, and its format.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"elem_steps_per_s_norm": "higher", "setup_s": "lower"}


def test_quartiles_are_the_inclusive_ones():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.75, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_by_each_metrics_direction():
    parent = [{"w.elem_steps_per_s_norm": v, "w.setup_s": s}
              for v, s in [(10.0, 0.20), (11.0, 0.18), (9.0, 0.22), (10.0, 0.19)]]
    change = [{"w.elem_steps_per_s_norm": v, "w.setup_s": s}
              for v, s in [(12.0, 0.21), (12.5, 0.17), (11.0, 0.22), (9.5, 0.20)]]
    rows = {row["metric"]: row for row in bench_pairs.summarize(parent, change, BETTER)}
    speed, setup = rows["w.elem_steps_per_s_norm"], rows["w.setup_s"]
    # higher is better: pairs 1-3 win; lower is better: only pair 2, and a
    # tie (pair 3) is no win
    assert (speed["wins"], speed["pairs"]) == (3, 4)
    assert (setup["wins"], setup["pairs"]) == (1, 4)
    assert speed["parent"] == (10.0, 9.75, 10.25)
    assert speed["change"] == (11.5, 10.625, 12.125)
    assert speed["ratio"] == pytest.approx(1.15)


def test_summary_reads_one_workloads_runs_and_skips_missing_metrics():
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"setup_s": {"value": 0.2, "unit": "s"},
                          "elem_steps_per_s_norm": {"value": 5.0, "unit": "1/s"}}}
    values = bench_pairs.metric_values(result, "fpe-contraction")
    assert values == {"fpe-contraction.setup_s": 0.2,
                      "fpe-contraction.elem_steps_per_s_norm": 5.0}
    other = {"fpe-contraction.setup_s": 0.1}
    rows = bench_pairs.summarize([values], [other], BETTER)
    assert [row["metric"] for row in rows] == ["fpe-contraction.setup_s"]
    with pytest.raises(ValueError):
        bench_pairs.summarize([values], [], BETTER)


def test_table_has_the_changes_md_columns():
    rows = [{"metric": "fpe-contraction.elem_steps_per_s_norm",
             "parent": (2.209e6, 2.193e6, 2.224e6), "change": (2.8e6, 2.75e6, 2.85e6),
             "wins": 10, "pairs": 10, "ratio": 2.8e6 / 2.209e6}]
    assert bench_pairs.format_table(rows).splitlines() == [
        "| workload | metric | parent | change | wins | ratio |",
        "|---|---|---|---|---|---|",
        "| fpe-contraction | elem_steps_per_s_norm | 2.209e+06 [2.193e+06, 2.224e+06] | "
        "2.8e+06 [2.75e+06, 2.85e+06] | 10/10 | 1.268 |",
    ]
