"""Alternating pairs of benchmark runs: a parent commit against the change.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT_REV              # 10 pairs, --workload all --trace 0
    python3 tools/bench_pairs.py PARENT_REV --pairs 5 -- --workload all --seed 99

The parent side is a ``git archive`` of PARENT_REV; the change side is a
copy of the working tree's src/, bench/, BENCHMARK.json and pyproject.toml.  Each pair
runs ``python3 bench/run.py`` with the arguments after ``--`` once in each
tree, the parent first in odd pairs (1, 3, ...) and the change first in
even ones, so a drift of the host's speed weighs on both sides alike.  Each
run's last line is its result object; the summary reads the end-to-end
metrics from it, and each metric's direction ("better") from the change's
BENCHMARK.json.

The table gives, per workload and metric, the median [Q1, Q3] over the
pairs of each side (quartiles by statistics.quantiles, inclusive method),
the wins (pairs in which the change is strictly better) and the ratio of
the change's median to the parent's.  It also says how many runs were not
"correct" or had failed operations.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "bench", "BENCHMARK.json", "pyproject.toml")
DEFAULT_RUN_ARGS = ("--workload", "all", "--trace", "0")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def metric_values(result: dict, workload: str | None) -> dict[str, float]:
    """{"workload.metric": value} of one run's result object; a run of one
    workload names its metrics without the workload, which is then added."""
    prefix = f"{workload}." if workload else ""
    return {prefix + name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(parent: list[dict[str, float]], change: list[dict[str, float]],
              better: dict[str, str]) -> list[dict]:
    """One row per metric both sides report in every pair, in the parent's
    order: the metric, both sides' (median, Q1, Q3), the wins and the ratio.
    parent[i] and change[i] are pair i's metric values; better maps a
    metric's own name (the part after the last dot) to "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    names = [name for name in parent[0]
             if all(name in run for run in parent + change)]
    rows = []
    for name in names:
        direction = better[name.rsplit(".", 1)[-1]]
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        wins = sum((b > a) if direction == "higher" else (b < a)
                   for a, b in zip(before, after))
        mid_before, mid_after = quartiles(before)[0], quartiles(after)[0]
        rows.append({"metric": name, "parent": quartiles(before),
                     "change": quartiles(after), "wins": wins, "pairs": len(before),
                     "ratio": mid_after / mid_before if mid_before else float("nan")})
    return rows


def format_table(rows: list[dict]) -> str:
    """The rows as the markdown table CHANGES.md uses."""
    def cell(q):
        return f"{q[0]:.4g} [{q[1]:.4g}, {q[2]:.4g}]"

    lines = ["| workload | metric | parent | change | wins | ratio |",
             "|---|---|---|---|---|---|"]
    for row in rows:
        workload, _, metric = row["metric"].rpartition(".")
        lines.append(f"| {workload or '-'} | {metric} | {cell(row['parent'])} | "
                     f"{cell(row['change'])} | {row['wins']}/{row['pairs']} | "
                     f"{row['ratio']:.3f} |")
    return "\n".join(lines)


def _archive(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _copy_working_tree(dest: Path) -> None:
    dest.mkdir(parents=True)
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        elif src.exists():
            shutil.copy2(src, dest / name)


def _workload(run_args: list[str]) -> str | None:
    """The workload a run of run_args measures, or None for "all"."""
    if "--workload" in run_args:
        name = run_args[run_args.index("--workload") + 1]
        return None if name == "all" else name
    return None


def _run(tree: Path, run_args: list[str], log: Path | None, label: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", *run_args], cwd=tree,
                          capture_output=True, text=True)
    if log is not None:
        (log / f"{label}.out").write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{label}: bench/run.py exited {proc.returncode} "
                           f"with no result\n{proc.stderr[-2000:]}") from None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--log", type=Path, default=None,
                        help="a directory for each run's output and every "
                             "run's metric values (values.json)")
    # the arguments of bench/run.py follow --
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    run_args = argv[split + 1:] or list(DEFAULT_RUN_ARGS)
    if args.log is not None:
        args.log.mkdir(parents=True, exist_ok=True)
    workload = _workload(run_args)
    sides = {"parent": [], "change": []}
    unsound = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _archive(args.parent, trees["parent"])
        _copy_working_tree(trees["change"])
        manifest = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = _run(trees[side], run_args, args.log, f"pair{pair}-{side}")
                if not result["correct"] or result["failed"]:
                    unsound.append(f"pair {pair} {side}: correct={result['correct']} "
                                   f"failed={result['failed']}")
                sides[side].append(metric_values(result, workload))
                print(f"pair {pair} {side} done", file=sys.stderr, flush=True)
    if args.log is not None:
        (args.log / "values.json").write_text(json.dumps(sides, indent=1))
    print(f"{args.pairs} alternating pairs of python3 bench/run.py {' '.join(run_args)}, "
          f"parent first in odd pairs; median [Q1, Q3], wins = pairs where the "
          f"change is better, ratio = change median / parent median")
    print(format_table(summarize(sides["parent"], sides["change"], better)))
    print("every run correct with 0 failed operations" if not unsound
          else "\n".join(["runs not correct or with failures:", *unsound]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
