"""Benchmark of nemytskii_lab's implicit chain and particle legs.

    python3 bench/run.py --workload fpe-barenblatt --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --trace 1

Runs one workload (see workloads.py) in this process for --seconds, one
operation after another, and prints one line per operation, then the metrics
declared in BENCHMARK.json as one JSON object on the last line.  Each
operation is timed between two runs of a fixed reference job (hostspeed.py),
and its time is normalised by theirs, because the shared host's speed drifts.

  --trace 0  end-to-end metrics; tracing is off.  The --seconds include
             timing the set-up in fresh processes (setup_s), each sample
             normalised like an operation.
  --trace 1  per-layer metrics from spans recorded around the calls one
             module makes into another (layers.py).  Operations alternate
             untraced and traced; the difference of their normalised
             medians is the tracing overhead, and the exact counters must
             repeat between traced operations.  Spans are written to
             .bench_out/.

``--workload all`` runs every workload, each in a fresh process, one after
another.  NEMYTSKII_THREADS is removed from the environment, so the default
two-worker pool of semigroup_distance is what gets measured.  The program is
imported from src/ next to this directory; without it the benchmark exits
with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS, which can only be imported after load_program
NAMES = ("fpe-barenblatt", "fpe-contraction", "particles", "coupling")
SETUP_SAMPLES = 5
TRACED_MIN_OPS = 4   # two untraced and two traced operations


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import nemytskii_lab from src/ beside the benchmark, or exit 1."""
    if not (SRC / "nemytskii_lab" / "__init__.py").is_file():
        sys.exit(f"bench: no nemytskii_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nemytskii_lab

    if Path(nemytskii_lab.__file__).resolve().parent != SRC / "nemytskii_lab":
        sys.exit(f"bench: imported nemytskii_lab from {nemytskii_lab.__file__}")


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    return {m["name"]: m["unit"]
            for m in manifest()["per_layer" if trace else "end_to_end"]}


def prepare(name: str, seed: int | None, workdir: Path):
    from workloads import DEFAULT_SEEDS, WORKLOADS

    if seed is None:
        seed = DEFAULT_SEEDS.get(name)
    return seed, WORKLOADS[name](seed, workdir)


def setup_probe(args) -> int:
    """Child of setup_seconds: import, build the inputs, say so, exit."""
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        prepare(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)
    return 0


def setup_seconds(args) -> float:
    """Process start to inputs built, imports included, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited with status {code}")
    return elapsed


def measure(args, prepared, workdir: Path, deadline: float):
    """Run operations until the deadline; returns op records, setup samples.

    An untraced run takes SETUP_SAMPLES set-up samples spread evenly over
    its time, so they see the same host speed as the operations around them.
    Every operation and set-up sample records ``probe_s``, the mean of the
    reference job's time just before and just after it.
    """
    from hostspeed import probe_seconds
    from spans import SpanRecorder
    from workloads import describe

    if args.trace:
        from layers import instrumented

    started = time.perf_counter()
    setup: list[dict] = []

    def setup_sample() -> dict:
        before = probe_seconds()
        seconds = setup_seconds(args)
        return {"seconds": seconds, "probe_s": (before + probe_seconds()) / 2}

    def setup_due() -> bool:
        share = len(setup) / SETUP_SAMPLES
        return (not args.trace and len(setup) < SETUP_SAMPLES
                and time.perf_counter() - started >= share * (deadline - started))

    ops = []
    first_digest = None
    while True:
        while setup_due():
            setup.append(setup_sample())
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        outdir = workdir / f"op{k}"
        rec = SpanRecorder() if traced else None
        op = {"traced": traced, "recorder": rec, "failure": None}
        begin = time.perf_counter()
        probe_before = probe_seconds()
        start = time.perf_counter()
        try:
            if traced:
                with instrumented(rec):
                    outcome = prepared.run(outdir)
            else:
                outcome = prepared.run(outdir)
        except Exception as err:  # noqa: BLE001 - one failed op, keep going
            traceback.print_exc(file=sys.stderr)
            op["failure"] = describe(err)
            op["seconds"] = time.perf_counter() - start
        else:
            op["seconds"] = outcome.seconds
            op["values"] = outcome.values
            if first_digest is None:
                first_digest = outcome.digest
            elif outcome.digest != first_digest:
                op["failure"] = "outputs differ from the first operation's"
        shutil.rmtree(outdir, ignore_errors=True)
        op["probe_s"] = (probe_before + probe_seconds()) / 2
        ops.append(op)
        report_op(k, op)
        spent = time.perf_counter() - begin
        enough = len(ops) >= (TRACED_MIN_OPS if args.trace else 1)
        if enough and time.perf_counter() + spent > deadline:
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return ops, setup


def report_op(k: int, op: dict) -> None:
    values = " ".join(f"{name}={value!r}"
                      for name, value in op.get("values", {}).items())
    status = f"FAILED {op['failure']}" if op["failure"] else "ok"
    print(f"op {k} {'traced' if op['traced'] else 'untraced'} "
          f"{op['seconds']:.4f} s probe {op['probe_s']:.4f} s {values} {status}",
          flush=True)


def normalised_seconds(timed: dict) -> float:
    """Wall time of an operation or set-up sample on a host that runs the
    reference job in NOMINAL_PROBE_S."""
    from hostspeed import NOMINAL_PROBE_S

    return timed["seconds"] * NOMINAL_PROBE_S / timed["probe_s"]


def end_to_end(ops, prepared, setup: list[dict]) -> dict[str, float]:
    """The declared metrics; also prints the leg's own names for them."""
    ok = [op for op in ops if not op["failure"]] or ops
    wall = statistics.median(prepared.work / op["seconds"] for op in ok)
    norm = statistics.median(prepared.work / normalised_seconds(op) for op in ok)
    print("setup samples s (wall clock, not normalised): "
          + " ".join(f"{s['seconds']:.4f}" for s in setup))
    print(f"probe median s: {statistics.median(op['probe_s'] for op in ok)!r}")
    print(f"{prepared.work_name} {wall!r} 1/s (wall clock, not normalised)")
    print(f"{prepared.work_name}_norm {norm!r} 1/s")
    valued = [op for op in ok if "values" in op]
    for name in valued[0]["values"] if valued else ():
        print(f"{name} {statistics.median(op['values'][name] for op in valued)!r} 1")
    return {
        "setup_s": statistics.median(normalised_seconds(s) for s in setup),
        "elem_steps_per_s_norm": norm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops, span_file: Path) -> tuple[dict[str, float], bool]:
    """Median per-layer metrics of the traced ops, and whether counts repeat."""
    from layers import EXACT_COUNTERS, layer_metrics

    traced = [op for op in ops if op["traced"]]
    rows = [layer_metrics(op["recorder"]) for op in traced]
    repeat = True
    for row in rows[1:]:
        for name in EXACT_COUNTERS:
            if row[name] != rows[0][name]:
                repeat = False
                print(f"count {name} differs between traced ops: "
                      f"{rows[0][name]!r} then {row[name]!r}")
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    plain = statistics.median(normalised_seconds(op)
                              for op in ops if not op["traced"])
    with_spans = statistics.median(normalised_seconds(op) for op in traced)
    metrics["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain
    print(f"tracing overhead: {with_spans - plain:+.4f} normalised s per op "
          f"({with_spans:.4f} traced against {plain:.4f} untraced)")
    with open(span_file, "w", encoding="utf-8") as fh:
        for k, op in enumerate(ops):
            if op["traced"]:
                op["recorder"].write_ndjson(fh, op=k)
    print(f"spans written to {span_file.relative_to(ROOT)}")
    return metrics, repeat


def run_one(args) -> int:
    deadline = time.perf_counter() + args.seconds
    load_program()
    units = declared_metrics(args.trace)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        seed, prepared = prepare(args.workload, args.seed, workdir)
        seed_label = "unused" if seed is None else seed
        print(f"workload {args.workload} seed {seed_label} work/op "
              f"{prepared.work} trace {args.trace} seconds {args.seconds:g}",
              flush=True)
        ops, setup = measure(args, prepared, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["failure"])
    correct = failed == 0
    if args.trace:
        metrics, repeat = per_layer(
            ops, OUT / f"spans-{args.workload}-seed{seed_label}.ndjson")
        correct = correct and repeat
    else:
        metrics = end_to_end(ops, prepared, setup)
    missing = set(units) - set(metrics)
    if missing:
        sys.exit(f"bench: no value for declared metrics {sorted(missing)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, in turn; one summary line at the end."""
    load_program()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: exit status {proc.returncode}, no result")
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{metric}": value
                        for metric, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("NEMYTSKII_THREADS", None)
    if args.setup_probe:
        load_program()
        return setup_probe(args)
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
