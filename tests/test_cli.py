import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nemytskii_lab import analysis, cli, closed_form, fpe_solver, particle_sim
from nemytskii_lab.cli import (
    ConfigError,
    Scenario,
    _Artifact,
    main,
    parse_config,
    run_scenario,
)


README = Path(__file__).resolve().parents[1] / "README.md"


def read_report(path: Path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines]


def strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "wall_time" not in line)


# -- parsing -----------------------------------------------------------------

def test_parse_valid_config():
    s = parse_config("scenario = barenblatt-verify\nm = 2.0\nzeta = 0\n")
    assert s.name == "barenblatt-verify"
    assert s.params["m"] == 2.0
    assert s.params["zeta"] == 0


def test_parse_comments_and_types():
    s = parse_config("# header\nscenario = particle-run\nm = 2.0  # power\n"
                     "t0 = 0.1\nT = 0.2\ndt = 1e-3\nn_particles = 401\n"
                     "drift = zero\n")
    assert s.params["drift"] == "zero"
    assert isinstance(s.params["dt"], float)
    assert isinstance(s.params["n_particles"], int)


def test_parse_unknown_scenario_lists_names():
    # regularity-scan was a scenario once
    for name in ("bogus", "regularity-scan"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"scenario = {name}\nm = 2.0\n")
        assert err.value.problems == [
            f"unknown scenario {name!r}; allowed: barenblatt-verify, fpe-run, "
            "particle-run, compare, coupling, hypotheses-check"]


def test_parse_rejects_a_key_given_twice():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = barenblatt-verify\nm = 2.0\n# again\nm = 3.0\n")
    assert err.value.problems == ["line 4: key 'm' already set on line 2"]
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = barenblatt-verify\nm = 2.0\nscenario = fpe-run\n")
    assert err.value.problems == ["line 3: key 'scenario' already set on line 1"]
    # the command line's seed still replaces the file's
    s = parse_config("scenario = coupling\nm = 2.0\nt0 = 0.1\nT = 0.2\n"
                     "n_particles = 1000\ndt = 1e-3\nperturbation = 0\nseed = 5\n",
                     overrides={"seed": 3})
    assert s.params["seed"] == 3


def test_parse_collects_all_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = fpe-run\nnot a pair\nm = -1\ndrift = bogus\n")
    joined = " | ".join(err.value.problems)
    assert "line 2" in joined
    assert "m must exceed 1" in joined
    assert "missing required key" in joined
    assert "unknown drift 'bogus'" in joined


def test_parse_rejects_a_nan_exponent():
    with pytest.raises(ConfigError, match="m must exceed 1"):
        parse_config("scenario = barenblatt-verify\nm = nan\n")


@pytest.mark.parametrize("key, value", [("drift_amplitude", "nan"),
                                        ("perturbation", "nan"), ("T", "inf"),
                                        ("dt", "-inf")])
def test_parse_rejects_a_non_finite_value_naming_its_key(key, value):
    params = {"m": "2.0", "t0": "0.1", "T": "0.2", "n_particles": "1000",
              "dt": "1e-3", "perturbation": "0", "drift": "tanh_inward",
              key: value}
    text = "scenario = coupling\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [f"line {list(params).index(key) + 2}: {key} "
                                  f"must be finite, got {value}"]


def test_main_nan_drift_amplitude_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.conf"
    cfg.write_text("scenario = fpe-run\nm = 2.0\nt0 = 0.1\nT = 0.2\nn_cells = 64\n"
                   "h = 1e-2\ndrift = tanh_inward\ndrift_amplitude = nan\n")
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert "drift_amplitude must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.ndjson").exists()


def test_main_count_that_is_not_whole_is_a_config_error(tmp_path, capsys):
    # int() used to run 1000 particles and dump every 2nd snapshot while the
    # report echoed 1000.7 and 2.5
    cfg = tmp_path / "frac.conf"
    cfg.write_text("scenario = particle-run\nm = 2.0\nt0 = 0.1\nT = 0.13\n"
                   "n_particles = 1000.7\ndt = 1e-3\ndump_stride = 2.5\n")
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: line 5: n_particles must be a whole number, got 1000.7",
        "config error: line 7: dump_stride must be a whole number, got 2.5"]
    assert not (tmp_path / "out").exists()
    params = {"m": 2.0, "t0": 0.1, "T": 0.13, "n_particles": 1000.7, "dt": 1e-3}
    with pytest.raises(ValueError, match="n_particles must be a whole number, got 1000.7"):
        Scenario("particle-run", params, tmp_path)


@pytest.mark.parametrize("name, key, text", [
    ("fpe-run", "n_cells", "t0 = 0.1\nT = 0.2\nh = 1e-2\n"),
    ("particle-run", "n_particles", "t0 = 0.1\nT = 0.2\ndt = 1e-3\n"),
    ("particle-run", "dump_stride", "t0 = 0.1\nT = 0.2\nn_particles = 1000\ndt = 1e-3\n"),
    ("coupling", "seed", "t0 = 0.1\nT = 0.2\nn_particles = 1000\ndt = 1e-3\n"
                         "perturbation = 0\n"),
], ids=["n_cells", "n_particles", "dump_stride", "seed"])
def test_parse_reads_a_count_only_as_a_whole_number(name, key, text):
    head = f"scenario = {name}\nm = 2.0\n{text}"
    for value, shown in (("2.5", "2.5"), ("ten", "'ten'")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{head}{key} = {value}\n")
        assert err.value.problems == [
            f"line {head.count(chr(10)) + 1}: {key} must be a whole number, got {shown}"]
    assert parse_config(f"{head}{key} = 1e5\n").params[key] == 1e5


def test_parse_rejects_an_unknown_key_listing_the_known_ones():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = fpe-run\nm = 2.0\nt0 = 0.1\nT = 0.2\n"
                     "n_cells = 64\nh = 1e-2\nl1_tol = 1e-9\nepsilon_reg = 1e-6\n")
    (problem,) = err.value.problems
    assert problem.startswith("scenario fpe-run: unknown key(s) 'l1_tol', 'epsilon_reg'; ")
    assert "trajectory_format" in problem and "drift_amplitude" in problem


def _readme_keys(text: str) -> tuple:
    """The keys the README names as `key` (default)."""
    return tuple(re.findall(r"`(\w+)` \(", text))


def test_readme_scenario_table_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip("| ").split(" | ")]
        if line.startswith("| `") and len(cells) == 4:
            rows[cells[0].strip("`")] = (tuple(cells[1].strip("`").split()),
                                         _readme_keys(cells[2]))
    assert rows == {name: (required, optional)
                    for name, (_, required, optional) in cli._SCENARIO_TABLE.items()}
    paragraphs = text.split("\n\n")
    (at,) = [i for i, par in enumerate(paragraphs)
             if par.startswith("Every scenario needs `m`")]
    assert _readme_keys(paragraphs[at]) == cli._COMMON_KEYS
    # the list after it gives each drift kind's own keys
    drift_rows = dict(re.findall(r"^- `(\w+)`: (.*)$", paragraphs[at + 1], re.M))
    assert {kind: _readme_keys(keys) for kind, keys in drift_rows.items()} == \
        {kind: keys for kind, (_, keys) in cli._DRIFT_TABLE.items()}


def test_readme_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    mass_drift, linf, audit = map(float, capsys.readouterr().out.split())
    assert mass_drift <= 1e-8 and linf > 0.0 and audit <= 1e-6


def test_parse_rejects_a_key_of_another_drift_kind():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = barenblatt-verify\nm = 2.0\ndrift_amplitude = 0.5\n")
    (problem,) = err.value.problems
    assert problem.startswith("scenario barenblatt-verify: unknown key(s) "
                              "'drift_amplitude'; ")
    assert problem.endswith("; drift = tanh_inward also reads drift_amplitude, "
                            "b_constant")
    s = parse_config("scenario = barenblatt-verify\nm = 2.0\ndrift = tanh_inward\n"
                     "drift_amplitude = 0.5\nb_constant = 0.5\n")
    assert s.params["drift_amplitude"] == 0.5 and s.params["b_constant"] == 0.5


def test_scenario_rejects_a_non_finite_param_naming_its_key(tmp_path):
    with pytest.raises(ValueError, match="drift_amplitude must be finite, got nan"):
        run_scenario(Scenario("hypotheses-check",
                              {"m": 2.0, "drift": "tanh_inward",
                               "drift_amplitude": math.nan}, tmp_path))
    assert not (tmp_path / "report.ndjson").exists()


# a fresh interpreter: imports the package, runs each scenario through
# cli.main and prints the exit codes and the scipy modules loaded so far
_IMPORT_PROBE = """
import json, sys
from pathlib import Path
import nemytskii_lab, nemytskii_lab.cli as cli
tmp = Path(sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
for name in ("particle-run", "coupling", "fpe-run"):
    code = cli.main(["run", str(tmp / f"{name}.cfg"), "--output-dir", str(tmp / name)])
    seen[name] = [code, scipy_modules()]
import scipy.linalg
from nemytskii_lab import fpe_solver
seen["solve_banded"] = fpe_solver.solve_banded is scipy.linalg.solve_banded
print(json.dumps(seen))
"""


def test_cli_imports_no_scipy_integrate_interpolate_or_optimize(tmp_path):
    # the particle scenarios load no scipy module at all; a chain loads
    # scipy.linalg at its first solve
    configs = {
        "particle-run": "t0 = 0.1\nT = 0.13\nn_particles = 2000\ndt = 1e-3\n"
                        "seed = 4\n",
        "coupling": "t0 = 0.1\nT = 0.13\nn_particles = 1000\ndt = 1e-3\n"
                    "perturbation = 0.0\nseed = 5\n",
        "fpe-run": "t0 = 0.1\nT = 0.11\nn_cells = 64\nh = 1e-3\n",
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(f"scenario = {name}\nm = 2.0\n{text}")
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True)
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["particle-run"] == [0, []]
    assert seen["coupling"] == [0, []]
    code, loaded = seen["fpe-run"]
    assert code == 0 and "scipy.linalg" in loaded
    assert seen["solve_banded"] is True


def test_parse_missing_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("m = 2.0\n")


@pytest.mark.parametrize("line", ["= 2.0", "m =", "  =  # nothing"],
                         ids=["empty-key", "empty-value", "both-empty"])
def test_parse_rejects_a_line_with_an_empty_key_or_value(line):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = hypotheses-check\n{line}\n")
    assert "line 2: empty key or value" in err.value.problems


# -- scenarios ----------------------------------------------------------------

def test_barenblatt_verify_scenario(tmp_path):
    # each row compares the quadrature mass with the closed-form C
    for m in (1.01, 2.0, 8.0, 20.0, 100.0):
        out = tmp_path / f"m={m:g}"
        s = Scenario(name="barenblatt-verify", params={"m": m}, output_dir=out)
        assert run_scenario(s) == 0
        records = read_report(out / "report.ndjson")
        assert records[0]["scenario"] == "barenblatt-verify"
        rows = [r for r in records if "check_id" in r]
        assert [r["check_id"] for r in rows] == ["mass_t=0.1", "mass_t=1", "mass_t=10"]
        assert all(r["achieved"] <= 1e-9 and r["tolerance"] == 1e-9 for r in rows)
        assert "wall_time" in records[-1]


def test_fpe_run_scenario(tmp_path):
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.3, "n_cells": 300,
                         "h": 4e-3, "lo": -4.0, "hi": 4.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    ids = [r["check_id"] for r in read_report(tmp_path / "report.ndjson")
           if "check_id" in r]
    assert ids == ["mass_drift", "preclip_undershoot", "linf_growth_ratio",
                   "entropy_audit_max", "l1_error_vs_closed_form"]
    assert (tmp_path / "trajectory.csv").exists()
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "step,t,cell_center,value"


@pytest.mark.parametrize("T,stride", [(0.135, 1), (0.255, 3)],
                         ids=["7-steps", "31-steps"])
def test_fpe_run_trajectory_csv_keeps_every_tenth_step(tmp_path, T, stride):
    # N steps are written at steps 1, 1 + s, 1 + 2s, ... with s = max(1, N // 10)
    n_steps = round((T - 0.1) / 5e-3)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": T, "n_cells": 64,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    steps = [int(row.split(",", 1)[0]) for row in rows]
    assert steps == [k for k in range(1, n_steps + 1, stride) for _ in range(64)]


def test_fpe_run_with_T_not_after_t0_exits_1_naming_T(tmp_path, capsys):
    cfg = tmp_path / "backwards.conf"
    cfg.write_text("scenario = fpe-run\nm = 2.0\nt0 = 0.1\nT = 0.1\n"
                   "n_cells = 64\nh = 1e-3\n")
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    assert "horizon T" in capsys.readouterr().err


def test_failing_check_exits_2_with_full_report(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "L1_TOL", 1e-12)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 2
    records = read_report(tmp_path / "report.ndjson")
    failing = [r for r in records if r.get("pass") is False]
    assert failing and failing[0]["check_id"] == "l1_error_vs_closed_form"


def test_preclip_undershoot_row_reads_before_the_clip(tmp_path, monkeypatch):
    # the iterates are clipped at 0; the row must see a negative iterate
    # reported by the solve
    chain = cli.chain_steps

    def undershooting(*args, **kwargs):
        n_steps, steps = chain(*args, **kwargs)

        def altered():
            for step in steps:
                if step.index == 3:
                    (info,) = step.infos
                    step = replace(step, infos=(replace(info, preclip_min=-1e-9),))
                yield step

        return n_steps, altered()

    params = {"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200,
              "h": 5e-3, "lo": -4.0, "hi": 4.0}
    s = Scenario(name="fpe-run", params=params, output_dir=tmp_path / "ok")
    assert run_scenario(s) == 0
    rows = {r["check_id"]: r for r in read_report(tmp_path / "ok" / "report.ndjson")
            if "check_id" in r}
    assert rows["preclip_undershoot"]["achieved"] == 0.0
    assert rows["preclip_undershoot"]["tolerance"] == 1e-12

    monkeypatch.setattr(cli, "chain_steps", undershooting)
    s = Scenario(name="fpe-run", params=params, output_dir=tmp_path / "bad")
    assert run_scenario(s) == 2
    records = read_report(tmp_path / "bad" / "report.ndjson")
    failing = [r["check_id"] for r in records if r.get("pass") is False]
    assert failing == ["preclip_undershoot"]


def test_fpe_run_zero_amplitude_drift_checks_the_closed_form(tmp_path):
    # a drift of amplitude 0, or with b = 0, leaves the porous-medium
    # equation, so the run keeps its entropy and closed-form rows, and E's
    # norms do not enter its sup-norm bound: its linf_growth_ratio is that
    # of the run without drift
    chain = {"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200, "h": 5e-3,
             "lo": -4.0, "hi": 4.0}
    ratios = []
    for key in ("drift_amplitude", "b_constant", None):
        params = dict(chain) if key is None else \
            {**chain, "drift": "tanh_inward", key: 0.0}
        out = tmp_path / str(key)
        assert run_scenario(Scenario(name="fpe-run", params=params,
                                     output_dir=out)) == 0
        rows = [r for r in read_report(out / "report.ndjson") if "check_id" in r]
        ids = [r["check_id"] for r in rows]
        assert ids[-3:] == ["linf_growth_ratio", "entropy_audit_max",
                            "l1_error_vs_closed_form"]
        assert rows[-3]["tolerance"] == 1.0 + 1e-6
        ratios.append(rows[-3]["achieved"])
    assert ratios[0] == ratios[1] == ratios[2]


def test_fpe_run_with_drift_and_binary_trajectory(tmp_path):
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.15, "n_cells": 200,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0,
                         "drift": "tanh_inward", "drift_amplitude": 0.25,
                         "trajectory_format": "binary"},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    from nemytskii_lab.fpe_solver import read_trajectory_binary
    lo, hi, times, values = read_trajectory_binary(tmp_path / "trajectory.bin")
    assert (lo, hi) == (-4.0, 4.0)
    assert times.shape == (10,) and values.shape == (10, 200)


def test_interrupted_binary_trajectory_keeps_its_partial_suffix(tmp_path, monkeypatch):
    def crashing(fh, grid, n_steps):
        fh.write(b"\0" * 32)
        raise OSError("interrupted")

    monkeypatch.setattr(cli, "trajectory_binary_writer", crashing)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.11, "n_cells": 64,
                         "h": 1e-3, "trajectory_format": "binary"},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    assert (tmp_path / "trajectory.bin.partial").read_bytes() == b"\0" * 32
    assert not (tmp_path / "trajectory.bin").exists()


def test_a_failing_step_leaves_the_steps_before_it_in_the_partial_csv(
        tmp_path, monkeypatch, capsys):
    # the CSV is written as the chain streams; the fourth solve fails
    solve, calls = fpe_solver._newton_stack, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise fpe_solver.SolverError("nonlinear solve stalled")
        return solve(*args, **kwargs)

    monkeypatch.setattr(fpe_solver, "_newton_stack", failing)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.135, "n_cells": 64,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    assert "nonlinear solve stalled" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()
    lines = (tmp_path / "trajectory.csv.partial").read_text().splitlines()
    assert lines[0] == "step,t,cell_center,value"
    assert [int(line.split(",", 1)[0]) for line in lines[1:]] == \
        [k for k in (1, 2, 3) for _ in range(64)]


def test_a_failed_chain_reports_its_step_row_residual_and_lam(tmp_path, monkeypatch):
    # one Newton iteration is too few for the first step, so the run fails
    # there; its execution row carries what the SolverError knows
    monkeypatch.setattr(fpe_solver, "NEWTON_MAX_ITER", 1)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.11, "n_cells": 64,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    rows = [r for r in read_report(tmp_path / "report.ndjson") if "check_id" in r]
    assert [r["check_id"] for r in rows] == ["execution"]
    error = rows[0]["error"]
    assert error["type"] == "SolverError"
    assert "did not reach tol" in error["message"] and "lam=0.005" in error["message"]
    assert (error["step"], error["row"], error["lam"]) == (0, 0, 5e-3)
    assert error["residual"] > fpe_solver.NEWTON_TOL
    assert f"residual {error['residual']:.3e}" in error["message"]
    assert "particle_index" not in error


def test_an_error_without_context_reports_its_type_and_message(tmp_path, monkeypatch):
    # a SolverError raised with no residual, step or lam carries only its
    # type and message; the chain adds the step
    def failing(*args, **kwargs):
        raise fpe_solver.SolverError("nonlinear solve stalled")

    monkeypatch.setattr(fpe_solver, "_newton_stack", failing)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.11, "n_cells": 64, "h": 5e-3},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    (row,) = [r for r in read_report(tmp_path / "report.ndjson") if "check_id" in r]
    assert row["error"] == {"type": "SolverError", "message": "nonlinear solve stalled",
                            "step": 0}


def test_an_infinite_residual_is_left_out_of_the_strict_json_report(tmp_path,
                                                                   monkeypatch):
    # one huge cell makes the first residual infinite with no NaN; the
    # execution row keeps the message and drops the residual, and every
    # line of the report parses as strict JSON
    def failing(*args, **kwargs):
        raise fpe_solver.SolverError("nonlinear solve has a non-finite residual",
                                     residual=math.inf, row=0, lam=5e-3)

    monkeypatch.setattr(fpe_solver, "_newton_stack", failing)
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.11, "n_cells": 64, "h": 5e-3},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1

    def strict(token):
        raise ValueError(f"not strict JSON: {token}")

    lines = (tmp_path / "report.ndjson").read_text().splitlines()
    records = [json.loads(line, parse_constant=strict) for line in lines]
    (row,) = [r for r in records if "check_id" in r]
    assert row["error"] == {"type": "SolverError",
                            "message": "nonlinear solve has a non-finite residual",
                            "step": 0, "row": 0, "lam": 5e-3}


def test_a_particle_error_reports_its_particle_index():
    err = particle_sim.SimulationError("non-finite particle position",
                                       particle_index=np.int64(7))
    assert cli._error_context(err) == {"type": "SimulationError",
                                       "message": "non-finite particle position",
                                       "particle_index": 7}


@pytest.mark.parametrize("trajectory_format, rows", [("csv", 64), ("binary", 32)])
def test_fpe_run_holds_a_few_rows_not_its_trajectory(tmp_path, trajectory_format,
                                                     rows):
    # 300 steps of 2000 cells: the whole trajectory would take 300 rows of
    # 16 kB.  The run reduces and writes each step as it arrives.  Its traced
    # peak, after a first run has loaded scipy, measured 48.5 rows with the
    # CSV (whose stride rows are formatted as strings) and 22.8 with the
    # binary dump: the solver's workspace of about 17 rows, its three
    # buffers and the rows being written.  The bounds leave a margin of 1.3x
    # and 1.4x, and a stored trajectory, or a tenth of one, breaks them.
    params = {"m": 2.0, "t0": 0.1, "T": 0.4, "n_cells": 2000, "h": 1e-3,
              "trajectory_format": trajectory_format}
    warm = {**params, "T": 0.102}
    assert run_scenario(Scenario("fpe-run", warm, tmp_path / "warm")) == 0
    s = Scenario(name="fpe-run", params=params, output_dir=tmp_path / "run")
    tracemalloc.start()
    try:
        assert run_scenario(s) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * 2000 * 8


def test_compare_scenario(tmp_path):
    s = Scenario(name="compare",
                 params={"m": 2.0, "t0": 0.1, "T": 0.3, "n_cells": 400,
                         "h": 4e-3, "lo": -4.0, "hi": 4.0,
                         "n_particles": 20_000, "dt": 4e-3, "seed": 2},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    records = read_report(tmp_path / "report.ndjson")
    ids = {r["check_id"] for r in records if "check_id" in r}
    assert "w1_particle_vs_closed_form" in ids
    assert "l1_error_vs_closed_form" in ids


def test_compare_gates_the_particles_at_their_final_time(tmp_path):
    # (T - t0)/dt = 3.33, so the particles stop after 3 steps at t = 0.19
    params = {"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200, "h": 5e-3,
              "lo": -4.0, "hi": 4.0, "n_particles": 2000, "dt": 0.03, "seed": 4}
    assert run_scenario(Scenario("compare", dict(params), tmp_path)) == 0
    row = next(r for r in read_report(tmp_path / "report.ndjson")
               if r.get("check_id") == "w1_particle_vs_closed_form")
    problem = cli._build_problem(params)
    config = cli._sim_config(params, problem)
    final = particle_sim.run(config, problem.spec, problem.drift,
                             initial_density=problem.density(config.t0)).final
    assert final.t == pytest.approx(0.19, abs=1e-12)
    ref = problem.field(final.t, -4.0, 4.0, 200).normalized()
    assert row["achieved"] == analysis.w1_distance(final.positions, ref)


def test_compare_checks_its_particles_before_the_chain_writes(tmp_path, capsys):
    # the 4 chain steps used to run and write trajectory.csv before the
    # particles' zero-step config exited 1
    s = Scenario(name="compare",
                 params={"m": 2.0, "t0": 0.1, "T": 0.1004, "n_cells": 64,
                         "h": 1e-4, "n_particles": 1000, "dt": 1e-3},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    assert "give no step" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.ndjson"]


def test_particle_run_w1_reference_spans_the_support(tmp_path):
    # R(60) = 8.14 at m = 2: a reference grid fixed on (-6, 6) read W1 0.377
    # against variance_rel_error 0.0085
    s = Scenario(name="particle-run",
                 params={"m": 2.0, "t0": 50.0, "T": 60.0, "n_particles": 20_000,
                         "dt": 0.1, "seed": 3},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    rows = {r["check_id"]: r for r in read_report(tmp_path / "report.ndjson")
            if "check_id" in r}
    assert rows["w1_vs_closed_form"]["achieved"] <= 0.05
    assert rows["variance_rel_error"]["achieved"] <= 0.05


def test_particle_run_gates_its_rows_at_the_final_time(tmp_path):
    # (T - t0)/dt = 188.5 rounds down to 188 steps, so the particles stop at
    # t = 1.04, short of T
    params = {"m": 2.0, "t0": 0.1, "T": 1.0425, "n_particles": 20_000,
              "dt": 0.005, "seed": 2}
    assert run_scenario(Scenario("particle-run", dict(params), tmp_path)) == 0
    rows = {r["check_id"]: r for r in read_report(tmp_path / "report.ndjson")
            if "check_id" in r}
    problem = cli._build_problem(params)
    config = cli._sim_config(params, problem)
    final = particle_sim.run(config, problem.spec, problem.drift,
                             initial_density=problem.density(config.t0)).final
    assert final.t == pytest.approx(1.04, abs=1e-12)
    target = closed_form.barenblatt_moment2(problem.source, final.t)
    assert rows["variance_rel_error"]["achieved"] == \
        abs(float(np.var(final.positions)) - target) / target
    # ten snapshots, the last at the final time
    times = [float(line.split(",")[0]) for line in
             (tmp_path / "particles.csv").read_text().splitlines()[1::2]]
    assert len(times) == 10 and times[-1] == final.t


def test_particle_run_scenario_with_dump(tmp_path):
    s = Scenario(name="particle-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.4, "n_particles": 20_000,
                         "dt": 2e-3, "seed": 4, "dump_stride": 5},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    assert (tmp_path / "particles.csv").exists()
    dump = (tmp_path / "particles_dump.csv").read_text().splitlines()
    assert dump[0] == "t,particle,position"
    assert len(dump) > 20_000
    records = read_report(tmp_path / "report.ndjson")
    ids = {r["check_id"] for r in records if "check_id" in r}
    assert any(i.startswith("advisory_hypothesis_") for i in ids)


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 4.0])
def test_particle_clamp_is_twice_the_source_peak(m):
    params = {"m": m, "t0": 0.1, "T": 0.3, "n_particles": 1000, "dt": 1e-3}
    problem = cli._build_problem(params)
    p = problem.source
    config = cli._sim_config(params, problem)
    peak = p.C_norm ** (1.0 / (m - 1.0)) * 0.1 ** (-p.alpha)
    assert config.linf_clamp == pytest.approx(2.0 * peak, rel=1e-12)


@pytest.mark.parametrize("name,extra", [("particle-run", {}),
                                        ("coupling", {"perturbation": 0.0})])
def test_particle_scenario_without_a_step_is_rejected(tmp_path, capsys, name, extra):
    # round((0.1004 - 0.1)/1e-3) = 0 used to end in a bare IndexError
    s = Scenario(name=name,
                 params={"m": 2.0, "t0": 0.1, "T": 0.1004, "n_particles": 1000,
                         "dt": 1e-3, **extra},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    assert "t0 = 0.1, T = 0.1004 and dt = 0.001 give no step" in capsys.readouterr().err


@pytest.mark.parametrize("name,extra", [("fpe-run", {}),
                                        ("compare", {"n_particles": 1000, "dt": 1e-3})])
def test_unknown_trajectory_format_is_rejected(tmp_path, capsys, monkeypatch, name, extra):
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(cli, "chain_steps", no_chain)
    s = Scenario(name=name,
                 params={"m": 2.0, "t0": 0.1, "T": 0.11, "n_cells": 64, "h": 1e-3,
                         "trajectory_format": "binry", **extra},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    assert "trajectory_format must be csv or binary, got 'binry'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.ndjson"]


def test_negative_dump_stride_is_rejected(tmp_path, capsys):
    s = Scenario(name="particle-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.13, "n_particles": 1000,
                         "dt": 1e-3, "dump_stride": -3},
                 output_dir=tmp_path)
    assert run_scenario(s) == 1
    assert "dump_stride must be nonnegative, got -3" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.ndjson"]


def test_particle_run_m4_meets_its_tolerances(tmp_path):
    # a clamp below the source peak starves the diffusion at m = 4
    s = Scenario(name="particle-run",
                 params={"m": 4.0, "t0": 0.1, "T": 0.3, "n_particles": 20_000,
                         "dt": 1e-3, "seed": 4},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0


def test_drifted_particle_run_has_no_closed_form_rows(tmp_path):
    # the source-type solution solves only the drift-free equation; gating
    # a drifted run against it failed with variance_rel_error 0.082
    s = Scenario(name="particle-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.4, "n_particles": 20_000,
                         "dt": 1e-3, "seed": 4, "drift": "tanh_inward"},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    ids = {r["check_id"] for r in read_report(tmp_path / "report.ndjson")
           if "check_id" in r}
    assert ids and all(i.startswith("advisory_hypothesis_") for i in ids)


def test_drifted_compare_has_no_particle_row(tmp_path):
    s = Scenario(name="compare",
                 params={"m": 2.0, "t0": 0.1, "T": 0.13, "n_cells": 200,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0, "n_particles": 2000,
                         "dt": 1e-3, "seed": 4, "drift": "tanh_inward"},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    ids = [r["check_id"] for r in read_report(tmp_path / "report.ndjson")
           if "check_id" in r]
    assert ids[-1] == "linf_growth_ratio"


def test_hypotheses_scenario(tmp_path):
    s = Scenario(name="hypotheses-check", params={"m": 2.0}, output_dir=tmp_path)
    assert run_scenario(s) == 0
    ids = [r["check_id"] for r in read_report(tmp_path / "report.ndjson")
           if "check_id" in r]
    assert ids == ["hypothesis_b_bounded", "hypothesis_b_compat_lipschitz",
                   "hypothesis_b_nonnegative", "lambda_zero_positive"]


def test_coupling_with_perturbation_gates_the_terminal_distance(tmp_path):
    s = Scenario(name="coupling",
                 params={"m": 2.0, "t0": 0.1, "T": 0.13, "n_particles": 1000,
                         "dt": 1e-3, "perturbation": 1e-3, "seed": 5},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    rows = [r for r in read_report(tmp_path / "report.ndjson") if "check_id" in r]
    assert [r["check_id"] for r in rows] == ["terminal_sup_distance"]
    assert rows[0]["tolerance"] == 1e-2 and rows[0]["pass"]
    # measured 1.53e-3; the bound leaves a factor 2 of margin
    assert 0.0 < rows[0]["achieved"] <= 3e-3


@pytest.mark.parametrize("name,params", [
    ("coupling", {"m": 2.0, "t0": 0.1, "T": 0.13, "n_particles": 1000,
                  "dt": 1e-3, "perturbation": 0.0, "seed": 5}),
    ("fpe-run", {"m": 2.0, "t0": 0.1, "T": 0.15, "n_cells": 200, "h": 5e-3,
                 "lo": -4.0, "hi": 4.0, "drift": "tanh_inward",
                 "drift_amplitude": 0.25}),
    ("particle-run", {"m": 2.0, "t0": 0.1, "T": 0.13, "n_particles": 2000,
                      "dt": 1e-3, "seed": 4, "dump_stride": 10}),
    ("compare", {"m": 2.0, "t0": 0.1, "T": 0.13, "n_cells": 200, "h": 5e-3,
                 "lo": -4.0, "hi": 4.0, "n_particles": 2000, "dt": 1e-3,
                 "seed": 4}),
], ids=["coupling", "fpe-run-drift", "particle-run", "compare"])
def test_coupling_scenario_and_determinism(tmp_path, name, params):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert run_scenario(Scenario(name=name, params=dict(params),
                                     output_dir=d)) == 0
        outs.append(d)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    assert "report.ndjson" in files and len(files) > 1
    for fname in files:
        a, b = ((d / fname).read_bytes() for d in outs)
        if fname == "report.ndjson":
            assert strip_wall_time(a.decode()) == strip_wall_time(b.decode())
        else:
            assert a == b, fname


# -- entry point ----------------------------------------------------------------

def test_main_run_and_list(tmp_path, capsys):
    cfg = tmp_path / "verify.conf"
    cfg.write_text("scenario = barenblatt-verify\nm = 2.0\n")
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.ndjson").exists()
    capsys.readouterr()
    assert main(["list-scenarios"]) == 0
    assert capsys.readouterr().out.split() == [
        "barenblatt-verify", "fpe-run", "particle-run", "compare", "coupling",
        "hypotheses-check"]


@pytest.mark.parametrize("command", ["run", "check-hypotheses"])
def test_main_missing_config_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "no" / "such.cfg"
    assert main([command, str(cfg)]) == 1
    assert capsys.readouterr().err == \
        f"config error: {cfg}: No such file or directory\n"


def test_main_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("scenario = barenblatt-verify\nm = 2.0  # \u00e9\n".encode("latin-1"))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: 'utf-8' codec can't decode byte 0xe9")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_main_config_with_a_byte_order_mark_runs(tmp_path):
    text = b"scenario = barenblatt-verify\nm = 2.0\n"
    reports = []
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        cfg = tmp_path / f"{name}.conf"
        cfg.write_bytes(data)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / name)]) == 0
        reports.append(strip_wall_time((tmp_path / name / "report.ndjson").read_text()))
    assert reports[0] == reports[1]


def test_main_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("scenario = nope\n")
    assert main(["run", str(cfg)]) == 1
    assert "allowed" in capsys.readouterr().err


def test_main_check_hypotheses(tmp_path):
    cfg = tmp_path / "hyp.conf"
    cfg.write_text("scenario = fpe-run\nm = 2.0\nt0 = 0.1\nT = 0.2\nn_cells = 64\n"
                   f"h = 1e-3\noutput_dir = {tmp_path / 'hyp_report'}\n")
    # the subcommand reuses the parsed params under the hypotheses runner
    assert main(["check-hypotheses", str(cfg)]) == 0
    assert (tmp_path / "hyp_report" / "report.ndjson").exists()
    out = tmp_path / "hyp_out"
    assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
    assert (out / "report.ndjson").exists()


_FPE_RUN = "scenario = fpe-run\nt0 = 0.1\nT = 0.11\nn_cells = 64\nh = 1e-3\n"
_SEEDLESS_CONFIGS = {
    "fpe-run": _FPE_RUN,
    "fpe-run-drift": _FPE_RUN + "drift = tanh_inward\ndrift_amplitude = 0.5\n",
    "barenblatt-verify": "scenario = barenblatt-verify\n",
    "hypotheses-check": "scenario = hypotheses-check\n",
}


@pytest.mark.parametrize("name", sorted(_SEEDLESS_CONFIGS))
def test_main_seed_of_a_scenario_without_one_is_a_config_error(tmp_path, capsys, name):
    # --seed is checked like a seed line in the file, whatever the drift reads
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m = 2.0\n{_SEEDLESS_CONFIGS[name]}")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--seed", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown key(s) 'seed'" in err
    assert not out.exists()
    assert main(["run", str(cfg), "--output-dir", str(out)]) == 0


def test_main_seed_overrides_the_config_seed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = particle-run\nm = 2.0\nt0 = 0.1\nT = 0.13\n"
                   "n_particles = 2000\ndt = 1e-3\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output-dir", str(out), "--seed", "3"]) == 0
    assert read_report(out / "report.ndjson")[0]["config"]["seed"] == 3


def test_artifact_partial_on_crash(tmp_path):
    target = tmp_path / "data.csv"
    with pytest.raises(RuntimeError):
        with _Artifact(target) as fh:
            fh.write("partial content")
            raise RuntimeError("boom")
    assert not target.exists()
    assert (tmp_path / "data.csv.partial").exists()
