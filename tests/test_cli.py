import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from nemytskii_lab import cli
from nemytskii_lab.cli import (
    ConfigError,
    Scenario,
    SCENARIOS,
    _Artifact,
    main,
    parse_config,
    run_scenario,
)


def read_report(path: Path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines]


def strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "wall_time" not in line)


# -- parsing -----------------------------------------------------------------

def test_parse_valid_config():
    s = parse_config("scenario = barenblatt-verify\nm = 2.0\nd = 1\n")
    assert s.name == "barenblatt-verify"
    assert s.params["m"] == 2.0
    assert s.params["d"] == 1


def test_parse_comments_and_types():
    s = parse_config("# header\nscenario = regularity-scan\nm = 2.0  # power\np = 1.0\nlabel = mycase\n")
    assert s.params["label"] == "mycase"
    assert isinstance(s.params["p"], float)


def test_parse_unknown_scenario_lists_names():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = bogus\n")
    assert all(name in str(err.value) for name in SCENARIOS)


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


def test_parse_missing_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("m = 2.0\n")


# -- scenarios ----------------------------------------------------------------

def test_barenblatt_verify_scenario(tmp_path):
    s = Scenario(name="barenblatt-verify", params={"m": 2.0}, output_dir=tmp_path)
    assert run_scenario(s) == 0
    records = read_report(tmp_path / "report.ndjson")
    assert records[0]["scenario"] == "barenblatt-verify"
    checks = [r for r in records if "check_id" in r]
    assert checks and all(r["pass"] for r in checks)
    assert "wall_time" in records[-1]


def test_fpe_run_scenario(tmp_path):
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.3, "n_cells": 300,
                         "h": 4e-3, "lo": -4.0, "hi": 4.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
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


def test_failing_check_exits_2_with_full_report(tmp_path):
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0, "l1_tol": 1e-12},
                 output_dir=tmp_path)
    assert run_scenario(s) == 2
    records = read_report(tmp_path / "report.ndjson")
    failing = [r for r in records if r.get("pass") is False]
    assert failing and failing[0]["check_id"] == "l1_error_vs_closed_form"


def test_preclip_undershoot_row_reads_before_the_clip(tmp_path, monkeypatch):
    # min_value reads the clipped fields and stays 0; the new row must see a
    # negative iterate reported by the solve
    chain = cli.step_chain

    def undershooting(*args, **kwargs):
        traj = chain(*args, **kwargs)
        traj.infos[3] = replace(traj.infos[3], preclip_min=-1e-9)
        return traj

    params = {"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200,
              "h": 5e-3, "lo": -4.0, "hi": 4.0}
    s = Scenario(name="fpe-run", params=params, output_dir=tmp_path / "ok")
    assert run_scenario(s) == 0
    rows = {r["check_id"]: r for r in read_report(tmp_path / "ok" / "report.ndjson")
            if "check_id" in r}
    assert rows["preclip_undershoot"]["achieved"] == 0.0
    assert rows["preclip_undershoot"]["tolerance"] == 1e-12

    monkeypatch.setattr(cli, "step_chain", undershooting)
    s = Scenario(name="fpe-run", params=params, output_dir=tmp_path / "bad")
    assert run_scenario(s) == 2
    records = read_report(tmp_path / "bad" / "report.ndjson")
    failing = [r["check_id"] for r in records if r.get("pass") is False]
    assert failing == ["preclip_undershoot"]
    assert [r["achieved"] for r in records if r.get("check_id") == "min_value"] == [0.0]


def test_fpe_run_zero_amplitude_drift_checks_the_closed_form(tmp_path):
    # a drift of amplitude 0 leaves the porous-medium equation, so the run
    # keeps its entropy and closed-form rows
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.2, "n_cells": 200,
                         "h": 5e-3, "lo": -4.0, "hi": 4.0,
                         "drift": "tanh_inward", "drift_amplitude": 0.0},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    ids = [r["check_id"] for r in read_report(tmp_path / "report.ndjson")
           if "check_id" in r]
    assert ids[-3:] == ["linf_growth_ratio", "entropy_audit_max",
                        "l1_error_vs_closed_form"]


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


def test_fpe_run_holds_one_copy_of_the_iterates(tmp_path):
    # 300 steps of 2000 cells: the chain's (300, 2000) array takes 4.8 MB.
    # The traced peak measured 1.15x that; one more full-size array over the
    # iterates, such as np.abs of them, takes it above 2x.
    s = Scenario(name="fpe-run",
                 params={"m": 2.0, "t0": 0.1, "T": 0.4, "n_cells": 2000,
                         "h": 1e-3},
                 output_dir=tmp_path)
    tracemalloc.start()
    try:
        assert run_scenario(s) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 300 * 2000 * 8


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


def test_regularity_scan_scenario(tmp_path):
    s = Scenario(name="regularity-scan", params={"m": 2.0, "p": 1.0, "n_grid": 401},
                 output_dir=tmp_path)
    assert run_scenario(s) == 0
    rows = (tmp_path / "profile.csv").read_text().splitlines()
    assert rows[0].startswith("s,seminorm")
    assert len(rows) > 10


def test_hypotheses_scenario(tmp_path):
    s = Scenario(name="hypotheses-check", params={"m": 2.0}, output_dir=tmp_path)
    assert run_scenario(s) == 0


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
    cfg = tmp_path / "scan.conf"
    cfg.write_text("scenario = regularity-scan\nm = 2.0\np = 1.0\nn_grid = 201\n")
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert main(["list-scenarios"]) == 0
    assert "barenblatt-verify" in capsys.readouterr().out


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
    assert main(["run", str(cfg), "--output-dir", str(out), "--seed", "3"]) == 0


def test_artifact_partial_on_crash(tmp_path):
    target = tmp_path / "data.csv"
    with pytest.raises(RuntimeError):
        with _Artifact(target) as fh:
            fh.write("partial content")
            raise RuntimeError("boom")
    assert not target.exists()
    assert (tmp_path / "data.csv.partial").exists()
