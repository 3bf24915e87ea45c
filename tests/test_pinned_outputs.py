"""The bytes of small CLI runs, pinned.

Each config runs through ``cli.main``, and every file it writes must have
its pinned sha256; the report is hashed without its trailing wall_time
record.  A change to the chain, the particle step or a writer that moves
one bit of output fails here, including the steps of a drifted chain past
the first, which ``trajectory.bin`` holds in full.

The pins hold for numpy 2.4.6 and scipy 1.17.1.  Another numpy or LAPACK
may round differently: re-pin only after checking that the move comes from
the libraries and not from the program.
"""

import hashlib

import pytest

from nemytskii_lab.cli import main

_CHAIN = "m = 2.0\nt0 = 0.1\nT = 0.2\nn_cells = 200\nh = 5e-3\nlo = -4.0\nhi = 4.0\n"

CONFIGS = {
    "fpe-run": f"scenario = fpe-run\n{_CHAIN}",
    "fpe-run-drift-binary": f"scenario = fpe-run\n{_CHAIN}drift = tanh_inward\n"
                            "drift_amplitude = 0.25\ntrajectory_format = binary\n",
    # E = -0.25 tanh(x) with b = 0: the drift E b vanishes
    "fpe-run-b-zero": f"scenario = fpe-run\n{_CHAIN}drift = tanh_inward\n"
                      "b_constant = 0.0\n",
    "particle-run-dump": "scenario = particle-run\nm = 2.0\nt0 = 0.1\nT = 0.13\n"
                         "n_particles = 2000\ndt = 1e-3\nseed = 4\ndump_stride = 10\n",
    "compare": f"scenario = compare\n{_CHAIN}n_particles = 2000\ndt = 1e-3\nseed = 4\n",
    "coupling-perturbed": "scenario = coupling\nm = 2.0\nt0 = 0.1\nT = 0.13\n"
                          "n_particles = 1000\ndt = 1e-3\nperturbation = 1e-3\n"
                          "seed = 5\n",
    # the drift branch of the particle step, alone and in a same-noise pair
    "particle-run-drift": "scenario = particle-run\nm = 2.0\nt0 = 0.1\nT = 0.13\n"
                          "n_particles = 2000\ndt = 1e-3\nseed = 4\n"
                          "drift = tanh_inward\n",
    "coupling-drift-perturbed": "scenario = coupling\nm = 2.0\nt0 = 0.1\nT = 0.13\n"
                                "n_particles = 1000\ndt = 1e-3\nperturbation = 1e-3\n"
                                "seed = 5\ndrift = tanh_inward\n",
    "hypotheses-check": "scenario = hypotheses-check\nm = 2.0\ndrift = tanh_inward\n",
    "barenblatt-verify": "scenario = barenblatt-verify\nm = 2.0\n",
}

PINS = {
    "barenblatt-verify": {
        "report.ndjson":
            "35e9c418d7195a980a58fa1370d9f929b2ae2a84d4a99073a199cb656cb34272",
    },
    "compare": {
        "report.ndjson":
            "2eda7940f208926a69a697d959119fe9dff6bf11220e0362c0a0cf2b8204aac6",
        "trajectory.csv":
            "fb62d2e7a423fe273346099a726f994fe95ad7a87f35d9f706b6ab2a1b77f60a",
    },
    "coupling-drift-perturbed": {
        "coupling.ndjson":
            "e669707355b0135df851fbb2cf311ba709c49516cda3e264db29e7e73ed87979",
        "report.ndjson":
            "20ade9da33c1eeac6c937d5024470d4971545d4af94bd385d96643607745cb51",
    },
    "coupling-perturbed": {
        "coupling.ndjson":
            "a695269d7626ed9393479c2433459b071d4d63ce44d83b96832c4d8353bfea47",
        "report.ndjson":
            "8718cf5a457d46db38376537bc0a5bbbada4238635bd34baf934e476928fcb85",
    },
    "fpe-run": {
        "report.ndjson":
            "517c00a4ddaaf8eeeaa86483981b0ee24c5fede990c403bf979501a11517195b",
        "trajectory.csv":
            "fb62d2e7a423fe273346099a726f994fe95ad7a87f35d9f706b6ab2a1b77f60a",
    },
    "fpe-run-b-zero": {
        "report.ndjson":
            "b55d39914e7ff4063a69ffedfc0b34b5448b9b66a6eeb0f9727a230e0380314e",
        "trajectory.csv":
            "fb62d2e7a423fe273346099a726f994fe95ad7a87f35d9f706b6ab2a1b77f60a",
    },
    "fpe-run-drift-binary": {
        "report.ndjson":
            "ec6135ce216ce541f52cf9eb69698d2f9e9d970a672ff7f5c9e881fc43fa52ac",
        "trajectory.bin":
            "e246c5b009e2017ed1b20ecc725f7674ddde905bb377c75f53d21910be6eeefa",
    },
    "hypotheses-check": {
        "report.ndjson":
            "5bda9eadadaae1f154f2a4d57ec40bb1ed09841b86f0833308cdc720d1ab8a5a",
    },
    "particle-run-drift": {
        "particles.csv":
            "4b2034436752490612dae336f6dfbf87398799ef077df7ccdfd321495dc33792",
        "report.ndjson":
            "51af8795808229bb0d325346ce5180edb4c74e95d467e9434cf9fbd28745d05d",
    },
    "particle-run-dump": {
        "particles.csv":
            "edb33ccd871516c34586160d979fec061995293d457ba1165d7a3f00f33a56d5",
        "particles_dump.csv":
            "0eebb42db747286ddc531bbe8f549c7bca3b12ff4b8f89421892160f62de59ea",
        "report.ndjson":
            "2dee6caf16d4fe1393e3e03871d79e08a6aa626e721d837e148350d8f87aad94",
    },
}


def digest(path) -> str:
    data = path.read_bytes()
    if path.name == "report.ndjson":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if b'"wall_time"' not in line)
    return hashlib.sha256(data).hexdigest()


def run_outputs(tmp_path, name) -> dict:
    """{file name: digest} of everything config `name` writes."""
    cfg = tmp_path / f"{name}.conf"
    cfg.write_text(CONFIGS[name])
    out = tmp_path / name
    assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
    return {path.name: digest(path) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_output_bytes_are_pinned(tmp_path, name):
    assert run_outputs(tmp_path, name) == PINS[name]
