"""The traced benchmark patches names in the package; they must all exist.

bench/layers.py swaps public names such as ``fpe_solver.ThreadPoolExecutor``
and ``particle_sim.w1_distance`` for traced wrappers.  Entering and leaving
its context here fails as soon as one of those names is renamed or removed.
The same names are the only imports a module may keep without reading them.
"""

import ast
import importlib
from pathlib import Path

from nemytskii_lab import cli, fpe_solver, particle_sim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_instrumentation_enters_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    originals = (fpe_solver.ThreadPoolExecutor, particle_sim.frozen_density,
                 particle_sim.w1_distance, cli.run_scenario)
    with layers.instrumented(spans.SpanRecorder()):
        assert particle_sim.frozen_density is not originals[1]
    assert (fpe_solver.ThreadPoolExecutor, particle_sim.frozen_density,
            particle_sim.w1_distance, cli.run_scenario) == originals


def _unread_imports(path: Path) -> set[str]:
    """Names a module imports at its top level but never reads.

    A name counts as read when it is loaded anywhere in the module or listed
    in its ``__all__`` (a re-export).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_every_unread_import_is_a_name_the_benchmark_patches(monkeypatch):
    # the only imports a module may keep unread are the shims bench/layers.py
    # patches on it; once the benchmark stops patching one, the shim must go
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    targets = layers._targets(spans.SpanRecorder())
    package = Path(fpe_solver.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        name = "nemytskii_lab" if path.stem == "__init__" else f"nemytskii_lab.{path.stem}"
        module = importlib.import_module(name)
        patched = {attr for owner, attr, _ in targets if owner is module}
        unread = _unread_imports(path)
        assert unread <= patched, (path.name, sorted(unread - patched))
