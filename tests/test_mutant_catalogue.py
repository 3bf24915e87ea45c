"""The mutant catalogue (tools/mutants.py) must keep matching the code.

Each mutant replaces an exact text that has to occur once in its file; an
edit of a mutated line fails here, and the catalogue entry moves with it.
The mutants themselves run outside tier-1: python3 tools/mutants.py.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_old_text_occurs_exactly_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {m.name: (ROOT / m.path).read_text().count(m.old) for m in mutants.MUTANTS}
    assert len(counts) == len(mutants.MUTANTS) == 12
    assert counts == dict.fromkeys(counts, 1)
