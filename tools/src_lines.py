"""Lines of src/ per module, split into code, docstrings/comments and blank.

Run from the repository root:

    python3 tools/src_lines.py          # the modules under src/
    python3 tools/src_lines.py a.py ... # the named files

A line is blank when it holds only whitespace, inside a string or not.  A
line that is not blank is a docstring/comment line when every token on it is
a comment or part of a string that stands alone as a statement (a
docstring).  Every other line is code, a code line with a trailing comment
included.  The kinds are read from the tokenizer, and each line has exactly
one, so the three add up to the file's line count.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "doc", "blank")
# tokens that stand on a line without making it code
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def count_lines(source: str) -> dict[str, int]:
    """The number of code, docstring/comment and blank lines of source."""
    lines = source.splitlines()
    n_lines = len(lines)
    kind = [None] * n_lines
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    prev = tokenize.NEWLINE   # the last significant token's type
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            if tok.type != tokenize.NL:
                prev = tok.type
            continue
        rows = range(tok.start[0] - 1, min(tok.end[0], n_lines))
        docstring = (tok.type == tokenize.STRING and prev in LAYOUT
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT))
        if tok.type == tokenize.COMMENT or docstring:
            for r in rows:
                if kind[r] is None:
                    kind[r] = "doc"
        else:
            for r in rows:
                kind[r] = "code"
        if tok.type != tokenize.COMMENT:
            prev = tok.type
    # a line no token starts or covers, such as a lone backslash, is code
    kind = ["blank" if not line.strip() else k or "code" for line, k in zip(lines, kind)]
    return {k: kind.count(k) for k in KINDS}


def main(argv: list[str]) -> int:
    names = argv or sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py"))
    base = Path.cwd() if argv else ROOT
    rows = [(name, count_lines((base / name).read_text())) for name in names]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}} {'code':>6} {'doc':>6} {'blank':>6} {'total':>6}")
    for name, c in rows:
        print(f"{name:<{width}} {c['code']:>6} {c['doc']:>6} {c['blank']:>6} "
              f"{sum(c.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
