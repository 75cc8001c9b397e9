"""What ``lq check`` prints, recorded for a regression test of the front
end (tokenizer, parser and typechecker).

For every ``corpus/**/*.lq``, every ``tests/data/*.lq`` and every source
of ``test_parser.SYNTAX_ERROR_CASES`` (written to a file), ``records``
gives the standard output, the error stream and the exit code of
``lq check``.  Paths in the output are shown relative to the repository
root, and a syntax case's file as ``<syntax-N>``.
``test_frontend_golden.py`` compares it with ``data/frontend_golden.json``.

Regenerate the file (only when a change of behaviour is intended) with

    PYTHONPATH=src python tests/frontend_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from lqlang.cli import main

from test_parser import SYNTAX_ERROR_CASES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "frontend_golden.json"


def _check(path: Path, shown: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return {"stdout": out.getvalue().replace(str(path), shown),
            "stderr": err.getvalue().replace(str(path), shown),
            "exit": code}


def records() -> dict[str, dict]:
    out: dict[str, dict] = {}
    paths = (sorted((ROOT / "corpus").rglob("*.lq"))
             + sorted((ROOT / "tests" / "data").glob("*.lq")))
    for path in paths:
        key = str(path.relative_to(ROOT))
        out[key] = _check(path, key)
    with tempfile.TemporaryDirectory() as tmp:
        for i, (src, *_) in enumerate(SYNTAX_ERROR_CASES):
            key = f"<syntax-{i}>"
            path = Path(tmp) / f"syntax-{i}.lq"
            path.write_text(src, "utf-8", newline="")
            out[key] = _check(path, key)
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n",
                      "utf-8")
    print(f"wrote {GOLDEN}")
