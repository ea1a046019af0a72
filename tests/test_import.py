"""``import catmigrate`` loads no module that only code generation,
introspection or annotations need: every CLI run pays for what it loads.
The child runs with ``-S``, so that no module ``site`` loads first can
hide one that catmigrate adds."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "urllib.parse")


def test_import_loads_no_code_generation_modules():
    script = (
        "import sys; b = set(sys.modules); import catmigrate; "
        "print(sorted(set(sys.modules) - b))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(ast.literal_eval(out))
    assert "catmigrate.migration" in added
    assert sorted(added.intersection(NOT_LOADED)) == []
