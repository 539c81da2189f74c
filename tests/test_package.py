import os
import subprocess
import sys
from pathlib import Path

import kleinverify


def test_all_names_bound():
    names = kleinverify.__all__
    assert [name for name in names if not hasattr(kleinverify, name)] == []
    assert len(set(names)) == len(names)


def test_cli_imports_no_heavy_stdlib():
    # -S keeps site-packages .pth files out: one may import these modules
    # itself at every start, whatever the library imports.
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("typing", "importlib.resources", "pathlib", "tempfile", "zipfile")
    code = f"import sys, kleinverify.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
