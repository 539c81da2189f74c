import ast
import doctest
import os
import subprocess
import sys
from pathlib import Path

import kleinverify
import kleinverify.words

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_bound():
    names = kleinverify.__all__
    assert [name for name in names if not hasattr(kleinverify, name)] == []
    assert len(set(names)) == len(names)


def test_cli_imports_no_heavy_stdlib():
    # -S keeps site-packages .pth files out: one may import these modules
    # itself at every start, whatever the library imports.
    heavy = (
        "typing", "importlib.resources", "pathlib", "tempfile", "zipfile",
        "dataclasses", "inspect", "ast", "dis",
    )
    code = f"import sys, kleinverify.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_library_imports_are_used():
    # __init__.py imports names to re-export them.
    modules = sorted((SRC / "kleinverify").glob("*.py"))
    assert len(modules) > 1
    unused = [u for m in modules if m.name != "__init__.py" for u in _unused_imports(m)]
    assert unused == []


def test_words_doctests_pass():
    result = doctest.testmod(kleinverify.words)
    assert result.attempted > 0 and result.failed == 0
