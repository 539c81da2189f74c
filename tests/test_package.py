import ast
import doctest
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kleinverify
import kleinverify.words

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_bound():
    names = kleinverify.__all__
    assert [name for name in names if not hasattr(kleinverify, name)] == []
    assert len(set(names)) == len(names)


def test_names_are_their_home_modules_objects():
    for name in kleinverify.__all__:
        home = importlib.import_module(f"kleinverify.{kleinverify._HOMES[name]}")
        value = getattr(kleinverify, name)
        assert value is (home if name == "builtin" else getattr(home, name)), name


def test_dir_lists_every_public_name():
    assert set(kleinverify.__all__) <= set(dir(kleinverify))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kleinverify.no_such_name  # noqa: B018


# The library modules each command loads (none for a bare import); the rest
# stay uncompiled.  -S, as below, keeps site .pth files out.
ALL_MODULES = [
    "builtin", "certificates", "cli", "division", "klein", "laurent", "presentations",
    "verify", "words",
]
COMMAND_MODULES = [
    ([], []),
    (["divides", "x+1", "x^2-1"], ["cli", "laurent"]),
    (["member", "y - x^-1", "--r", "1", "--s", "-x^-1"], ["cli", "division", "klein", "laurent"]),
    (["normal-form", "y^-1 x y"], ["cli", "klein", "laurent", "words"]),
    (["fox", "y^-1 x y x", "x"], ["cli", "laurent", "presentations", "words"]),
    (["verify-paper"], ALL_MODULES),
    (["stafford"], ALL_MODULES),
]


def test_each_command_loads_only_its_modules():
    code = (
        "import contextlib, io, json, sys, kleinverify\n"
        "if sys.argv[1:]:\n"
        "    from kleinverify.cli import run\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        run(sys.argv[1:])\n"
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules"
        " if m.startswith('kleinverify.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, expected in COMMAND_MODULES:
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, *argv],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == expected, argv


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
