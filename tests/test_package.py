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
# stay uncompiled.  -S, as below, keeps site .pth files out.  {cert} stands
# for the README's example certificate, written to a file.  Only a command
# that parses polynomial text loads grammar.
ALL_MODULES = [
    "builtin", "certificates", "cli", "division", "grammar", "klein", "laurent",
    "presentations", "syntax", "verify", "words",
]
REPORT_MODULES = [m for m in ALL_MODULES if m != "grammar"]
CHI_MODULES = ["builtin", "cli", "presentations", "syntax", "words"]
COMMAND_MODULES = [
    ([], []),
    (["--help"], ["cli"]),
    (["divides", "x+1", "x^2-1"], ["cli", "grammar", "laurent", "syntax"]),
    (["member", "y - x^-1", "--r", "1", "--s", "-x^-1"],
     ["cli", "division", "grammar", "klein", "laurent", "syntax"]),
    # r and s default to the paper's, read from the forward certificates.
    (["member", "y^2*(1) + (-1)"],
     ["builtin", "certificates", "cli", "division", "grammar", "klein", "laurent",
      "presentations", "syntax", "words"]),
    (["normal-form", "y^-1 x y"], ["cli", "klein", "laurent", "syntax", "words"]),
    (["fox", "y^-1 x y x", "x"], ["cli", "presentations", "syntax", "words"]),
    (["chi"], CHI_MODULES),
    (["certificate", "--certificate", "{cert}"], sorted(CHI_MODULES + ["certificates"])),
    (["verify-paper"], REPORT_MODULES),
    (["verify-paper", "--format", "json"], REPORT_MODULES),
    (["stafford"], REPORT_MODULES),
    (["stafford", "--r", "x^3 - x - 1"], ALL_MODULES),
]
README_CERTIFICATE = {
    "target": "y^-2 x y^2 x^-1", "source": "P",
    "factors": [{"w": "y^-1", "rel": 0, "sign": 1}, {"w": "x", "rel": 0, "sign": -1}],
}


def _printed_json(code: str, *argv: str):
    """The JSON value that code prints, run under -S with argv."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_each_command_loads_only_its_modules(tmp_path):
    # ... and no command, nor the help, imports argparse.
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(README_CERTIFICATE), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, kleinverify\n"
        "if sys.argv[1:]:\n"
        "    from kleinverify.cli import run\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(sys.argv[1:]) == 0\n"
        "print(json.dumps([sorted(m.split('.')[1] for m in sys.modules"
        " if m.startswith('kleinverify.')), 'argparse' in sys.modules]))\n"
    )
    for argv, expected in COMMAND_MODULES:
        argv = [arg.replace("{cert}", str(cert)) for arg in argv]
        assert _printed_json(code, *argv) == [expected, False], argv


def test_ring_layer_imports_no_regex():
    # The polynomial grammar, and re with it, loads only when a parser runs.
    # json imports re, so it is imported after the check.
    code = (
        "import sys\n"
        "import kleinverify.laurent, kleinverify.klein, kleinverify.division\n"
        "found = [m for m in ('re', 'kleinverify.grammar') if m in sys.modules]\n"
        "import json\n"
        "print(json.dumps(found))\n"
    )
    assert _printed_json(code) == []


def test_free_group_layer_loads_no_ring_module():
    code = (
        "import json, sys\n"
        "import kleinverify.words, kleinverify.presentations\n"
        "import kleinverify.certificates, kleinverify.builtin\n"
        "print(json.dumps([m for m in ('laurent', 'klein', 'division')"
        " if 'kleinverify.' + m in sys.modules]))\n"
    )
    assert _printed_json(code) == []


def test_text_output_imports_no_json():
    code = (
        "import contextlib, io, sys\n"
        "from kleinverify.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['verify-paper']) == 0\n"
        "print('true' if 'json' in sys.modules else 'false')\n"
    )
    assert _printed_json(code) is False


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
