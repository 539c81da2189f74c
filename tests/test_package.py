import ast
import doctest
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import kleinverify

# The directory kleinverify was imported from: src in a checkout, or
# site-packages for an installed package.  The subprocesses below import
# it from there, so they test the same copy as this process.
SRC = Path(kleinverify.__file__).resolve().parents[1]
# The benchmark harness, beside the tests in the repository.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_benchmark_names_reach_the_package_objects():
    # perfbench's tracer wraps functions by (module, attribute), under every
    # module binding of the same object, and its verdicts call
    # kleinverify.<name>.  A function that moved into a lazy module is
    # still read from the module it left, through that module's
    # __getattr__, so each pair must reach the object the package exports
    # under the name, or the tracer would wrap a stale copy.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets(kleinverify, types.SimpleNamespace(row_identities=None))
    pairs = {(owner, attr) for owner, attr, *_ in targets if isinstance(owner, types.ModuleType)}
    names = {(owner.__name__.split(".")[-1], attr) for owner, attr in pairs}
    moved = {("division", "divide"), ("division", "in_V"), ("division", "monic_witness"),
             ("presentations", "fox_derivative"), ("presentations", "boundary_matrices"),
             ("klein", "eval_combo")}
    assert moved <= names
    for owner, attr in pairs:
        want = getattr(kleinverify, attr) if attr in kleinverify.__all__ else vars(owner)[attr]
        assert getattr(owner, attr) is want, (owner.__name__, attr)
    tree = ast.parse((PERFBENCH / "verdicts.py").read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kv"}
    assert {"divide", "in_V", "quotient", "builtin"} <= used
    for name in used:
        home = importlib.import_module(f"kleinverify.{kleinverify._HOMES[name]}")
        assert getattr(kleinverify, name) is (home if name == "builtin" else getattr(home, name)), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kleinverify.no_such_name  # noqa: B018
    # and from each module that resolves the names moved out of it
    for module in (kleinverify.division, kleinverify.presentations, kleinverify.klein):
        with pytest.raises(AttributeError, match=f"'{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name  # noqa: B018


# The library modules each command loads (none for a bare import); the rest
# stay uncompiled.  -S, as below, keeps site .pth files out.  {cert} stands
# for the README's example certificate, written to a file.  Only a command
# that parses polynomial text loads grammar.  Every command but
# verify-paper loads cli_commands, and so do --help and a usage error
# (exit 2); only a dense operand loads kronecker.  The code no verdict
# of the report runs loads at its first use: walks (divide, in_V) for
# member, longdiv for a quotient that reaches long division, and fox
# (the Fox calculus) for fox; so verify-paper, stafford, chi and
# certificate load none of the three.
ALL_MODULES = [
    "builtin", "certificates", "cli", "cli_commands", "division", "fox", "grammar", "klein",
    "kronecker", "laurent", "longdiv", "presentations", "syntax", "verify", "walks", "words",
]
REPORT_MODULES = [m for m in ALL_MODULES if m not in (
    "cli_commands", "fox", "grammar", "kronecker", "longdiv", "walks")]
STAFFORD_MODULES = sorted(REPORT_MODULES + ["cli_commands"])
CHI_MODULES = ["builtin", "cli", "cli_commands", "presentations", "syntax", "words"]
# Two 24-term operands, g(x)(1 + x^18) and g(x)(1 - x^36) with
# g = 1 + x + ... + x^11.  Both are dense, and their quotient 1 - x^18
# spans 19 exponents, so divides takes the Kronecker quotient.
DENSE_A = " + ".join(f"x^{e}" for e in (*range(12), *range(18, 30)))
DENSE_B = " + ".join(f"x^{e}" for e in range(12)) + "".join(f" - x^{e}" for e in range(36, 48))
COMMAND_MODULES = [
    ([], []),
    (["--help"], ["cli", "cli_commands"]),
    (["divides", "x"], ["cli", "cli_commands"]),
    # x^2 - 1 spans more than x + 1, and 2 = (x + 1)(1) divides its value
    # 0 at 1, so neither shortcut answers and long division runs.
    (["divides", "x+1", "x^2-1"], ["cli", "cli_commands", "grammar", "laurent", "longdiv", "syntax"]),
    (["divides", DENSE_A, DENSE_B], ["cli", "cli_commands", "grammar", "kronecker", "laurent", "syntax"]),
    (["member", "y - x^-1", "--r", "1", "--s", "-x^-1"],
     ["cli", "cli_commands", "division", "grammar", "klein", "laurent", "syntax", "walks"]),
    # r and s default to the paper's, read from the forward certificates.
    (["member", "y^2*(1) + (-1)"],
     ["builtin", "certificates", "cli", "cli_commands", "division", "grammar", "klein", "laurent",
      "presentations", "syntax", "walks", "words"]),
    (["normal-form", "y^-1 x y"], ["cli", "cli_commands", "klein", "laurent", "syntax", "words"]),
    (["fox", "y^-1 x y x", "x"], ["cli", "cli_commands", "fox", "syntax", "words"]),
    (["chi"], CHI_MODULES),
    (["certificate", "--certificate", "{cert}"], sorted(CHI_MODULES + ["certificates"])),
    (["verify-paper"], REPORT_MODULES),
    (["verify-paper", "--format", "json"], REPORT_MODULES),
    (["stafford"], STAFFORD_MODULES),
    (["stafford", "--r", "x^3 - x - 1"], sorted(STAFFORD_MODULES + ["grammar"])),
]
README_CERTIFICATE = {
    "target": "y^-2 x y^2 x^-1", "source": "P",
    "factors": [{"w": "y^-1", "rel": 0, "sign": 1}, {"w": "x", "rel": 0, "sign": -1}],
}


def _python(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """This interpreter run with argv and kleinverify importable from SRC,
    its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, **kwargs)


def _printed_json(code: str, *argv: str):
    """The JSON value that code prints, run under -S with argv."""
    return json.loads(_python("-S", "-c", code, *argv, check=True).stdout)


def test_each_command_loads_only_its_modules(tmp_path):
    # ... and no command, nor the help, imports argparse.
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(README_CERTIFICATE), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, kleinverify\n"
        "if sys.argv[1:]:\n"
        "    from kleinverify.cli import run\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "            assert run(sys.argv[1:]) == 0\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 2\n"
        "print(json.dumps([sorted(m.split('.')[1] for m in sys.modules"
        " if m.startswith('kleinverify.')), 'argparse' in sys.modules]))\n"
    )
    for argv, expected in COMMAND_MODULES:
        argv = [arg.replace("{cert}", str(cert)) for arg in argv]
        assert _printed_json(code, *argv) == [expected, False], argv


def test_report_commands_load_no_heapq():
    # Condition (ii) with a unit s divides operands of equal span, which
    # one comparison settles, so verify-paper and the default stafford
    # never reach long division or its heap.  The dense divides above
    # still packs its operands, and the no-carry bound accepts its
    # quotient with no long division either.
    code = (
        "import contextlib, io, sys\n"
        "from kleinverify.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(sys.argv[1:]) == 0\n"
        "seen = ['heapq' in sys.modules, 'kleinverify.kronecker' in sys.modules]\n"
        "import json\n"
        "print(json.dumps(seen))\n"
    )
    for argv in (["verify-paper"], ["verify-paper", "--format", "json"], ["stafford"]):
        assert _printed_json(code, *argv) == [False, False], argv
    assert _printed_json(code, "divides", DENSE_A, DENSE_B) == [False, True]


def test_hostile_divides_answers_fast():
    # x + 2 is 3 at x = 1 and x^1000000000 + 1 is 2, so evaluation at 1
    # answers false with no division; long division took 10^9 steps.  A
    # subprocess, so that a regression fails at the timeout, not hangs.
    start = time.perf_counter()
    done = _python("-m", "kleinverify.cli", "divides", "x + 2", "x^1000000000 + 1", timeout=6)
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout, done.stderr) == (1, "false\n", "")


def test_hostile_fox_exits_2_fast():
    # The derivative's size, the generator's total power times the word's
    # characters, is known before any term is built.  Each word here is far
    # over the limit: the 40-digit power ran until killed, the 16000-letter
    # word printed 128 MB, and the 4300-digit one, under a bound of the
    # letters alone, would print 333332 terms of 4.3 KB each.  A
    # subprocess, so that a regression fails at the timeout, not hangs.
    code = (
        "import contextlib, io, json, sys, time\n"
        "from kleinverify.cli import run\n"
        "seen = []\n"
        "for word in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        status = run(['fox', word, 'x'])\n"
        "    seen.append([status, out.getvalue(), err.getvalue(), time.perf_counter() - start])\n"
        "print(json.dumps(seen))\n"
    )
    words = ["x^" + "9" * 40, "x^2000000", " ".join(["x y"] * 8000), f"y^{'9' * 4300} x^333332"]
    seen = json.loads(_python("-c", code, json.dumps(words), timeout=30, check=True).stdout)
    for word, (status, out, err, elapsed) in zip(words, seen):
        assert (status, out) == (2, ""), word[:20]
        assert err == "error: the derivative would print over 10^7 characters (its terms times (8 + the word's characters))\n"
        assert elapsed < 1.0, (word[:20], elapsed)


def test_no_command_imports_cli_a_second_time(tmp_path):
    # python -m kleinverify.cli runs cli as __main__, so an import of
    # kleinverify.cli would compile the module again.  Each command runs
    # here as -m runs it, and the name must never enter sys.modules.
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(README_CERTIFICATE), encoding="utf-8")
    commands = [
        ["verify-paper"], ["chi"], ["normal-form", "y^-1 x y"], ["fox", "y^-1 x y x", "x"],
        ["member", "y^2*(1) + (-1)"], ["divides", DENSE_A, DENSE_B],
        ["certificate", "--certificate", str(cert)], ["stafford", "--format", "json"],
        ["--help"], ["divides", "x"],
    ]
    code = (
        "import contextlib, io, json, runpy, sys\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    sys.argv = ['kleinverify', *argv]\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "        try:\n"
        "            runpy.run_module('kleinverify.cli', run_name='__main__')\n"
        "        except SystemExit as exc:\n"
        "            seen.append([argv[0], exc.code, 'kleinverify.cli' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    expected = [[argv[0], 2 if argv == ["divides", "x"] else 0, False] for argv in commands]
    assert _printed_json(code, json.dumps(commands)) == expected


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
    assert _python("-S", "-c", code, check=True).stdout.strip() == "[]"


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


def test_every_module_doctests_pass():
    # Every module of the package kleinverify was imported from, so an
    # installed copy's doctests run too.
    names = ["kleinverify"] + [f"kleinverify.{m.name}" for m in pkgutil.iter_modules(kleinverify.__path__)]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert len(results) > 10 and sum(r.attempted for r in results.values()) > 0
    assert [name for name, r in results.items() if r.failed] == []
