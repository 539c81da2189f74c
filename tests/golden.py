"""The golden CLI corpus: what kleinverify prints, and its exit status, for
a fixed list of command lines, kept in tests/golden/cli.json.

    python tests/golden.py --write   # regenerate the file from this checkout's src

Each record holds an argv, the input files it reads, and its stdout,
stderr and exit status.  tests/test_cli.py replays every record in
process through kleinverify.cli.run and compares all three, so a change
to any output shows as a failing test, and a change meant to alter
output shows as a diff of this file.  Regenerate it only for an output
that should change, and say why the new one is right.

A record's files are written into a fresh, empty working directory, and
its argv names them by relative path, so the records hold wherever the
tests run from.  A long argument or file is written as a list of
[piece, count] pairs, joined as "".join(piece * count ...).  An output
over 4 KB is kept as its length, its sha256 and its first lines, cut to
200 characters each.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.json"
LIMIT = 4096
HEAD_LINES = 3
HEAD_CHARS = 200


def expand(value) -> str:
    """An argument or file's text: a str as it is, [piece, count] pairs joined."""
    return value if isinstance(value, str) else "".join(piece * count for piece, count in value)


def summary(text: str):
    """text itself, or for one over LIMIT bytes its length, sha256 and first lines."""
    data = text.encode("utf-8")
    if len(data) <= LIMIT:
        return text
    return {
        "length": len(text),
        "sha256": hashlib.sha256(data).hexdigest(),
        "head": [line[:HEAD_CHARS] for line in text.splitlines()[:HEAD_LINES]],
    }


def replay(argv: list, files: dict) -> dict:
    """The status, stdout and stderr (each as summary() keeps it) of
    kleinverify.cli.run on argv, in a fresh directory holding files."""
    from kleinverify.cli import run

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(expand(text), encoding="utf-8")
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    status = run([expand(arg) for arg in argv])
                except SystemExit as exc:
                    status = exc.code
        finally:
            os.chdir(cwd)
    return {"status": status, "stdout": summary(out.getvalue()), "stderr": summary(err.getvalue())}


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


# Input files.  README_CERT is the README's certificate example.
README_CERT = json.dumps({
    "target": "y^-2 x y^2 x^-1", "source": "P",
    "factors": [{"w": "y^-1", "rel": 0, "sign": 1}, {"w": "x", "rel": 0, "sign": -1}],
})
P_JSON = json.dumps({"generators": ["x", "y"], "relators": ["y^-1 x y x"]})
Q_JSON = json.dumps({"generators": ["x", "y"],
                     "relators": ["y^-2 x y^2 x^-1", "x^-3 y^-1 x y x^2 y^-1 x^-2 y"]})
NESTED = [["[", 100000], ["]", 100000]]

# The values of s that member, divides and stafford run with: units and
# non-units, one-term and several-term.
S_VALUES = ("-x^-1", "x^2", "2*x^3", "-3*x^-1", "x^2 - 3*x + 1", "x - 1")
R = "x^3 - x - 1"


def _factor(rel=0, sign=1) -> str:
    """The certificate of P's relator over P, with rel and sign replaced."""
    return json.dumps({"target": "y^-1 x y x", "source": "P",
                       "factors": [{"w": "1", "rel": rel, "sign": sign}]})


def _laurent(rng: random.Random, terms: int) -> str:
    """A Laurent polynomial of terms terms, coefficients in [-9, 9]."""
    from kleinverify import RPoly

    half = terms if terms < 301 else 150
    exps = rng.sample(range(-half, half + 1), terms)
    return str(RPoly({e: rng.choice((-1, 1)) * rng.randint(1, 9) for e in exps}))


def _twisted(rng: random.Random, terms: int):
    """An element of S of terms terms over y-degrees -3..3."""
    from kleinverify import RPoly, SPoly

    cells = rng.sample([(m, e) for m in range(-3, 4) for e in range(-60, 61)], terms)
    rows: dict[int, dict[int, int]] = {}
    for m, e in cells:
        rows.setdefault(m, {})[e] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return SPoly({m: RPoly(row) for m, row in rows.items()})


def _ring_cases() -> list[list]:
    """member, divides and stafford for each s of S_VALUES on operands of
    8 and 40 terms, a true and a false answer each where one exists, and
    each command once on a 301-term operand."""
    from kleinverify import StaffordInstance, parse_rpoly, stafford_verdict

    rng = random.Random(23)
    cases = []
    r = parse_rpoly(R)
    for s_text in S_VALUES:
        s = parse_rpoly(s_text)
        degree_one = stafford_verdict(StaffordInstance(r, s), None).degree_one
        for terms in (8, 40):
            g = _laurent(rng, terms)
            cases.append(["divides", s_text, g])
            cases.append(["divides", s_text, str(s * parse_rpoly(g))])
            t = _twisted(rng, terms)
            cases.append(["member", str(t), "--r", R, "--s", s_text])
            cases.append(["member", str(degree_one * t), "--r", R, "--s", s_text])
            cases.append(["stafford", "--r", _laurent(rng, terms), "--s", s_text])
        cases.append(["stafford", "--s", s_text])
    a = _laurent(rng, 301)
    cases.append(["divides", a, str(parse_rpoly(a) * parse_rpoly(_laurent(rng, 8)))])
    cases.append(["member", str(_twisted(rng, 301)), "--r", R, "--s", "-x^-1"])
    cases.append(["stafford", "--r", a, "--s", "-x^-1"])
    return [argv + fmt for argv in cases for fmt in ([], ["--format", "json"])]


def cases() -> list[tuple[list, dict]]:
    """Every (argv, files) of the corpus, in its order."""
    out: list[tuple[list, dict]] = []

    def add(*argv, **files):
        out.append((list(argv), files))

    # The README's "Command line" section.
    add("verify-paper")
    add("verify-paper", "--format", "json")
    add("chi", "--presentation", "Q")
    add("normal-form", "y^-1 x y")
    add("fox", "x y", "y")
    add("divides", "x^3 - x - 1", "x^3 + x^2 - 1")
    add("member", "y^2*(1) + (-1)")
    add("member", "(1)", "--r", "x^3 - x - 1", "--s", "-x^-1")
    add("certificate", "--certificate", "cert.json", **{"cert.json": README_CERT})
    add("stafford", "--r", "x^3 - x - 1", "--s", "-x^-1")
    add("--help")

    # Each command in text and in JSON.
    for fmt in ([], ["--format", "json"]):
        add("chi", *fmt)
        add("chi", "--presentation", "P", *fmt)
        add("chi", "--presentation", "q.json", *fmt, **{"q.json": Q_JSON})
        add("normal-form", "y^-2 x y^2 x^-1", *fmt)
        add("normal-form", "y^-1 x y x^2 y^3", *fmt)
        add("fox", "y^-1 x y x", "x", *fmt)
        add("fox", "x^-3 y^-1 x y x^2 y^-1 x^-2 y", "y", *fmt)
        add("fox", "x y", "z", *fmt)
        add("member", "y - x^-1", "--r", "1", "--s", "-x^-1", *fmt)
        add("divides", "x+1", "x^2-1", *fmt)
        add("certificate", "--certificate", "c.json", *fmt, **{"c.json": README_CERT})
        add("certificate", "--certificate", "c.json", "--presentation", "p.json", *fmt,
            **{"c.json": README_CERT, "p.json": P_JSON})
        add("certificate", "--certificate", "c.json", *fmt,
            **{"c.json": README_CERT.replace('"target": "y^-2 x y^2 x^-1"', '"target": "x"')})
        add("stafford", *fmt)
        add("stafford", "--r", "1", *fmt)
        add("stafford", "--r", "x^200 - x - 1", *fmt)
        add("verify-paper", *fmt)

    for argv in _ring_cases():
        add(*argv)

    # Help, from anywhere on the line.
    add("-h")
    for command in ("verify-paper", "chi", "normal-form", "fox", "member", "divides",
                    "certificate", "stafford"):
        add(command, "--help")
    add("divides", "x", "--help", "1")
    add("member", "(1)", "--s", "1", "-h")

    # Usage errors.
    for argv in (
        [], ["no-such-command"], ["--format", "json"],
        ["divides", "x", "x", "--no-such-option", "1"], ["chi", "--r", "1"],
        ["member", "(1)", "--s"], ["member", "(1)", "--s", "--r", "1"],
        ["divides", "x"], ["divides", "x", "x", "y"], ["normal-form"], ["fox", "x", "x", "y"],
        ["verify-paper", "-x"], ["verify-paper", "--format", "xml"], ["verify-paper", "--format="],
        ["stafford", "--format", "xml"], ["certificate"], ["certificate", "--presentation", "P"],
        ["divides", "x", "x", "--form", "json"], ["certificate", "--cert", "c.json"],
        ["chi", "--command", "x"], ["divides", "x", "x", "--command=divides"],
    ):
        add(*argv)

    # Options after "=", leading minus signs, a repeated option.
    add("member", "(1)", "--s=-x^-1", "--r=x^3 - x - 1")
    add("stafford", "--s=-x^-1", "--format=json")
    add("chi", "--presentation=no=such.json")
    add("chi", "--presentation", "Q", "--presentation", "P")
    add("divides", "-x", "x^2")
    add("member", "-(1)", "--s", "-x^-1", "--r", "-x^3 + x + 1")
    add("stafford", "--s", "-1", "--format", "json")
    add("certificate", "--certificate", "-cert.json", "--presentation", "-p.json",
        **{"-cert.json": README_CERT, "-p.json": P_JSON})

    # Parse errors.
    for argv in (
        ["divides", "x^3 -", "x"], ["normal-form", "x^"], ["member", "y^2*(1"],
        ["divides", "x^1 0 - 1", "x^10 - 1"], ["divides", "1 0", "x"], ["member", "y*(x^1 0)"],
        ["fox", "x y", ""], ["fox", "x y", "x^2"], ["fox", "x y", "x y"], ["fox", "x y", "1"],
        ["fox", "x y", "x^-1"], ["divides", "2*", "x"], ["divides", "2*+x", "x"],
        ["member", "y^2 - - 1"], ["member", "y\n*(x)"], ["divides", "٣x + ３", "x"],
        ["divides", "x", "x^٣"], ["member", "y^٣"], ["member", "y*(３)"], ["normal-form", "x^٣"],
        ["divides", "x - - 1", "1"], ["member", "y ^2"], ["member", "(x)(1)"],
        ["normal-form", "x y z"],
    ):
        add(*argv)
    for text in ("x^3 - x - 1", "-x^-1", "2*x^2 + 5", "2x - 3", "x ^ -1 + 2 * x", "x + ３"):
        add("divides", text, "1", "--format", "json")
    for text in ("y^2 - 1", "y - x^-1", "(x^-3 - x^-4) + y^-1*(-1)", "y^-1 + y*(x) + 2 + y^-1*(x)"):
        add("member", text, "--format", "json")

    # Bad input files.
    add("chi", "--presentation", "no_such_file.json")
    add("certificate", "--certificate", "no_such_file.json")
    add("chi", "--presentation", "p.json", **{"p.json": json.dumps(["x", "y"])})
    add("chi", "--presentation", "p.json",
        **{"p.json": json.dumps({"generators": ["x", "y y", "", "3"], "relators": ["x"]})})
    add("chi", "--presentation", "p.json", **{"p.json": "{not json"})
    add("certificate", "--certificate", "c.json",
        **{"c.json": json.dumps({"target": "y^-1 x y x", "factors": [{"w": "1", "rel": 0, "sign": 1}]})})
    add("certificate", "--certificate", "c.json", "--presentation", "P", "--format", "json",
        **{"c.json": json.dumps({"target": "y^-1 x y x", "factors": [{"w": "1", "rel": 0, "sign": 1}]})})
    add("certificate", "--certificate", "c.json", "--presentation", "P", **{"c.json": _factor(rel=5)})
    for data in (_factor(rel=0.9), _factor(sign=1.5), _factor(rel="0"), _factor(rel=True),
                 _factor(rel=[0]), _factor(rel=-1),
                 json.dumps({"target": "x", "factors": [1]}), json.dumps({"target": 5, "factors": []}),
                 json.dumps({"target": "1", "factors": [], "source": 0}),
                 json.dumps({"target": "1", "factors": [{"rel": 0, "sign": 1}]}),
                 json.dumps({"target": "1", "factors": [{"w": "1", "rel": 0}]}),
                 json.dumps(5), json.dumps({"target": "1", "factors": 5})):
        add("certificate", "--certificate", "c.json", **{"c.json": data})
    for data in ({"generators": ["x", "y"], "relators": [7]}, {"generators": ["x", "y"], "relators": 7},
                 {"generators": 5, "relators": []}):
        add("chi", "--presentation", "p.json", **{"p.json": json.dumps(data)})
    add("certificate", "--certificate", "c.json", **{"c.json": NESTED})
    add("chi", "--presentation", "p.json", **{"p.json": NESTED})

    # Hostile input that answers within a second.
    add("divides", "x + 2", "x^1000000000 + 1")
    add("divides", [["x^", 1], ["1", 5000]], "x")
    add("member", [["y^", 1], ["1", 5000]])
    add("normal-form", [["y x^", 1], ["1", 4301]])
    add("fox", [["x^-", 1], ["7", 5000]], "x")
    add("normal-form", [["x", 100000], ["-", 1]])
    add("member", [["y*(x) + ", 131072], ["q", 1]])
    add("normal-form", "x^9999999999999999999999999999999999999999 y^-3")
    add("fox", "x^3000 y^-2", "x")
    # A term of over sys.maxsize letters, and a 128 KB word with no term.
    add("fox", "y^99999999999999999999 x", "x")
    add("fox", [["x y ", 31999], ["x y", 1]], "z")
    # fox refuses a derivative that would print over 10^7 characters.
    add("fox", "x^9999999999999999999999999999999999999999", "x")
    add("fox", "x^2000000", "x")
    add("fox", [["x y ", 7999], ["x y", 1]], "x")
    return out


def write() -> int:
    records = []
    for argv, files in cases():
        record = {"argv": argv}
        if files:
            record["files"] = files
        record.update(replay(argv, files))
        records.append(record)
    CORPUS.parent.mkdir(exist_ok=True)
    text = "[\n" + ",\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n]\n"
    CORPUS.write_text(text, encoding="utf-8")
    print(f"{len(records)} records written to {CORPUS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    # The checkout's own src, not an installed copy, writes the file.
    sys.path.insert(0, str(CORPUS.parents[2] / "src"))
    sys.exit(write())
