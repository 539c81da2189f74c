"""Mutation gate: the tier-1 suite must fail on each of a table of small,
deliberate faults in the library.

    python tests/mutants.py

Each entry of MUTANTS is (name, file, exact old text, new text).  For
each, src, tests, perfbench (whose tracer targets a tier-1 test reads;
its run records stay behind), README.md and pyproject.toml are copied to
a fresh temporary directory, the one edit is applied there, and
"python -X dev -W error -m pytest -q -x" runs in that copy with
PYTHONPATH at its src.  It runs the test file named after the mutated
module first (tests/test_words.py for src/kleinverify/words.py, and
tests/test_cli.py for src/kleinverify/cli_commands.py), so a mutant that
the module's own tests kill stops there, and then every other file.
The checkout itself is never written.

First the unedited copy runs the whole suite, which must pass and must
import kleinverify from the copy; otherwise no verdict on a mutant
means anything.  Its wall time sets the bound on each mutant run:
BOUND_FACTOR times as long.  A mutant is killed when the suite fails or
runs past that bound, and survives when it passes.  A surviving mutant
runs the same passing suite, so the bound leaves it a 100% margin.

Before each mutant the gate checks a deadline: the mutant starts only
if the time spent so far plus one run at the bound still fits the CI
job that runs the gate (the timeout-minutes of the mutants job in
WORKFLOW).  Kills take a few seconds where the bound allows twice the
suite, so the time left is spent on the runs themselves, not reserved
for every run at the bound up front.  When a mutant cannot start, no
later one runs either, and the gate names each mutant that did not run.

The gate exits 0 only when every mutant in the table ran and was
killed.  It exits 1 when an anchor text does not occur exactly once in
its file, when the unedited copy fails, when a mutant could not start
before the deadline, or when any mutant survives.  Stdlib only.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PYTEST = ("-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider")
# Each mutant run may take this many times the unedited suite's wall time.
BOUND_FACTOR = 2

MUTANTS = (
    (
        "a cancelled coefficient kept in a one-term division step",
        "src/kleinverify/walks.py",
        "                        del row[e]\n        if row or k == d:",
        "                        row[e] = v\n        if row or k == d:",
    ),
    (
        "the division walk's two-step form adding sigma^k(s)*f_(k+1), not subtracting it",
        "src/kleinverify/walks.py",
        "v = rget(e, 0) + minus_c * v",
        "v = rget(e, 0) - minus_c * v",
    ),
    (
        "the division walk's two-step form shifting f_(k+1) by sigma^(k+1)(s), not sigma^k(s)",
        "src/kleinverify/walks.py",
        "                        e += x\n",
        "                        e -= x\n",
    ),
    (
        "sigma's parity swapped in _mul_rows_into's one-term rows",
        "src/kleinverify/klein.py",
        "x = -e if p % 2 else e",
        "x = e if p % 2 else -e",
    ),
    (
        "the sign of the one-term division step dropped",
        "src/kleinverify/walks.py",
        "minus_c, unit = -c, c * c == 1",
        "minus_c, unit = c, c * c == 1",
    ),
    (
        "the monic element's factor sigma(s) in place of -sigma(s)",
        "src/kleinverify/division.py",
        "minus_s_bar = -inst.s.sigma()",
        "minus_s_bar = inst.s.sigma()",
    ),
    (
        "the degree-one quotient r*r in place of r*sigma(r)",
        "src/kleinverify/division.py",
        "SPoly._of_rows({0: (r * r_bar)._coeffs})",
        "SPoly._of_rows({0: (r * r)._coeffs})",
    ),
    (
        "the monic quotient r in place of sigma(r)",
        "src/kleinverify/division.py",
        "SPoly._of_rows({0: r_bar._coeffs})",
        "SPoly._of_rows({0: r._coeffs})",
    ),
    (
        "a splitting product's factors swapped: (y + s)*alpha for alpha*(y + s)",
        "src/kleinverify/verify.py",
        "== r * (alpha * ys)",
        "== r * (ys * alpha)",
    ),
    (
        "a splitting product's factors swapped: (y + s)*beta for beta*(y + s)",
        "src/kleinverify/verify.py",
        "(_ONE - beta * ys)",
        "(_ONE - ys * beta)",
    ),
    (
        "a splitting product's factors swapped: r*alpha for alpha*r",
        "src/kleinverify/verify.py",
        "(_ONE - alpha * r)",
        "(_ONE - r * alpha)",
    ),
    (
        "a splitting product's factors swapped: r*beta for beta*r",
        "src/kleinverify/verify.py",
        "(beta * r)",
        "(r * beta)",
    ),
    (
        "a splitting product's factors swapped: (1 - beta*(y + s))*(y + s)",
        "src/kleinverify/verify.py",
        "ys * (_ONE - beta * ys) ==",
        "(_ONE - beta * ys) * ys ==",
    ),
    (
        "a splitting product's factors swapped: (alpha*(y + s))*r",
        "src/kleinverify/verify.py",
        "== r * (alpha * ys)",
        "== (alpha * ys) * r",
    ),
    (
        "a splitting product's factors swapped: (1 - alpha*r)*r",
        "src/kleinverify/verify.py",
        "r * (_ONE - alpha * r) ==",
        "(_ONE - alpha * r) * r ==",
    ),
    (
        "a splitting product's factors swapped: (beta*r)*(y + s)",
        "src/kleinverify/verify.py",
        "== ys * (beta * r)",
        "== (beta * r) * ys",
    ),
    (
        "boundary_data's x^-1 term at x-exponent u + t, not u - t",
        "src/kleinverify/klein.py",
        "xrows, m, u + t * i",
        "xrows, m, u - t * i",
    ),
    (
        "boundary_data's y^-1 term in row -(m+1), not -(m-1)",
        "src/kleinverify/klein.py",
        "yrows, m + i, u",
        "yrows, m - i, u",
    ),
    (
        "boundary_data adding +1, not -1, for a letter x^-1 or y^-1 in a row it has met",
        "src/kleinverify/klein.py",
        "row[e] = row.get(e, 0) + k",
        "row[e] = row.get(e, 0) + abs(k)",
    ),
    (
        "_reduced forgetting the top generator after a full cancel",
        "src/kleinverify/words.py",
        "top = stack[-1][0] if stack else None",
        "top = None",
    ),
    (
        "Word(...) storing a list-shaped letter as it is",
        "src/kleinverify/words.py",
        """        for name, exp in letters:
            # isinstance, not type(): True and False pass, as in RPoly.
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an int")
            if not (isinstance(name, str) and _IS_NAME(name)):
                raise ValueError(f"generator name {name!r} is not a letter followed by letters, digits or _")
            if exp:
                checked.append((name, exp))""",
        """        for letter in letters:
            name, exp = letter
            # isinstance, not type(): True and False pass, as in RPoly.
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an int")
            if not (isinstance(name, str) and _IS_NAME(name)):
                raise ValueError(f"generator name {name!r} is not a letter followed by letters, digits or _")
            if exp:
                checked.append(letter)""",
    ),
    (
        "Word(...) keeping a zero-exponent letter",
        "src/kleinverify/words.py",
        "            if exp:\n                checked.append((name, exp))",
        "            checked.append((name, exp))",
    ),
    (
        "parse_word keeping a zero-exponent letter",
        "src/kleinverify/words.py",
        "        if k:\n            letters.append((name, k))",
        "        letters.append((name, k))",
    ),
    (
        "Word ** n reading the second bit of n as its odd bit",
        "src/kleinverify/words.py",
        "            if n & 1:",
        "            if n & 2:",
    ),
    (
        "Word ** n multiplying the base by the word, not squaring it",
        "src/kleinverify/words.py",
        "base = base * base",
        "base = base * self",
    ),
    (
        "a Fox term's prefix taking the run's own letter",
        "src/kleinverify/fox.py",
        "prefix = w.letters[:at]",
        "prefix = w.letters[:at + 1]",
    ),
    (
        "FreeCombo's order key taking len() of the word",
        "src/kleinverify/fox.py",
        "return sum(abs(k) for _, k in w.letters), str(w)",
        "return len(w), str(w)",
    ),
    (
        "divide's one-term step adding into f's row below in place",
        "src/kleinverify/walks.py",
        """                row = {}
                for e, v in mid.items():
                    row[x + e] = minus_c * v
            if below:
""",
        """                row = below if below else {}
                rget = row.get
                for e, v in mid.items():
                    e += x
                    v = rget(e, 0) + minus_c * v
                    if v:
                        row[e] = v
                    else:
                        del row[e]
            if below and row is not below:
""",
    ),
    (
        "klein._spoly without its zero scan",
        "src/kleinverify/klein.py",
        "if 0 in row.values():",
        "if False:",
    ),
    (
        "a row only the subtrahend of SPoly.__sub__ has kept with its sign",
        "src/kleinverify/klein.py",
        "out[m] = b if sign == 1 else {e: -c for e, c in b.items()}",
        "out[m] = b",
    ),
    (
        "laurent._sum keeping a coefficient that cancels",
        "src/kleinverify/laurent.py",
        """        v = get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            del out[e]""",
        """        v = get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out[e] = v""",
    ),
    (
        "long division stopping one exponent above the quotient's lowest",
        "src/kleinverify/longdiv.py",
        "stop = dmax + lo",
        "stop = dmax + lo + 1",
    ),
    (
        "Kronecker quotient digits read from exponent 0, not from lo",
        "src/kleinverify/kronecker.py",
        "quot = _nonzero(dict(enumerate(digits, lo)))",
        "quot = _nonzero(dict(enumerate(digits)))",
    ),
    (
        "_mul_into returning the Kronecker digits that come out 0",
        "src/kleinverify/laurent.py",
        "            return _nonzero(out)",
        "            return out",
    ),
    (
        "_mul_rows_into keeping a cancelled coefficient of a one-term row's product",
        "src/kleinverify/klein.py",
        "                    else:\n                        del row[e2]",
        "                    else:\n                        row[e2] = v",
    ),
    (
        "_mul_rows_into keeping a row that a one-term row's product empties",
        "src/kleinverify/klein.py",
        "                if not row:\n                    del out[key]",
        "                if False:\n                    del out[key]",
    ),
    (
        "_mul_into's dense branch never taken: no product reaches the Kronecker module",
        "src/kleinverify/laurent.py",
        "if _dense(a_lo, a_hi, len(a)) and _dense(b_lo, b_hi, len(b)):",
        "if False:",
    ),
    (
        "quotient without its evaluation screen at x = 1",
        "src/kleinverify/laurent.py",
        "if den_at_1 and sum(num.values()) % den_at_1:",
        "if False:",
    ),
    (
        "the equal-span quotient returned as c*x^lo without comparing the rows",
        "src/kleinverify/laurent.py",
        "if span or leftover or num != {e + lo: c * v for e, v in den.items()}:",
        "if span or leftover:",
    ),
    (
        "the no-carry bound on a Kronecker candidate without its min(terms) factor",
        "src/kleinverify/kronecker.py",
        "den_max * _max_abs(quot) * min(len(den), len(quot)) < 1 << (8 * width - 1)",
        "den_max * _max_abs(quot) < 1 << (8 * width - 1)",
    ),
    (
        "the one-term loop of _mul_into using +e for flip -1 (a one-term)",
        "src/kleinverify/laurent.py",
        "            e1 *= flip\n            for e, c in b.items():\n                out[e1 + e] = c1 * c",
        "            for e, c in b.items():\n                out[e1 + e] = c1 * c",
    ),
    (
        "the one-term loop of _mul_into using +e for flip -1 (b one-term)",
        "src/kleinverify/laurent.py",
        "out[flip * e + e2] = c * c2",
        "out[e + e2] = c * c2",
    ),
    (
        "RPoly.__sub__ adding",
        "src/kleinverify/laurent.py",
        "return RPoly._of_nonzero(_sum(self._coeffs, other._coeffs, -1))",
        "return RPoly._of_nonzero(_sum(self._coeffs, other._coeffs, 1))",
    ),
    (
        "y_plus_s keeping a zero row for s = 0",
        "src/kleinverify/division.py",
        "SPoly._of_rows({1: _ONE, 0: s._coeffs} if s._coeffs else {1: _ONE})",
        "SPoly._of_rows({1: _ONE, 0: s._coeffs})",
    ),
    (
        "SPoly.from_rpoly keeping a zero row",
        "src/kleinverify/klein.py",
        "cls._of_rows({degree: a._coeffs} if a._coeffs else {})",
        "cls._of_rows({degree: a._coeffs})",
    ),
    (
        "StaffordInstance.from_factors without its check of the y-row",
        "src/kleinverify/division.py",
        "ys_rows.keys() == {0, 1} and ys_rows[1] == _ONE and",
        "ys_rows.keys() == {0, 1} and",
    ),
    (
        "run handing every command verify-paper's handler",
        "src/kleinverify/cli.py",
        "    handler, args = parsed\n",
        "    args = parsed[1]\n    handler = cmd_verify_paper\n",
    ),
    (
        "divide's several-term step by s, not -s",
        "src/kleinverify/walks.py",
        "minus_s = {e: -c for e, c in s_terms.items()}",
        "minus_s = s_terms",
    ),
    (
        "stafford_verdict checking only the degree-one pair",
        "src/kleinverify/verify.py",
        "for v, q in pairs)",
        "for v, q in pairs[:1])",
    ),
    (
        "expand_certificate's range check letting a negative relator index wrap round",
        "src/kleinverify/certificates.py",
        "if not 0 <= f.relator < len(src.relators):",
        "if not f.relator < len(src.relators):",
    ),
    (
        "chain_composites_vanish never returning false",
        "src/kleinverify/verify.py",
        "        if total:\n            return False",
        "        if False:\n            return False",
    ),
    (
        "_emit building the payload for text",
        "src/kleinverify/cli.py",
        "        print(text())",
        "        payload()\n        print(text())",
    ),
    (
        "_row_factors pairing factors with relators by list position",
        "src/kleinverify/certificates.py",
        "for c in sorted(certs, key=rank)]",
        "for c in certs]",
    ),
    (
        "equivalence_verdict's covered taking a certificate for any relator",
        "src/kleinverify/certificates.py",
        "if c.target == rel and check_certificate(src, c):",
        "if check_certificate(src, c):",
    ),
    (
        "_pack writing big-endian items",
        "src/kleinverify/kronecker.py",
        'raw = pack(f"<{n}{code}"',
        'raw = pack(f">{n}{code}"',
    ),
    (
        "division's __getattr__ handing divide for every name it resolves",
        "src/kleinverify/division.py",
        "        return getattr(walks, name)",
        "        return walks.divide",
    ),
    (
        "presentations' __getattr__ handing fox_derivative for every name it resolves",
        "src/kleinverify/presentations.py",
        "        return getattr(fox, name)",
        "        return fox.fox_derivative",
    ),
    (
        "klein's __getattr__ not resolving eval_combo",
        "src/kleinverify/klein.py",
        '    if name == "eval_combo":',
        "    if False:",
    ),
    (
        "the division walk taking the two-step form for a non-unit one-term s",
        "src/kleinverify/walks.py",
        "c * c == 1",
        "True",
    ),
    (
        "stafford's JSON naming its command Stafford",
        "src/kleinverify/cli_commands.py",
        '{"command": "stafford",',
        '{"command": "Stafford",',
    ),
    (
        "the Kronecker quotient's fallback answering None with no long division",
        "src/kleinverify/kronecker.py",
        "    from .longdiv import _long_quotient\n\n    return _long_quotient(num, den, lo)",
        "    return None",
    ),
)

# Known equivalent mutants, left out of MUTANTS because no result of the
# library tells them apart from it:
# - walks._walk's step by a unit s always taking one form, the one-step
#   or the two-step (where row_(k+2) is nonzero): both are exact, so only
#   the time differs.
# - longdiv._long_quotient stopping one exponent below the quotient's
#   lowest ("stop = dmax + lo - 1"): a step there gives the quotient a
#   term below min(b) - min(a), so a * q has a term below min(b) and
#   the remainder cannot vanish; the answer is None either way.


def job_minutes() -> int | None:
    """The timeout-minutes of the mutants job in WORKFLOW, or None."""
    text = WORKFLOW.read_text(encoding="utf-8")
    job = re.search(r"^  mutants:\n((?:    .*\n|\n)*)", text, re.M)
    found = job and re.search(r"^    timeout-minutes: (\d+)$", job.group(1), re.M)
    return int(found.group(1)) if found else None


def cannot_start(spent: float, bound: float, minutes: int) -> str | None:
    """Why a mutant run of up to bound seconds, after spent seconds, could
    outlast a job of minutes, or None when it fits."""
    total = spent + bound
    if total > minutes * 60:
        return (f"{spent:.0f} s spent and a run of up to {bound:.1f} s take up to"
                f" {total:.0f} s, over the job's {minutes} minutes")
    return None


def gate(mutants, bound: float, minutes: int, start: float, run=None, clock=time.perf_counter) -> int:
    """Run each mutant while one more run at the bound fits the job that
    began at start (a clock reading), printing one line per mutant; 0
    when every mutant ran and was killed, else 1.  When one cannot start,
    it and every later mutant are printed as not run.  run(file, old,
    new, bound) gives a mutant's verdict, run_mutant's by default."""
    run = run or run_mutant
    survivors = 0
    for i, (name, file, old, new) in enumerate(mutants):
        why = cannot_start(clock() - start, bound, minutes)
        if why:
            print(f"deadline: {why}; {len(mutants) - i} of {len(mutants)} mutants did not run")
            for late in mutants[i:]:
                print(f"{'not run':<17} {'':8}  {late[0]}")
            return 1
        began = clock()
        verdict = run(file, old, new, bound)
        survivors += verdict == "SURVIVED"
        print(f"{verdict:<17} {clock() - began:6.1f} s  {name}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


def anchor_errors() -> list[str]:
    """One line per entry whose old text does not occur exactly once."""
    errors = []
    for name, file, old, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            errors.append(f"{name}: {old!r} occurs {count} times in {file}")
    return errors


def _copy(dest: Path) -> None:
    # perfbench/out holds run records, which no test reads.
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", "out")
    for part in COPIED:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=ignore)
        else:
            shutil.copy2(src, dest / part)


def _run(copy: Path, args: tuple[str, ...], timeout: float) -> subprocess.CompletedProcess | None:
    """args run by this interpreter in copy, with PYTHONPATH at its src;
    None when the run passes timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None


def baseline(timeout: float) -> tuple[float, str | None]:
    """The unedited suite's wall time in seconds, and why the unedited copy
    cannot judge mutants, or None when it passes the whole suite with
    kleinverify imported from the copy."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        where = _run(copy, ("-c", "import kleinverify; print(kleinverify.__file__)"), timeout)
        if where is None or where.returncode or not Path(where.stdout.strip()).is_relative_to(copy):
            return 0.0, f"kleinverify is not imported from the copy: {where and (where.stdout + where.stderr)}"
        start = time.perf_counter()
        result = _run(copy, PYTEST, timeout)
        elapsed = time.perf_counter() - start
        if result is None:
            return elapsed, f"the unedited suite ran past {timeout:.0f} s"
        if result.returncode:
            return elapsed, "the unedited suite fails:\n" + result.stdout[-2000:]
    return elapsed, None


def files_in_order(file: str) -> list[str]:
    """Every tier-1 test file, in the order a mutant of file runs them: the
    one whose name after test_ is the longest prefix of the mutated
    module's first (tests/test_words.py for src/kleinverify/words.py,
    tests/test_cli.py for src/kleinverify/cli_commands.py), then the rest
    in collection order.  Each file is named, as pytest runs a file passed
    before its directory in the directory's order."""
    files = sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py"))
    stem = Path(file).stem
    named = [f for f in files if stem.startswith(f.removeprefix("tests/test_").removesuffix(".py"))]
    first = max(named, key=len, default=None)
    return sorted(files, key=lambda name: name != first)


def run_mutant(file: str, old: str, new: str, bound: float) -> str:
    """'killed', 'killed (timeout)' or 'SURVIVED' for the copy with old
    replaced by new in file, its suite run for at most bound seconds,
    stopping at the first failure, in files_in_order(file)'s order."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        result = _run(copy, (*PYTEST, "-x", *files_in_order(file)), bound)
    if result is None:
        return "killed (timeout)"
    return "killed" if result.returncode else "SURVIVED"


def main() -> int:
    start = time.perf_counter()
    minutes = job_minutes()
    if minutes is None:
        print(f"deadline: no timeout-minutes for the mutants job in {WORKFLOW}")
        return 1
    errors = anchor_errors()
    for line in errors:
        print(f"anchor: {line}")
    if errors:
        return 1
    suite, error = baseline(minutes * 60)
    if error:
        print(f"baseline: {error}")
        return 1
    bound = BOUND_FACTOR * suite
    print(f"baseline: the unedited suite passes in {suite:.1f} s")
    print(f"deadline: {len(MUTANTS)} runs of at most {bound:.1f} s each, each started only while"
          f" it fits the job's {minutes} minutes ({time.perf_counter() - start:.0f} s spent)")
    return gate(MUTANTS, bound, minutes, start)


if __name__ == "__main__":
    sys.exit(main())
