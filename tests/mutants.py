"""Mutation gate: the tier-1 suite must fail on each of a table of small,
deliberate faults in the library.

    python tests/mutants.py

Each entry of MUTANTS is (name, file, exact old text, new text).  For
each, src, tests, README.md and pyproject.toml are copied to a fresh
temporary directory, the one edit is applied there, and
"python -X dev -W error -m pytest -q -x" runs in that copy with
PYTHONPATH at its src.  The checkout itself is never written.

First the unedited copy runs the whole suite, which must pass and must
import kleinverify from the copy; otherwise no verdict on a mutant
means anything.  Then a mutant is killed when the suite fails or runs
past TIMEOUT seconds, and survives when it passes.  The gate exits 1 when
its runs, each at TIMEOUT, could outlast the CI job that runs it (the
timeout-minutes of the mutants job in WORKFLOW), when an anchor text does
not occur exactly once in its file, when the unedited copy fails, or when
any mutant survives; else 0.  Stdlib only.
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
COPIED = ("src", "tests", "README.md", "pyproject.toml")
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PYTEST = ("-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p", "no:cacheprovider")
# Seconds per suite run.  The unedited suite takes about 20 s.  The import
# check, the unedited suite and every mutant, each at this bound, must fit
# the CI job's timeout-minutes; budget_error checks that.
TIMEOUT = 80

MUTANTS = (
    (
        "a cancelled coefficient kept in a one-term division step",
        "src/kleinverify/division.py",
        "del row[e]",
        "row[e] = v",
    ),
    (
        "sigma's parity swapped in _mul_rows_into's one-term rows",
        "src/kleinverify/klein.py",
        "x = -e if p % 2 else e",
        "x = e if p % 2 else -e",
    ),
    (
        "the sign of the one-term division step dropped",
        "src/kleinverify/division.py",
        "minus_c = -s_coeff",
        "minus_c = s_coeff",
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
        "boundary_data's x^-1 term at x-exponent u + t, not u - t",
        "src/kleinverify/klein.py",
        "d, e = m, u + t * i",
        "d, e = m, u - t * i",
    ),
    (
        "boundary_data's y^-1 term in row -(m+1), not -(m-1)",
        "src/kleinverify/klein.py",
        "d, e = m + i, u",
        "d, e = m - i, u",
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
        "_reduced storing a list-shaped letter as it is",
        "src/kleinverify/words.py",
        "stack.append(letter if type(letter) is tuple else (name, exp))",
        "stack.append(letter)",
    ),
    (
        "divide's one-term step adding into f's row below in place",
        "src/kleinverify/division.py",
        """            row = {}
            for e, v in c.items():
                row[x + e] = minus_c * v
            if below:
                get = row.get
                for e, v in below.items():
                    v += get(e, 0)""",
        """            row = below if below else {}
            get = row.get
            for e, v in c.items():
                e += x
                v = get(e, 0) + minus_c * v
                if v:
                    row[e] = v
                else:
                    del row[e]
            if False:
                for e, v in below.items():
                    v += get(e, 0)""",
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
        "src/kleinverify/laurent.py",
        "stop = dmax + lo",
        "stop = dmax + lo + 1",
    ),
    (
        "Kronecker quotient digits read from exponent 0, not from lo",
        "src/kleinverify/laurent.py",
        "quot = _nonzero(dict(enumerate(digits, lo)))",
        "quot = _nonzero(dict(enumerate(digits)))",
    ),
    (
        "divide's several-term step by s, not -s",
        "src/kleinverify/division.py",
        "minus_s = {e: -c for e, c in s_terms.items()}",
        "minus_s = s_terms",
    ),
    (
        "stafford_verdict checking only the degree-one pair",
        "src/kleinverify/verify.py",
        "for v, q in pairs)",
        "for v, q in pairs[:1])",
    ),
)

# Known equivalent mutants, left out of MUTANTS because no result of the
# library tells them apart from it:
# - klein._mul_rows_into keeping a cancelled coefficient ("row[e2] = v"
#   for "del row[e2]"): every caller wraps the rows by klein._spoly, whose
#   laurent._nonzero drops the zero, so only the time differs.
# - laurent._long_quotient stopping one exponent below the quotient's
#   lowest ("stop = dmax + lo - 1"): a step there gives the quotient a
#   term below min(b) - min(a), so a * q has a term below min(b) and
#   the remainder cannot vanish; the answer is None either way.


def budget_error() -> str | None:
    """Why the gate's runs, each at TIMEOUT, could outlast the mutants job
    of WORKFLOW, or None when they fit its timeout-minutes."""
    text = WORKFLOW.read_text(encoding="utf-8")
    job = re.search(r"^  mutants:\n((?:    .*\n|\n)*)", text, re.M)
    found = job and re.search(r"^    timeout-minutes: (\d+)$", job.group(1), re.M)
    if not found:
        return f"no timeout-minutes for the mutants job in {WORKFLOW}"
    runs, minutes = len(MUTANTS) + 2, int(found.group(1))
    if runs * TIMEOUT > minutes * 60:
        return f"{runs} runs at {TIMEOUT} s take up to {runs * TIMEOUT} s, over the job's {minutes} minutes"
    return None


def anchor_errors() -> list[str]:
    """One line per entry whose old text does not occur exactly once."""
    errors = []
    for name, file, old, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            errors.append(f"{name}: {old!r} occurs {count} times in {file}")
    return errors


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in COPIED:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=ignore)
        else:
            shutil.copy2(src, dest / part)


def _run(copy: Path, args: tuple[str, ...]) -> subprocess.CompletedProcess | None:
    """args run by this interpreter in copy, with PYTHONPATH at its src;
    None when the run passes TIMEOUT."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return None


def baseline_error() -> str | None:
    """Why the unedited copy cannot judge mutants, or None when it passes
    the whole suite with kleinverify imported from the copy."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        where = _run(copy, ("-c", "import kleinverify; print(kleinverify.__file__)"))
        if where is None or where.returncode or not Path(where.stdout.strip()).is_relative_to(copy):
            return f"kleinverify is not imported from the copy: {where and (where.stdout + where.stderr)}"
        result = _run(copy, PYTEST)
        if result is None:
            return f"the unedited suite ran past {TIMEOUT} s"
        if result.returncode:
            return "the unedited suite fails:\n" + result.stdout[-2000:]
    return None


def run_mutant(file: str, old: str, new: str) -> str:
    """'killed', 'killed (timeout)' or 'SURVIVED' for the copy with old
    replaced by new in file."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / file
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        result = _run(copy, (*PYTEST, "-x"))
    if result is None:
        return "killed (timeout)"
    return "killed" if result.returncode else "SURVIVED"


def main() -> int:
    error = budget_error()
    if error:
        print(f"budget: {error}")
        return 1
    errors = anchor_errors()
    for line in errors:
        print(f"anchor: {line}")
    if errors:
        return 1
    error = baseline_error()
    if error:
        print(f"baseline: {error}")
        return 1
    print("baseline: the unedited suite passes")
    survivors = 0
    for name, file, old, new in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(file, old, new)
        survivors += verdict == "SURVIVED"
        print(f"{verdict:<17} {time.perf_counter() - start:6.1f} s  {name}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
