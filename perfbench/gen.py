"""Seeded input generators for the benchmark workloads.

Everything here is plain standard-library Python and never imports
kleinverify: the program under test receives only the text this module
writes, and every expected answer is known by construction.  The
construction arguments are spelled out next to each negative control.

A generated workload is a dict:

    {"workload": name, "seed": n, "scale": "full" | "tiny",
     "size": {...}, "instances": [...], "cli": [...]}

Each instance carries its text inputs and an ``expected`` dict; each CLI
case carries its argv, the expected exit status and the expected value of
one key of the command's JSON output.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence, Tuple

Letter = Tuple[str, int]

# The paper's presentations, as the CLI and the built-ins print them.
P_RELATOR = "y^-1 x y x"
Q_RELATORS = ("y^-2 x y^2 x^-1", "x^-3 y^-1 x y x^2 y^-1 x^-2 y")

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the
# harness's own tests fast and exercises the same code.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "paper": {"builtin_copies": 8},
        "long_relators": {"batch": 5, "conjugates": (40, 60), "conjugator_lens": (1, 2)},
        "dense_ring": {"batch": 4, "r_degree": 300, "ac_degree": 300, "f_span": 1000},
    },
    "tiny": {
        "paper": {"builtin_copies": 1},
        "long_relators": {"batch": 2, "conjugates": (3, 4), "conjugator_lens": (1, 2)},
        "dense_ring": {"batch": 2, "r_degree": 8, "ac_degree": 6, "f_span": 20},
    },
}

WORKLOADS = ("paper", "long_relators", "dense_ring")


# ------------------------------------------------------------- free words

def parse_letters(text: str) -> List[Letter]:
    """Expand "y^-2 x" into unit letters [("y", -1), ("y", -1), ("x", 1)]."""
    out: List[Letter] = []
    for tok in text.split():
        if tok == "1":
            continue
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        out.extend([(name, 1 if k > 0 else -1)] * abs(k))
    return out


def reduce_letters(letters: Sequence[Letter]) -> List[Letter]:
    """Free reduction of a sequence of unit letters."""
    stack: List[Letter] = []
    for g, e in letters:
        if stack and stack[-1] == (g, -e):
            stack.pop()
        else:
            stack.append((g, e))
    return stack


def invert_letters(letters: Sequence[Letter]) -> List[Letter]:
    return [(g, -e) for g, e in reversed(letters)]


def word_text(letters: Sequence[Letter]) -> str:
    """Run-length text in the library's word syntax; "1" for the identity."""
    runs: List[List] = []
    for g, e in letters:
        if runs and runs[-1][0] == g:
            runs[-1][1] += e
        else:
            runs.append([g, e])
    parts = [g if k == 1 else f"{g}^{k}" for g, k in runs if k]
    return " ".join(parts) if parts else "1"


def random_reduced(rng: random.Random, length: int) -> List[Letter]:
    out: List[Letter] = []
    while len(out) < length:
        letter = (rng.choice("xy"), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


def flip_one_y(rng: random.Random, letters: Sequence[Letter]) -> List[Letter]:
    """Invert one y letter.

    Every relator here maps to the identity of the Klein bottle group, so
    its y-exponent sum is 0; after the flip the sum is +-2, so the image is
    not the identity.  Hence the flipped word differs from the original,
    its certificate no longer matches, d1 * d2 no longer vanishes on its
    row, and its boundary row differs from the certified factorization.
    """
    ys = [i for i, (g, _) in enumerate(letters) if g == "y"]
    i = rng.choice(ys)
    out = list(letters)
    out[i] = ("y", -out[i][1])
    return reduce_letters(out)


# ------------------------------------------------------ Laurent polynomials

def poly_text(coeffs: Dict[int, int]) -> str:
    """Text in the library's polynomial syntax, highest exponent first."""
    parts: List[str] = []
    for e in sorted((e for e in coeffs if coeffs[e]), reverse=True):
        c = coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def spoly_text(rows: Dict[int, Dict[int, int]]) -> str:
    """Text of sum_m y^m * rows[m], highest y-degree first."""
    parts = []
    for m in sorted(rows, reverse=True):
        coeff = poly_text(rows[m])
        if m == 0:
            parts.append(f"({coeff})")
        else:
            parts.append(f"{'y' if m == 1 else f'y^{m}'}*({coeff})")
    return " + ".join(parts)


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice((1, -1)) * rng.randint(1, bound)


def dense_coeffs(rng: random.Random, degree: int, bound: int = 9) -> List[int]:
    """degree + 1 nonzero coefficients: every term present, so the cost of
    arithmetic on the polynomial depends on its degree alone."""
    return [_nonzero(rng, bound) for _ in range(degree + 1)]


def is_reciprocal(cs: Sequence[int]) -> bool:
    """sigma(r) equals +-x^j * r exactly when the coefficients read the same
    (or negated) backwards; r and sigma(r) have equal length, so this is
    also exactly when r divides s * sigma(r) for a unit s."""
    rev = list(reversed(cs))
    return rev == list(cs) or rev == [-c for c in cs]


def as_laurent(cs: Sequence[int], shift: int) -> Dict[int, int]:
    return {i + shift: c for i, c in enumerate(cs) if c}


def sigma(p: Dict[int, int]) -> Dict[int, int]:
    return {-e: c for e, c in p.items()}


def times_monomial(p: Dict[int, int], sign: int, k: int) -> Dict[int, int]:
    return {e + k: sign * c for e, c in p.items()}


# ---------------------------------------------------------------- workloads

_PAPER_OK = {
    "chi_ok": True, "pi1_ok": True, "factorization_ok": True, "bezout_ok": True,
    "splitting_ok": True, "condition_i": True, "condition_ii": True,
    "witnesses_ok": True, "all_ok": True,
}


def _paper(rng: random.Random, size: Dict) -> Tuple[List[Dict], List[Dict]]:
    instances: List[Dict] = [
        {"kind": "builtin", "expected": dict(_PAPER_OK)}
        for _ in range(size["builtin_copies"])
    ]
    # Negative control 1: one y letter of one Q relator inverted.  The
    # certificate for that relator no longer matches (pi1_ok) and the
    # shipped row factor no longer fits its boundary row (factorization_ok);
    # see flip_one_y.  Everything about (r, s) is untouched.
    j = rng.randrange(len(Q_RELATORS))
    relators = list(Q_RELATORS)
    relators[j] = word_text(flip_one_y(rng, parse_letters(relators[j])))
    instances.append({
        "kind": "flipped_q",
        "q_relators": relators,
        "expected": dict(_PAPER_OK, pi1_ok=False, factorization_ok=False, all_ok=False),
    })
    # Negative control 2: a reciprocal r.  r | s*sigma(r), so condition_ii
    # fails, and witnesses_ok needs it.  The shipped witness was made for
    # x^3 - x - 1: r'*alpha + (y+s)*beta - 1 = (r' - r)*alpha is nonzero in
    # a domain, so bezout, splitting and condition_i fail too.
    half = [_nonzero(rng, 3)] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
    cs = half + half[-2::-1]
    instances.append({
        "kind": "reciprocal_r",
        "r": poly_text(as_laurent(cs, 0)),
        "expected": dict(
            _PAPER_OK, bezout_ok=False, splitting_ok=False, condition_i=False,
            condition_ii=False, witnesses_ok=False, all_ok=False,
        ),
    })
    cli = [{
        "argv": ["verify-paper", "--format", "json"],
        "exit": 0, "key": "all_ok", "value": True,
    }]
    return instances, cli


def _product_of_conjugates(
    rng: random.Random, count: int, conj_lens: Sequence[int]
) -> Tuple[List[Letter], List[Dict]]:
    """A product of COUNT conjugates w R^+-1 w^-1, conjugator lengths
    cycling through CONJ_LENS.  Factors are drawn until nothing cancels, so
    the word's length is fixed by COUNT and CONJ_LENS alone, and so is the
    cost of verifying it."""
    rel = parse_letters(P_RELATOR)
    rel_inv = invert_letters(rel)
    acc: List[Letter] = []
    factors = []
    for i in range(count):
        while True:
            w = random_reduced(rng, conj_lens[i % len(conj_lens)])
            sign = rng.choice((1, -1))
            piece = w + (rel if sign == 1 else rel_inv) + invert_letters(w)
            grown = reduce_letters(acc + piece)
            if len(grown) == len(acc) + len(piece):
                break
        acc = grown
        factors.append({"w": word_text(w), "rel": 0, "sign": sign})
    return acc, factors


def _long_relators(rng: random.Random, size: Dict) -> Tuple[List[Dict], List[Dict]]:
    trivial = {"target": P_RELATOR, "factors": [{"w": "1", "rel": 0, "sign": 1}]}
    instances = []
    batch = size["batch"]
    for b in range(batch):
        relators = [P_RELATOR]
        certs = [dict(trivial, source="P")]
        for count in size["conjugates"]:
            target, factors = _product_of_conjugates(rng, count, size["conjugator_lens"])
            relators.append(word_text(target))
            certs.append({"target": word_text(target), "factors": factors, "source": "P"})
        k = len(size["conjugates"])
        expected = {
            "chi": k,
            "pi1": True,
            "composites_vanish": True,
            "rows": [True] * (k + 1),
        }
        negative = b == batch - 1
        if negative:
            # Negative control: one y letter of the last relator inverted;
            # its shipped certificate still names the original word.
            relators[-1] = word_text(flip_one_y(rng, parse_letters(relators[-1])))
            expected = dict(expected, pi1=False, composites_vanish=False,
                            rows=[True] * k + [False])
        instances.append({
            "kind": "negative" if negative else "positive",
            "relators": relators,
            "certs_q_over_p": certs,
            "certs_p_over_q": [trivial],
            "expected": expected,
        })
    cli = []
    for inst in instances:
        cert = dict(inst["certs_q_over_p"][-1], target=inst["relators"][-1])
        ok = inst["kind"] == "positive"
        cli.append({
            "argv": ["certificate", "--certificate", "{file}", "--format", "json"],
            "file": cert, "exit": 0 if ok else 1, "key": "value", "value": ok,
        })
    return instances, cli


def _dense_ring(rng: random.Random, size: Dict) -> Tuple[List[Dict], List[Dict]]:
    instances = []
    cli = []
    batch = size["batch"]
    for b in range(batch):
        negative = b == batch - 1
        deg = size["r_degree"]
        while True:
            cs = dense_coeffs(rng, deg)
            if negative:
                cs = cs[: deg // 2 + 1] + cs[: (deg + 1) // 2][::-1]
            if is_reciprocal(cs) == negative:
                break
        r = as_laurent(cs, rng.randint(-5, 5))
        s_sign, s_exp = rng.choice((1, -1)), rng.randint(-5, 5)
        s = {s_exp: s_sign}
        a_shift, c_shift = rng.randint(-5, 5), rng.randint(-5, 5)
        a = as_laurent(dense_coeffs(rng, size["ac_degree"]), a_shift)
        c = as_laurent(dense_coeffs(rng, size["ac_degree"]), c_shift)
        span = size["f_span"]
        base = rng.randint(-span // 2, 0)
        f_rows = {
            m: {e: _nonzero(rng, 5) for e in rng.sample(range(-3, 4), 2)}
            for m in range(base, base + span + 1)
        }
        degree_one = {1: r, 0: times_monomial(sigma(r), s_sign, s_exp)}
        # Expected answers, by construction:
        # - a is not a unit, so it cannot divide a*c + x^k (it would divide x^k);
        #   x^k sits just below a*c, so the long division runs to the end;
        # - y*r + s*sigma(r) lies in V for every (r, s); 1 never does, since
        #   the single-row remainder r is nonzero;
        # - no monic degree-one element exists iff r is not reciprocal;
        # - stafford_verdict without a witness reports condition_i false, and
        #   for a non-reciprocal r the degree-two candidate y^2 - s*sigma(s)
        #   = y^2 - 1 is found, so witnesses_ok equals condition_ii.
        expected = {
            "quotient_exact": True,
            "quotient_none": True,
            "no_monic_degree_one": not negative,
            "degree_one_in_V": True,
            "one_in_V": False,
            "divide_recomposes": True,
            "stafford": [False, not negative, not negative],
        }
        instances.append({
            "kind": "negative" if negative else "positive",
            "r": poly_text(r),
            "s": poly_text(s),
            "a": poly_text(a),
            "c": poly_text(c),
            "monomial": poly_text({a_shift + c_shift - 1: 1}),
            "f": spoly_text(f_rows),
            "expected": expected,
        })
        cli.append({
            "argv": ["member", spoly_text(degree_one), "--r=" + poly_text(r),
                     "--s=" + poly_text(s), "--format", "json"],
            "exit": 0, "key": "value", "value": True,
        })
    return instances, cli


_MAKERS = {"paper": _paper, "long_relators": _long_relators, "dense_ring": _dense_ring}


def generate(workload: str, seed: int, scale: str = "full") -> Dict:
    """All text inputs of one run, with expected answers."""
    size = SCALES[scale][workload]
    rng = random.Random(f"{workload}:{seed}")
    instances, cli = _MAKERS[workload](rng, size)
    return {
        "workload": workload, "seed": seed, "scale": scale, "size": size,
        "instances": instances, "cli": cli,
    }


def cli_failure(case: Dict, code: int, stdout: str) -> str:
    """"" when a CLI run gave the case's exit status and JSON value, else why not."""
    try:
        value = json.loads(stdout).get(case["key"])
    except ValueError:
        value = None
    if code == case["exit"] and value == case["value"]:
        return ""
    return f"cli {case['argv'][0]}: exit {code}, {case['key']}={value!r}"
