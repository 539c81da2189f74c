"""Shared test machinery: seeded random generators, independent oracles,
and the reusable property checks behind the randomized suites.

The oracles deliberately avoid the code paths they judge:
normal_form_oracle sorts single letters with the rewriting rules instead
of using the closed-form group law, and spoly_mul_oracle multiplies group
ring elements term by term through the group law group_mul on normal-form
pairs (m, n) instead of the twisted row convolution.  The fold oracles re-reduce the whole concatenation at
every step, as Word products once did, and boundary_factor_oracle adds
one SPoly per certificate factor to a running sum.  boundary_matrices with
eval_combo goes through FreeCombo instead of klein.boundary_data.
rpoly_mul_oracle and poly_quotient_oracle are the dict double loop and the
dict long division, with no Kronecker substitution; mul_into_oracle is the
double loop for the kernel's out + sign * a(x^flip) * b.  parse_rpoly_oracle and
parse_spoly_oracle are the hand-written parsers that the one-pass grammar
replaced: character by character, one coefficient parse per term.

The algebra that only the tests need lives here too: Combo adds sums,
one-sided products and the anti-involution to the library's FreeCombo,
the certificate algebra replays the reverse certificate, lift_kernel
builds kernel elements, witnesses reads the two elements of V from
stafford_verdict, splitting_projector builds the projector that
splitting_check is held to, and certificate_to_dict writes certificate
files.

The nine suites that test_a10_property_suites runs, each also asserted by
a test in its own module at the same size and seed, are wrapped in
functools.cache: a passing call runs once per process and is remembered
by its arguments, while a failing call caches nothing and raises again
for every test that makes it.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import inspect
import random
import re
import sys
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from kleinverify import (
    BezoutWitness,
    CertFactor,
    ConjugacyCertificate,
    FreeCombo,
    PolySyntaxError,
    Presentation,
    RPoly,
    SPoly,
    StaffordInstance,
    Word,
    boundary_data,
    boundary_factor,
    boundary_matrices,
    default_witness,
    divide,
    eval_combo,
    eval_word,
    expand_certificate,
    fox_derivative,
    in_V,
    laurent,
    monic_witness,
    parse_rpoly,
    parse_spoly,
    psi,
    quotient,
    splitting_check,
    stafford_verdict,
    verify_bezout,
    y_plus_s,
)
from kleinverify import builtin, kronecker, longdiv

SEED = 20230717


# ------------------------------------------------------ algebra for the tests

def conjugate(r: Word, w: Word) -> Word:
    """Conjugate of r by w, that is w * r * w^-1, freely reduced."""
    return w * r * ~w


class Combo(FreeCombo):
    """FreeCombo with the word algebra the Fox calculus checks need.

    Operands are read through items() only, and every result goes through
    the constructor, which drops zero coefficients.
    """

    __slots__ = ()

    @classmethod
    def of(cls, c: FreeCombo) -> "Combo":
        return cls(dict(c.items()))

    @classmethod
    def term(cls, word: Word, coeff: int = 1) -> "Combo":
        return cls({word: coeff})

    @classmethod
    def collect(cls, pairs) -> "Combo":
        """Sum of (word, coefficient) pairs, equal words merged."""
        out: Dict[Word, int] = {}
        for w, c in pairs:
            out[w] = out.get(w, 0) + c
        return cls(out)

    def is_zero(self) -> bool:
        return not self.items()

    def __add__(self, other: FreeCombo) -> "Combo":
        return Combo.collect(self.items() + other.items())

    def __neg__(self) -> "Combo":
        return Combo.collect((w, -c) for w, c in self.items())

    def __sub__(self, other: "Combo") -> "Combo":
        return self + (-other)

    def lmul(self, u: Word) -> "Combo":
        """Left-multiply every word by u."""
        return Combo.collect((u * w, c) for w, c in self.items())

    def rmul(self, u: Word) -> "Combo":
        """Right-multiply every word by u."""
        return Combo.collect((w * u, c) for w, c in self.items())

    def star(self) -> "Combo":
        """Linear anti-involution: each word is replaced by its inverse."""
        return Combo.collect((~w, c) for w, c in self.items())


def _merge_sources(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is not None and b is not None and a != b:
        raise ValueError(f"incompatible certificate sources {a!r} and {b!r}")
    return a if a is not None else b


def cert_concat(*certs: ConjugacyCertificate) -> ConjugacyCertificate:
    """Certificate for the product of the targets."""
    target = Word()
    factors: List[CertFactor] = []
    source: Optional[str] = None
    for c in certs:
        target = target * c.target
        factors.extend(c.factors)
        source = _merge_sources(source, c.source)
    return ConjugacyCertificate(target, tuple(factors), source)


def cert_invert(c: ConjugacyCertificate) -> ConjugacyCertificate:
    """Certificate for the inverse target: reversed factors, flipped signs."""
    factors = tuple(
        CertFactor(f.conjugator, f.relator, -f.sign) for f in reversed(c.factors)
    )
    return ConjugacyCertificate(~c.target, factors, c.source)


def cert_conjugate(c: ConjugacyCertificate, u: Word) -> ConjugacyCertificate:
    """Certificate for u * target * u^-1."""
    factors = tuple(
        CertFactor(u * f.conjugator, f.relator, f.sign) for f in c.factors
    )
    return ConjugacyCertificate(conjugate(c.target, u), factors, c.source)


def certificate_to_dict(cert: ConjugacyCertificate) -> dict:
    """The certificate JSON object that certificate_from_dict reads back."""
    data: dict = {
        "target": str(cert.target),
        "factors": [
            {"w": str(f.conjugator), "rel": f.relator, "sign": f.sign}
            for f in cert.factors
        ],
    }
    if cert.source is not None:
        data["source"] = cert.source
    return data


def lift_kernel(v: SPoly, inst: StaffordInstance) -> SPoly:
    """The partner u with (y + s) * u = -r * v, defined exactly on V.

    The pair (u, v) then lies in the kernel of
    (u, v) -> (y + s) * u + r * v.
    """
    res = divide(SPoly.from_rpoly(inst.r) * v, inst.s)
    if not res.remainder.is_zero():
        raise ValueError("element is not in V; no kernel lift exists")
    return -res.quotient


def witnesses(inst: StaffordInstance) -> Tuple[SPoly, SPoly]:
    """The degree-1 and the monic element of V that stafford_verdict
    reports once both pass their product identity."""
    verdict = stafford_verdict(inst, None)
    return verdict.degree_one, verdict.monic


def splitting_projector(w: BezoutWitness, inst: StaffordInstance) -> List[List[SPoly]]:
    """id - t . psi, where t(c) = (beta*c, alpha*c) sections psi: the
    projector whose columns splitting_check writes out."""
    ys, r, one = y_plus_s(inst.s), SPoly.from_rpoly(inst.r), SPoly.one()
    return [
        [one - w.beta * ys, -(w.beta * r)],
        [-(w.alpha * ys), one - w.alpha * r],
    ]


# ---------------------------------------------------------------- generators

def rand_word(rng: random.Random, gens=("x", "y"), max_runs=6, max_exp=3) -> Word:
    n = rng.randint(0, max_runs)
    exps = [e for e in range(-max_exp, max_exp + 1) if e != 0]
    return Word([(rng.choice(gens), rng.choice(exps)) for _ in range(n)])


def rand_rpoly(
    rng: random.Random, nonzero=False, max_terms=4, exp_range=(-4, 4), coeff_range=(-5, 5)
) -> RPoly:
    n = rng.randint(1 if nonzero else 0, max_terms)
    coeffs = {}
    for _ in range(n):
        e = rng.randint(*exp_range)
        c = rng.randint(*coeff_range)
        coeffs[e] = coeffs.get(e, 0) + c
    p = RPoly(coeffs)
    if nonzero and p.is_zero():
        return RPoly.monomial(rng.randint(*exp_range))
    return p


def rand_spoly(rng: random.Random, nonzero=False, max_rows=3, deg_range=(-3, 3)) -> SPoly:
    n = rng.randint(1 if nonzero else 0, max_rows)
    rows = {}
    for _ in range(n):
        rows[rng.randint(*deg_range)] = rand_rpoly(rng, nonzero=True, max_terms=3)
    f = SPoly(rows)
    if nonzero and f.is_zero():
        return SPoly.one()
    return f


def rand_consequence_presentation(rng: random.Random, max_relators=3) -> Presentation:
    """Random presentation whose relators all die in the Klein bottle group:
    products of conjugates of the one-relator presentation's relator."""
    base = builtin.presentation_p().relators[0]
    relators = []
    for _ in range(rng.randint(1, max_relators)):
        w = Word()
        for _ in range(rng.randint(1, 3)):
            u = rand_word(rng, max_runs=3, max_exp=2)
            piece = base if rng.random() < 0.5 else ~base
            w = w * conjugate(piece, u)
        relators.append(w)
    return Presentation(("x", "y"), tuple(relators))


def rand_valid_certificate(rng: random.Random, src: Presentation) -> ConjugacyCertificate:
    factors = tuple(
        CertFactor(
            rand_word(rng, max_runs=3, max_exp=2),
            rng.randrange(len(src.relators)),
            rng.choice((1, -1)),
        )
        for _ in range(rng.randint(0, 4))
    )
    cert = ConjugacyCertificate(Word(), factors)
    return ConjugacyCertificate(expand_certificate(src, cert), factors)


# ------------------------------------------------------------------- oracles

def normal_form_oracle(w: Word) -> Tuple[int, int]:
    """Normal form (m, n) by letter-level rewriting: push every y left
    with x y -> y x^-1 and its three sign variants, then add exponents."""
    seq: List[Tuple[str, int]] = []
    for name, exp in w.letters:
        step = 1 if exp > 0 else -1
        seq.extend((name, step) for _ in range(abs(exp)))
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            (n1, e1), (n2, e2) = seq[i], seq[i + 1]
            if n1 == "x" and n2 == "y":
                seq[i], seq[i + 1] = (n2, e2), (n1, -e1)
                changed = True
    return (
        sum(e for name, e in seq if name == "y"),
        sum(e for name, e in seq if name == "x"),
    )


def group_mul(g: Tuple[int, int], h: Tuple[int, int]) -> Tuple[int, int]:
    """The group law on normal forms: (m, n) * (p, q) = (m + p, (-1)^p n + q)."""
    (m, n), (p, q) = g, h
    return m + p, (n if p % 2 == 0 else -n) + q


def spoly_terms(f: SPoly) -> List[Tuple[int, Tuple[int, int]]]:
    return [(c, (m, e)) for m, a in f.rows() for e, c in a.items()]


def spoly_of_group(e: Tuple[int, int], coeff: int = 1) -> SPoly:
    """coeff * y^m x^n for the normal-form pair e = (m, n)."""
    return SPoly({e[0]: RPoly({e[1]: coeff})})


def spoly_from_terms(terms) -> SPoly:
    """Sum of c * g over (c, g) pairs, collected in one dict per y-degree."""
    rows: Dict[int, Dict[int, int]] = {}
    for c, (m, n) in terms:
        row = rows.setdefault(m, {})
        row[n] = row.get(n, 0) + c
    return SPoly({m: RPoly(row) for m, row in rows.items()})


def spoly_mul_oracle(f: SPoly, g: SPoly) -> SPoly:
    """Group-algebra product: expand both operands into group elements,
    multiply pairwise with the group law, recollect."""
    g_terms = spoly_terms(g)
    out = []
    for c1, g1 in spoly_terms(f):
        for c2, g2 in g_terms:
            out.append((c1 * c2, group_mul(g1, g2)))
    return spoly_from_terms(out)


def rpoly_mul_oracle(a: RPoly, b: RPoly) -> RPoly:
    """Schoolbook product: every pair of terms, summed in a dict."""
    out: Dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return RPoly(out)


def poly_quotient_oracle(a: RPoly, b: RPoly) -> Optional[RPoly]:
    """b / a by integer long division from the top, after shifting both to
    ordinary polynomials; None when a does not divide b."""
    if b.is_zero():
        return RPoly.zero()
    den = {e - a.min_exp: c for e, c in a.items()}
    rem = {e - b.min_exp: c for e, c in b.items()}
    dmax = max(den)
    quot = {}
    while rem:
        rmax = max(rem)
        if rmax < dmax:
            return None
        c, leftover = divmod(rem[rmax], den[dmax])
        if leftover:
            return None
        quot[rmax - dmax] = c
        for e, dc in den.items():
            v = rem.get(e + rmax - dmax, 0) - dc * c
            if v:
                rem[e + rmax - dmax] = v
            else:
                rem.pop(e + rmax - dmax, None)
    return RPoly(quot).shift(b.min_exp - a.min_exp)


# The parsers the library had before the one-pass grammar, kept as oracles:
# parse_rpoly_oracle drops blanks and scans monomial by monomial, and
# parse_spoly_oracle splits the text into terms by hand and parses each
# coefficient with parse_rpoly_oracle.
_ORACLE_MONO = re.compile(r"(?:(?P<coeff>\d+)\*?)?(?P<var>x(?:\^(?P<exp>-?\d+))?)?")
# Blanks are dropped before the scan, which would join "x^1 0" into x^10.
_ORACLE_SPLIT_DIGITS = re.compile(r"\d[ \t]+\d")


def parse_rpoly_oracle(text: str) -> RPoly:
    s = text.replace("−", "-")
    split = _ORACLE_SPLIT_DIGITS.search(s)
    if split:
        raise PolySyntaxError(f"digits split by whitespace at position {split.start()} in {text!r}")
    s = s.replace(" ", "").replace("\t", "")
    if not s:
        raise PolySyntaxError("empty polynomial string")
    coeffs: Dict[int, int] = {}
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        if i >= n:
            raise PolySyntaxError(f"dangling sign at position {i - 1} in {text!r}")
        m = _ORACLE_MONO.match(s, i)
        if m is None or m.end() == i:
            raise PolySyntaxError(f"unexpected character {s[i]!r} at position {i} in {text!r}")
        if m.group("coeff") is None and m.group("var") is None:
            raise PolySyntaxError(f"expected a monomial at position {i} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        i = m.end()
        if i < n and s[i] not in "+-":
            raise PolySyntaxError(f"unexpected character {s[i]!r} at position {i} in {text!r}")
    return RPoly(coeffs)


_ORACLE_TERM = re.compile(r"^y(?:\^(?P<m>-?\d+))?\s*(?:\*\s*(?P<paren>\(.*\))\s*)?$", re.S)


def _oracle_split_terms(s: str) -> List[Tuple[int, str]]:
    chunks: List[Tuple[int, str]] = []
    cur: List[str] = []
    sign = 1
    depth = 0
    prev = ""
    i = 0
    if s and s[0] in "+-":
        sign = 1 if s[0] == "+" else -1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolySyntaxError(f"unbalanced ')' at position {i}")
        if ch in "+-" and depth == 0 and prev not in ("", "^", "*", "+", "-"):
            chunks.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
        else:
            cur.append(ch)
        if not ch.isspace():
            prev = ch
        i += 1
    if depth != 0:
        raise PolySyntaxError("unbalanced '(' in input")
    chunks.append((sign, "".join(cur).strip()))
    return chunks


def parse_spoly_oracle(text: str) -> SPoly:
    s = text.replace("−", "-").strip()
    if not s:
        raise PolySyntaxError("empty input")
    if "y" not in s and "(" not in s:
        return SPoly.from_rpoly(parse_rpoly_oracle(s))
    rows: Dict[int, Dict[int, int]] = {}
    for sign, chunk in _oracle_split_terms(s):
        if not chunk:
            raise PolySyntaxError(f"empty term in {text!r}")
        if chunk.startswith("y"):
            m = _ORACLE_TERM.match(chunk)
            if m is None:
                raise PolySyntaxError(f"malformed term {chunk!r} in {text!r}")
            degree = int(m.group("m")) if m.group("m") else 1
            if m.group("paren"):
                coeff = parse_rpoly_oracle(m.group("paren")[1:-1])
            else:
                coeff = RPoly.one()
        elif chunk.startswith("("):
            if not chunk.endswith(")"):
                raise PolySyntaxError(f"malformed term {chunk!r} in {text!r}")
            degree = 0
            coeff = parse_rpoly_oracle(chunk[1:-1])
        else:
            degree = 0
            coeff = parse_rpoly_oracle(chunk)
        row = rows.setdefault(degree, {})
        for e, c in coeff.items():
            row[e] = row.get(e, 0) + sign * c
    return SPoly({m: RPoly(row) for m, row in rows.items()})



# The only inputs on which the library's parsers may differ from the
# oracles.  Each is a syntax error in the library, which the oracles
# accepted: a "*" not followed by x (or by "(" after y^m), and, in twisted
# ring text, a doubled sign or a newline.  Numbers longer than 4300 digits
# also differ, but the differential inputs are short.
_DANGLING_STAR = re.compile(r"\*[ \t\n]*(?![ \t\n]|[x(])")
_DOUBLED_SIGN = re.compile(r"[+\-−][ \t\n]*[+\-−]")
_PARSE_ALPHABET = "0123456789xy^*+-() \t\n−"
# Every text that some valid input starts with becomes valid with one of these.
_COMPLETIONS = ("", "1", "x", ")", "1)", "x)", "(1)")


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except PolySyntaxError as exc:
        return exc


def _viable(parse, text: str) -> bool:
    return any(not isinstance(_parse_outcome(parse, text + c), PolySyntaxError) for c in _COMPLETIONS)


def _respace(rng: random.Random, text: str) -> str:
    """text with random blanks between tokens, never inside a number or y^m."""
    tokens = re.findall(r"y\^-?\d+|\d+|\S", text)
    pad = ("", "", "", " ", "  ", "\t")
    return rng.choice(pad) + "".join(t + rng.choice(pad) for t in tokens)


def _rand_rpoly_text(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        a = rand_rpoly(rng)
    elif kind == 1:  # dense
        lo = rng.randint(-20, 5)
        a = RPoly({e: rng.randint(-30, 30) for e in range(lo, lo + rng.randint(1, 25))})
    else:  # sparse, with large exponents and coefficients
        a = RPoly({
            rng.randint(-10**9, 10**9): rng.choice((1, -1)) * rng.randint(1, 10**12)
            for _ in range(rng.randint(1, 4))
        })
    text = str(a)
    if rng.random() < 0.3:
        text = text.replace("*x", "x")
    return text


def _rand_spoly_text(rng: random.Random) -> str:
    """The rows of a random SPoly in all four term forms, in random order."""
    f = rand_spoly(rng, max_rows=rng.choice((3, 8)), deg_range=rng.choice(((-3, 3), (-500, 500))))
    terms = []
    for m, a in f.rows():
        ym = "y" if m == 1 else f"y^{m}"
        form = rng.randrange(4)
        if m == 0 and form == 3 and len(a.items()) == 1:
            terms.append(str(a))
        elif m != 0 and a == RPoly.one() and form >= 2:
            terms.append(ym)
        elif m == 0 and form >= 1:
            terms.append(f"({a})")
        else:
            terms.append(f"{ym}*({a})")
    rng.shuffle(terms)
    return " + ".join(terms) or "0"


def _mutate(rng: random.Random, text: str) -> str:
    """text with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(i, rng.choice(_PARSE_ALPHABET))
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(_PARSE_ALPHABET)
    return "".join(chars)


def _rand_parse_input(rng: random.Random, twisted: bool) -> str:
    """A valid text, a near-valid one or a short random one."""
    draw = rng.random()
    if draw < 0.85:
        text = _respace(rng, _rand_spoly_text(rng) if twisted else _rand_rpoly_text(rng))
        if rng.random() < 0.2:
            text = text.replace("-", "−")
        return text if draw < 0.3 else _mutate(rng, text)
    return "".join(rng.choice(_PARSE_ALPHABET) for _ in range(rng.randint(0, 12)))


def check_parser_matches_oracle(cases: int, twisted: bool, seed: int = SEED) -> Counter:
    """parse_spoly (twisted) or parse_rpoly against its oracle on fixed-seed
    inputs: both give the same value, both raise PolySyntaxError, or the
    input is one of the fixed bugs above and only the library raises.

    Each error must name the first character past the longest start of the
    input that some valid input shares, or the end when the input is such
    a start.  Returns how many cases fell in each class.
    """
    parse, oracle = (parse_spoly, parse_spoly_oracle) if twisted else (parse_rpoly, parse_rpoly_oracle)
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(cases):
        text = _rand_parse_input(rng, twisted)
        new, old = _parse_outcome(parse, text), _parse_outcome(oracle, text)
        if not isinstance(new, PolySyntaxError):
            assert new == old, (text, new, old)
            seen["equal"] += 1
            continue
        if isinstance(old, PolySyntaxError):
            seen["both rejected"] += 1
        else:
            bugs = [name for name, hit in (
                ("dangling *", _DANGLING_STAR.search(text)),
                ("doubled sign", twisted and _DOUBLED_SIGN.search(text)),
                ("newline", twisted and "\n" in text),
            ) if hit]
            assert bugs, ("only the library rejects", text, new, old)
            seen.update(bugs)
        message = str(new)
        at = re.search(r"at position (\d+) in ", message)
        if message == "empty polynomial string":
            assert not text.strip(" \t"), text
        elif at is None:
            assert message.startswith("unexpected end") and _viable(parse, text), (text, message)
        else:
            k = int(at.group(1))
            assert _viable(parse, text[:k]) and not _viable(parse, text[:k + 1]), (text, message)
            assert message.endswith(f" in {text!r}"), (text, message)
    return seen


@contextlib.contextmanager
def counting(owner, *names: str) -> Iterator[Dict[str, int]]:
    """Count the calls to functions of a module or methods of a class, as
    in counting(SPoly, "__mul__", "__init__"), while the block runs.

    A method patched on its class counts operator calls too, since
    a * b looks __mul__ up on the class, and a classmethod stays one, as
    in counting(RPoly, "_of_nonzero").  Patch a module-level function
    on the module its caller reads it from: a module that imported the
    name keeps its own binding.  Each name gets back the object it had."""
    counts = dict.fromkeys(names, 0)
    saved = {name: inspect.getattr_static(owner, name) for name in names}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name, fn in saved.items():
        if isinstance(fn, classmethod):
            setattr(owner, name, classmethod(counted(name, fn.__func__)))
        else:
            setattr(owner, name, counted(name, fn))
    try:
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(owner, name, fn)


def reduce_oracle(letters) -> Tuple[Tuple[str, int], ...]:
    """Free reduction by local rewriting, without Word: drop a zero
    exponent or merge two neighbours on one generator, stepping back one
    place after each rewrite, until no rule applies."""
    out = [(name, exp) for name, exp in letters]
    i = 0
    while i < len(out):
        if out[i][1] == 0:
            del out[i]
            i = max(i - 1, 0)
        elif i + 1 < len(out) and out[i][0] == out[i + 1][0]:
            out[i : i + 2] = [(out[i][0], out[i][1] + out[i + 1][1])]
        else:
            i += 1
    return tuple(out)


def fold_mul(u: Word, v: Word) -> Word:
    """u * v by reducing the whole concatenation again."""
    return Word(u.letters + v.letters)


def fold_pow(w: Word, n: int) -> Word:
    """w ** n as the left fold of fold_mul."""
    base = w if n >= 0 else Word(tuple((g, -e) for g, e in reversed(w.letters)))
    out = Word()
    for _ in range(abs(n)):
        out = fold_mul(out, base)
    return out


def fold_expand(src: Presentation, cert: ConjugacyCertificate) -> Word:
    """The certificate product as a left fold of fully reduced conjugates."""
    acc = Word()
    for f in cert.factors:
        if not 0 <= f.relator < len(src.relators):
            raise IndexError(f"relator index {f.relator} out of range")
        rel = src.relators[f.relator]
        piece = rel if f.sign == 1 else fold_pow(rel, -1)
        conj = fold_mul(fold_mul(f.conjugator, piece), fold_pow(f.conjugator, -1))
        acc = fold_mul(acc, conj)
    return acc


def boundary_factor_oracle(src: Presentation, cert: ConjugacyCertificate) -> Dict[int, SPoly]:
    """The chain shadow as a running SPoly sum: one term per factor, the
    group image of the inverse conjugator built as a Word, checked by the
    fold instead of expand_certificate."""
    if fold_expand(src, cert) != cert.target:
        raise ValueError("invalid certificate: product does not reduce to target")
    out: Dict[int, SPoly] = {}
    for f in cert.factors:
        term = spoly_of_group(eval_word(~f.conjugator), f.sign)
        out[f.relator] = out.get(f.relator, SPoly.zero()) + term
    return out


def assert_normalised(value) -> None:
    """value stores no zero coefficient (RPoly), row (SPoly) or term
    (FreeCombo); an SPoly's rows are plain coefficient dicts."""
    if isinstance(value, SPoly):
        for row in value._rows.values():
            assert type(row) is dict and row and all(row.values()), row
    else:
        store = value._coeffs if isinstance(value, RPoly) else value._terms
        assert all(store.values())


def assert_cancelled(values, zero) -> None:
    for v in values:
        assert v == zero and v.is_zero()
        assert_normalised(v)


# ----------------------------------------------------------- property suites

@functools.cache
def check_free_group_axioms(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    e = Word()
    for _ in range(cases):
        u, v, w = (rand_word(rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * e == u and e * u == u
        assert u * ~u == e and ~u * u == e


def check_reduction_canonical(cases: int, seed: int = SEED) -> None:
    """Word(letters) against reduce_oracle, on a random word spelt out in
    unit letters with cancelling pairs, cancelling blocks u u^-1 (a full
    cancel that exposes an earlier letter on the same generator) and zero
    exponents inserted; the letters go in as tuples and as lists."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(cases):
        w = rand_word(rng)
        letters = [
            (name, 1 if exp > 0 else -1)
            for name, exp in w.letters
            for _ in range(abs(exp))
        ]
        for _ in range(rng.randint(1, 5)):
            pos = rng.randint(0, len(letters))
            g = rng.choice(("x", "y"))
            ex = rng.choice((1, -1))
            letters[pos:pos] = [(g, ex), (g, -ex)]
        u = rand_word(rng, max_runs=3).letters
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [*u, *((g, -e) for g, e in reversed(u))]
        seen["block between one generator's letters"] += (
            bool(u) and 0 < pos < len(letters) - 2 * len(u)
            and letters[pos - 1][0] == letters[pos + 2 * len(u)][0]
        )
        for _ in range(rng.randint(0, 3)):
            letters.insert(rng.randint(0, len(letters)), (rng.choice(("x", "y")), 0))
        got = Word(letters)
        assert got == w and got.letters == reduce_oracle(letters), letters
        from_lists = Word([list(letter) for letter in letters])
        assert from_lists == w and all(type(letter) is tuple for letter in from_lists.letters)
        seen["zero exponent"] += any(e == 0 for _, e in letters)
    assert min(seen.values()) >= cases // 10, seen


@functools.cache
def check_rpoly_ring_axioms(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    zero, one = RPoly.zero(), RPoly.one()
    for _ in range(cases):
        a, b, c = (rand_rpoly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a and a - a == zero
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        # operands that cancel: the constructor alone drops the zeros
        assert_cancelled((a - a, a + (-a), (a + b) - b - a, a * b - b * a), zero)
        assert (a + b) - b == a and (a + b) * (a - b) == a * a - b * b
        for v in ((a + b) - b, (a + b) * (a - b), a * b):
            assert_normalised(v)


@functools.cache
def check_spoly_ring_axioms(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    zero, one = SPoly.zero(), SPoly.one()
    y = SPoly({1: RPoly.one()})
    for _ in range(cases):
        f, g, h = (rand_spoly(rng) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f + zero == f and f - f == zero
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert f * one == f and one * f == f
        assert f * g == spoly_mul_oracle(f, g)
        assert_cancelled((f - f, f + (-f), (f + g) - g - f), zero)
        assert (f + g) - g == f
        # (y + a)(y - sigma(a)) = y^2 - a sigma(a): the y-row cancels inside the product
        a = f.row(0)
        prod = (y + SPoly.from_rpoly(a)) * (y - SPoly.from_rpoly(a.sigma()))
        assert prod == SPoly({2: RPoly.one(), 0: -(a * a.sigma())})
        for v in ((f + g) - g, f * g, prod):
            assert_normalised(v)


def _rand_sub_pair(rng: random.Random, kind: str, twisted: bool):
    """Operands a, b for a - b.  disjoint: no shared exponent (RPoly) or
    y-degree (SPoly).  partial: b copies some of a's terms (RPoly) or
    rows (SPoly), which cancel, shares one more exponent or row whose
    coefficient only changes, and adds its own.  self: b is a equal
    value held in other dicts."""
    rand = rand_spoly if twisted else rand_rpoly
    if kind == "disjoint":
        if twisted:
            return rand_spoly(rng, deg_range=(-3, -1)), rand_spoly(rng, deg_range=(0, 3))
        return rand_rpoly(rng, exp_range=(-4, 0)), rand_rpoly(rng, exp_range=(1, 5))
    a = rand(rng, nonzero=True)
    if kind == "self":
        return a, (SPoly({m: RPoly(row) for m, row in a._rows.items()})
                   if twisted else RPoly(dict(a._coeffs)))
    if twisted:
        rows = {m: a.row(m) for m in a._rows if rng.random() < 0.5}
        m = rng.choice(list(a._rows))
        rows[m] = a.row(m) + rand_rpoly(rng, nonzero=True, max_terms=2)
        rows[rng.randint(4, 6)] = rand_rpoly(rng, nonzero=True)
        return a, SPoly(rows)
    terms = {e: c for e, c in a._coeffs.items() if rng.random() < 0.5}
    e = rng.choice(list(a._coeffs))
    terms[e] = a._coeffs[e] + rng.choice((-2, -1, 1, 2))
    terms[rng.randint(5, 8)] = rng.randint(1, 5)
    return a, RPoly(terms)


def check_sub_matches_add_neg(cases: int, twisted: bool, seed: int = SEED) -> Counter:
    """a - b == a + (-b) and b - a == -(a - b) on RPolys, or on SPolys
    when twisted, with no zero coefficient or zero row in any result,
    over disjoint operands, partial cancellation and a - a.  Returns how
    many cases of each kind ran and how many differences cancelled to 0."""
    rng = random.Random(seed)
    zero = SPoly.zero() if twisted else RPoly.zero()
    seen: Counter = Counter()
    for i in range(cases):
        kind = ("disjoint", "partial", "self")[i % 3]
        a, b = _rand_sub_pair(rng, kind, twisted)
        diff = a - b
        assert diff == a + (-b), (i, str(a), str(b))
        assert b - a == -diff, (i, str(a), str(b))
        for v in (diff, b - a, a - a):
            assert_normalised(v)
        assert a - a == zero and (diff == zero) == (a == b), (i, str(a), str(b))
        seen[kind] += 1
        seen["zero difference"] += diff == zero
    return seen


def check_splitting_matches_projector(cases: int, seed: int = SEED) -> Counter:
    """splitting_check(w, inst) == (psi of each column of
    splitting_projector(w, inst) is zero), on the paper witness and on
    witnesses with one coefficient of alpha or beta changed, which
    break the unit combination, so both sides read false."""
    rng = random.Random(seed)
    inst = builtin.stafford_instance()
    base = default_witness()
    seen: Counter = Counter()
    for i in range(cases + 1):
        w = base
        if i:
            name = ("alpha", "beta")[i % 2]
            rows = dict(getattr(base, name).rows())
            m = rng.choice(sorted(rows))
            coeffs = dict(rows[m]._coeffs)
            e = rng.choice(sorted(coeffs))
            coeffs[e] += rng.choice((-3, -2, -1, 1, 2, 3))
            rows[m] = RPoly(coeffs)
            changed = SPoly(rows)
            w = BezoutWitness(changed, base.beta) if name == "alpha" else BezoutWitness(base.alpha, changed)
            seen[name] += 1
        (p00, p01), (p10, p11) = splitting_projector(w, inst)
        projector_splits = psi(p00, p10, inst).is_zero() and psi(p01, p11, inst).is_zero()
        assert splitting_check(w, inst) == projector_splits == (i == 0), (i, str(w.alpha), str(w.beta))
    return seen


@functools.cache
def check_sigma_involution(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        a, b = rand_rpoly(rng), rand_rpoly(rng)
        assert a.sigma().sigma() == a
        assert (a + b).sigma() == a.sigma() + b.sigma()
        assert (a * b).sigma() == a.sigma() * b.sigma()


@functools.cache
def check_domain_property(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        a = rand_rpoly(rng, nonzero=True)
        b = rand_rpoly(rng, nonzero=True)
        ab = a * b
        assert not ab.is_zero()
        assert ab.max_exp - ab.min_exp == (a.max_exp - a.min_exp) + (b.max_exp - b.min_exp)
    for _ in range(cases // 2):
        f = rand_spoly(rng, nonzero=True)
        g = rand_spoly(rng, nonzero=True)
        assert not (f * g).is_zero()


@functools.cache
def check_division_recomposition(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    s = builtin.stafford_instance().s
    for i in range(cases):
        f = rand_spoly(rng)
        twist = s if i % 4 else rand_rpoly(rng, nonzero=True, max_terms=2)
        res = divide(f, twist)
        recomposed = y_plus_s(twist) * res.quotient + SPoly(
            {res.rem_degree: res.remainder}
        )
        assert recomposed == f
        if not f.is_zero():
            assert res.rem_degree == f.min_degree
    # f = (y + twist) * q, half the time plus y^d * c below it, so rows
    # cancel mid-division and the quotient and remainder are known.  Its
    # own stream leaves the cases above as they were.
    rng = random.Random(seed + 1)
    for i in range(cases):
        twist = s if i % 4 else rand_rpoly(rng, nonzero=True, max_terms=2)
        q = rand_spoly(rng, nonzero=True)
        f = y_plus_s(twist) * q
        d, c = f.min_degree, RPoly.zero()
        if i % 2:
            d, c = d - rng.randint(1, 3), rand_rpoly(rng, nonzero=True)
            f = f + SPoly({d: c})
        assert divide(f, twist) == (q, d, c)
    # f = (y + twist) * y^k c + low: the top two rows cancel in the first
    # step, and the rows of low lie up to 10^6 y-degrees below.  Its own
    # stream again.
    rng = random.Random(seed + 2)
    for i in range(cases):
        twist = s if i % 4 else rand_rpoly(rng, nonzero=True, max_terms=2)
        k = rng.randint(10, 10**6)
        c = rand_rpoly(rng, nonzero=True)
        low = rand_spoly(rng)
        f = y_plus_s(twist) * SPoly({k: c}) + low
        q, d, rem = divide(low, twist) if low else (SPoly.zero(), k, RPoly.zero())
        assert divide(f, twist) == (SPoly({k: c}) + q, d, rem)


def _byte_edge(rng: random.Random) -> int:
    """+-(2^(8k) - 1) or +-2^(8k - 1): the largest digit of k bytes, or a
    balanced digit's half."""
    k = rng.randint(1, 6)
    return rng.choice((1, -1)) * rng.choice(((1 << 8 * k) - 1, 1 << (8 * k - 1)))


def _dense_rpoly(rng: random.Random, terms: int, coeff=None, shift=None) -> RPoly:
    """terms consecutive exponents from a random shift, each coefficient
    nonzero, so the operand is as dense as it can be."""
    coeff = coeff or (lambda r: r.choice((1, -1)) * r.randint(1, 9))
    lo = rng.randint(-20, 20) if shift is None else shift
    return RPoly({lo + i: coeff(rng) for i in range(terms)})


def _rand_kronecker_operand(rng: random.Random, kind: int) -> RPoly:
    """An operand for the product and quotient suites, by kind:
    0 byte-boundary and 1 +-10^40 coefficients, 2 negative leading and
    trailing coefficients, 3 a random fill that may or may not be dense."""
    terms = rng.randint(laurent._KRONECKER_TERMS, 60)
    if kind == 0:
        return _dense_rpoly(rng, terms, lambda r: _byte_edge(r) if r.random() < 0.7 else r.randint(1, 9))
    if kind == 1:
        return _dense_rpoly(rng, terms, lambda r: r.choice((1, -1)) * (10**40 - r.randint(0, 1)))
    if kind == 2:
        a = _dense_rpoly(rng, terms)
        ends = (a.min_exp, a.max_exp)
        return RPoly({e: -abs(c) if e in ends else c for e, c in a.items()})
    span = rng.randint(1, 5 * terms)
    return rand_rpoly(rng, max_terms=terms, exp_range=(0, span), coeff_range=(-20, 20))


def _rand_mul_pair(rng: random.Random, i: int) -> Tuple[RPoly, RPoly]:
    kind = i % 7
    if kind < 4:
        return _rand_kronecker_operand(rng, kind), _rand_kronecker_operand(rng, rng.randrange(4))
    if kind == 4:
        # (1 + x + ... + x^(n-1)) g times (1 - x) h = (1 - x^n) g h: the
        # middle terms cancel to zero.
        n = rng.randint(20, 80)
        ones = RPoly({e: 1 for e in range(n)})
        g, h = _dense_rpoly(rng, rng.randint(1, 20)), _dense_rpoly(rng, rng.randint(15, 20))
        return rpoly_mul_oracle(ones, g), rpoly_mul_oracle(RPoly({0: 1, 1: -1}), h)
    if kind == 5:
        # one operand below the crossover
        small = _dense_rpoly(rng, rng.randint(1, laurent._KRONECKER_TERMS - 1))
        return small, _rand_kronecker_operand(rng, rng.randrange(4))
    # sparse operands whose gaps span up to 10^6
    a = rand_rpoly(rng, max_terms=40, exp_range=(-(10**6), 10**6), coeff_range=(-9, 9))
    return a, rand_rpoly(rng, max_terms=40, exp_range=(-(10**6), 10**6), coeff_range=(-9, 9))


def check_rpoly_mul_matches_oracle(cases: int, seed: int = SEED) -> None:
    """RPoly products, Kronecker and schoolbook, against the dict double
    loop; both methods must be taken."""
    rng = random.Random(seed)
    with counting(kronecker, "_kronecker_mul") as calls:
        for i in range(cases):
            a, b = _rand_mul_pair(rng, i)
            got = a * b
            assert got == rpoly_mul_oracle(a, b), (i, str(a), str(b))
            assert b * a == got
            assert_normalised(got)
    assert 0 < calls["_kronecker_mul"] < 2 * cases
    # Products with a 0 at every odd digit, from their own stream.
    rng = random.Random(seed + 1)
    for i in range(cases // 10):
        a, b = RPoly(_holed_bits(rng)), RPoly(_holed_bits(rng))
        got = a * b
        assert got == rpoly_mul_oracle(a, b), (i, str(a), str(b))
        assert_normalised(got)


def _rand_dense_row(rng: random.Random) -> RPoly:
    """A row of 0-40 terms, so on either side of the Kronecker crossover:
    consecutive exponents, or a random fill that may or may not be dense."""
    terms = rng.randint(0, 40)
    if terms and rng.random() < 0.7:
        return _dense_rpoly(rng, terms)
    lo = rng.randint(-20, 20)
    return rand_rpoly(rng, max_terms=terms, exp_range=(lo, lo + 3 * terms), coeff_range=(-9, 9))


def _rand_dense_spoly(rng: random.Random, degrees: Tuple[int, ...]) -> SPoly:
    """Up to two rows from _rand_dense_row, at y-degrees drawn from degrees."""
    return SPoly({rng.choice(degrees): _rand_dense_row(rng) for _ in range(rng.randint(0, 2))})


_EVEN, _ODD, _ANY = (-2, 0, 2), (-3, -1, 1, 3), tuple(range(-3, 4))


def check_spoly_dense_mul_matches_oracle(cases: int, seed: int = SEED) -> None:
    """SPoly products of rows with 0-40 terms against the group-algebra
    oracle.  The right operand's rows sit at even y-degrees (no row pair is
    twisted), at odd ones (every pair is) or anywhere, and the Kronecker
    branch must run both with and without sigma's flip.  Every fourth case
    cancels: (f - f) f, and (y + a)(y - sigma(a)) b = y^2 b - a sigma(a) b,
    whose y-row sums a plain and a flipped product of a and b to zero."""
    rng = random.Random(seed)
    zero = SPoly.zero()
    packed: Counter = Counter()
    for i in range(cases):
        kind = i % 4
        f = _rand_dense_spoly(rng, _ANY)
        if kind < 3:
            g = _rand_dense_spoly(rng, (_EVEN, _ODD, _ANY)[kind])
            with counting(kronecker, "_kronecker_mul") as calls:
                got = f * g
            packed[kind] += calls["_kronecker_mul"]
            assert got == spoly_mul_oracle(f, g), (i, str(f), str(g))
        else:
            a, b = _rand_dense_row(rng), _rand_dense_row(rng)
            sa_b = rpoly_mul_oracle(a.sigma(), b)
            got = SPoly({1: RPoly.one(), 0: a}) * SPoly({1: b, 0: -sa_b})
            assert got == SPoly({2: b, 0: -rpoly_mul_oracle(a, sa_b)}), (i, str(a), str(b))
            assert_cancelled(((f - f) * f, f * (f - f)), zero)
        assert_normalised(got)
    assert packed[0] and packed[1], packed
    # Rows on even exponents, so each Kronecker product has a 0 at every
    # odd digit, and a row that such products cancel to empty:
    # (y + a)(y*b - sigma(a)*b) has no y-row.  Their own stream.
    rng = random.Random(seed + 1)
    for i in range(cases // 10):
        a, b = RPoly(_holed_bits(rng)), RPoly(_holed_bits(rng))
        f = SPoly({rng.randint(-3, 3): a, rng.randint(-3, 3): RPoly(_holed_bits(rng))})
        g = SPoly({rng.randint(-3, 3): b})
        got = f * g
        assert got == spoly_mul_oracle(f, g), (i, str(f), str(g))
        assert_normalised(got)
        sa_b = rpoly_mul_oracle(a.sigma(), b)
        got = SPoly({1: RPoly.one(), 0: a}) * SPoly({1: b, 0: -sa_b})
        assert got == SPoly({2: b, 0: -rpoly_mul_oracle(a, sa_b)}), (i, str(a), str(b))
        assert_normalised(got)


def check_divide_dense_twists(cases: int, seed: int = SEED) -> None:
    """divide by twists of 1-40 terms recomposes, with the product taken by
    the group-algebra oracle; the Kronecker branch must run."""
    rng = random.Random(seed)
    with counting(kronecker, "_kronecker_mul") as calls:
        for i in range(cases):
            twist = _rand_dense_row(rng) or RPoly.monomial(rng.randint(-5, 5), rng.choice((1, -1)))
            f = _rand_dense_spoly(rng, _ANY)
            q, d, rem = divide(f, twist)
            assert spoly_mul_oracle(y_plus_s(twist), q) + SPoly({d: rem}) == f, (i, str(f), str(twist))
            assert_normalised(q)
    assert calls["_kronecker_mul"]


def unit_divide_reference(f: SPoly, s: RPoly) -> Tuple[Tuple[SPoly, int, RPoly], Counter]:
    """divide(f, s) for a one-term s by the plain one-step recursion on
    RPolys: row_top = f_top, row_k = f_k - sigma^k(s) * row_(k+1) and
    q_k = row_(k+1), down to row_d, d = min_degree(f).  When row_k is
    zero every row below is f's own down to f's next row, where the walk
    goes on.  Returns that, and how many steps walks._walk's rule for a
    unit s takes in each form: "two-step" when row_(k+2) is nonzero and
    f_(k+1) has fewer than half the terms of row_(k+1), else "one-step";
    "jump" counts the zero rows."""
    if f.is_zero():
        return (SPoly.zero(), 0, RPoly.zero()), Counter()
    forms: Counter = Counter()
    keys = sorted(f._rows)
    d, k = keys[0], keys[-1]
    above, row = RPoly.zero(), f.row(k)
    q = {}
    while k > d:
        if not row:
            forms["jump"] += 1
            k = max(m for m in keys if m < k)
            above, row = RPoly.zero(), f.row(k)
            continue
        q[k - 1] = row
        two_step = above and 2 * len(f.row(k)._coeffs) < len(row._coeffs)
        forms["two-step" if two_step else "one-step"] += 1
        above, row = row, f.row(k - 1) - _sigma_power(s, k - 1) * row
        k -= 1
    return (SPoly(q), d, row), forms


# The nonzero coefficients of absolute value up to 9.
_SMALL_COEFFS = (*range(-9, 0), *range(1, 10))


def _unit_walk_rows(rng: random.Random, span: int, wide: bool) -> Dict[int, RPoly]:
    """Rows over span + 1 y-degrees, each present with probability 0.8:
    one to three terms from the exponents -3..3, or 20-25 terms from
    -12..12, so that the rows of a wide f nearly share one support."""
    lo, hi, terms = (-12, 12, (20, 25)) if wide else (-3, 3, (1, 3))
    base = rng.randint(-5, 5)
    return {
        m: RPoly({e: rng.choice(_SMALL_COEFFS) for e in rng.sample(range(lo, hi + 1), rng.randint(*terms))})
        for m in range(base, base + span + 1) if rng.random() < 0.8
    }


def check_unit_walk(cases: int, seed: int = SEED) -> Counter:
    """divide by a unit s = +-x^e against unit_divide_reference, by kind:

    0  f with rows of one to three terms from a narrow exponent window,
       over a y-span drawn log-uniformly from 1 to 1000;
    1  f with rows of 20-25 terms from a wide window, which nearly share
       one support, over a y-span drawn log-uniformly from 1 to 100;
    2  f = (y + s) * q + y^d * c, built by spoly_mul_oracle, with q's two
       or three rows and d up to 10^6 y-degrees apart, which must give
       back (q, d, c).

    e is 0 in a third of the cases, and the sign is drawn.  Every quotient and
    remainder passes assert_normalised.  Returns the forms the reference
    counted, per kind, and how many cases met each e and sign.
    """
    rng = random.Random(seed)
    seen: Counter = Counter()
    for i in range(cases):
        kind = i % 3
        e = 0 if rng.random() < 1 / 3 else rng.choice((1, -1)) * rng.randint(1, 6)
        u = rng.choice((1, -1))
        s = RPoly.monomial(e, u)
        if kind < 2:
            span = int(10 ** rng.uniform(0, 3 if kind == 0 else 2))
            f = SPoly(_unit_walk_rows(rng, span, wide=kind == 1))
            want = None
            seen["span >= 500"] += span >= 500
        else:
            degrees = [0]
            for _ in range(rng.randint(1, 2)):
                degrees.append(degrees[-1] - rng.choice((1, 2, 3, 60, rng.randint(2, 10**6))))
            q = SPoly({m: rand_rpoly(rng, nonzero=True) for m in degrees})
            f = spoly_mul_oracle(y_plus_s(s), q)
            d, c = f.min_degree, RPoly.zero()
            if rng.random() < 0.5:
                d, c = d - rng.choice((1, 2, rng.randint(1, 10**6))), rand_rpoly(rng, nonzero=True)
                f = f + SPoly({d: c})
            want = (q, d, c)
        got = divide(f, s)
        reference, forms = unit_divide_reference(f, s)
        assert got == reference, (i, str(f), str(s))
        assert want is None or got == want, (i, str(f), str(s))
        assert_normalised(got.quotient)
        assert_normalised(got.remainder)
        seen.update({f"kind {kind} {form}": n for form, n in forms.items()})
        seen["e = 0" if e == 0 else "e != 0"] += 1
        seen["s = %sx^e" % ("" if u > 0 else "-")] += 1
    return seen


def _rand_one_term_row(rng: random.Random) -> RPoly:
    """c*x^e with c = +-1 half the time, else 2 <= |c| <= 10^12."""
    c = 1 if rng.random() < 0.5 else rng.randint(2, 10**12)
    return RPoly.monomial(rng.randint(-6, 6), rng.choice((1, -1)) * c)


def _sigma_power(a: RPoly, p: int) -> RPoly:
    return a.sigma() if p % 2 else a


def check_one_term_rows(cases: int, seed: int = SEED) -> Counter:
    """The one-term paths of SPoly products and of divide, by kind:

    0  f of one to four one-term rows times a random g, against
       spoly_mul_oracle;
    1  f = y^(k+1)*a + y^k*s with one-term a and s, times
       g = y^p*sigma^(p-1)(a)*w - y^(p-1)*sigma^p(s)*w, whose y^(k+p) row
       cancels to empty (the products in g are the oracle's);
    2  divide by a one-term s, recomposed by spoly_mul_oracle;
    3  divide f = (y + s)*q + y^d*c, built by the oracle, which must give
       back (q, d, c) as its rows cancel step by step.

    Coefficients are +-1 or of up to 10^12, and y-degrees of both
    parities, so sigma flips some row pairs and not others.  Returns how
    many cases met each class; every result passes assert_normalised.
    """
    rng = random.Random(seed)
    seen: Counter = Counter()
    for i in range(cases):
        kind = i % 4
        s = _rand_one_term_row(rng)
        if kind == 0:
            f = SPoly({rng.randint(-4, 4): _rand_one_term_row(rng) for _ in range(rng.randint(1, 4))})
            g = rand_spoly(rng, nonzero=True, max_rows=4, deg_range=(-4, 4))
            got = f * g
            assert got == spoly_mul_oracle(f, g), (i, str(f), str(g))
            seen.update("%s p" % ("odd" if p % 2 else "even") for p in g._rows)
        elif kind == 1:
            a, w = _rand_one_term_row(rng), rand_rpoly(rng, nonzero=True)
            k, p = rng.randint(-3, 3), rng.randint(-3, 3)
            f = SPoly({k + 1: a, k: s})
            g = SPoly({p: rpoly_mul_oracle(_sigma_power(a, p - 1), w),
                       p - 1: -rpoly_mul_oracle(_sigma_power(s, p), w)})
            got = f * g
            assert got == spoly_mul_oracle(f, g), (i, str(f), str(g))
            assert k + p not in got._rows and len(got._rows) == 2, (i, str(f), str(g))
            seen["cancelled row, %s p" % ("odd" if p % 2 else "even")] += 1
        elif kind == 2:
            f = rand_spoly(rng, max_rows=5, deg_range=(-5, 5))
            got, d, rem = divide(f, s)
            assert spoly_mul_oracle(y_plus_s(s), got) + SPoly({d: rem}) == f, (i, str(f), str(s))
            assert not f or d == f.min_degree
            assert_normalised(rem)
        else:
            q = rand_spoly(rng, nonzero=True, max_rows=5, deg_range=(-5, 5))
            f = spoly_mul_oracle(y_plus_s(s), q)
            d, c = f.min_degree, RPoly.zero()
            if rng.random() < 0.5:
                d, c = d - rng.randint(1, 3), rand_rpoly(rng, nonzero=True)
                f = f + SPoly({d: c})
            got = divide(f, s)
            assert got == (q, d, c), (i, str(f), str(s))
            got = got.quotient
        assert_normalised(got)
        seen["c = +-1" if s.is_unit() else "|c| > 1"] += 1
    return seen


def _rand_safety_row(rng: random.Random) -> RPoly:
    """A nonzero row for check_operands_unchanged: the constant 1, a unit,
    a one-term non-unit, a few terms, or a dense row on the Kronecker path."""
    kind = rng.randrange(5)
    if kind == 0:
        return RPoly.one()
    if kind < 3:
        return RPoly.monomial(rng.randint(-6, 6), rng.choice((1, -1)) * (1 if kind == 1 else rng.randint(2, 9)))
    if kind == 3:
        return rand_rpoly(rng, nonzero=True, max_terms=5)
    return _dense_rpoly(rng, rng.randint(laurent._KRONECKER_TERMS, 30))


def _rand_safety_rows(rng: random.Random) -> Dict[int, RPoly]:
    return {rng.randint(-3, 3): _rand_safety_row(rng) for _ in range(rng.randint(1, 3))}


# Results larger than this are not fed back, so operands stay small.
_SAFETY_MAX_TERMS = 400


def _safety_terms(value) -> int:
    if isinstance(value, SPoly):
        return sum(map(len, value._rows.values()))
    return len(value._coeffs)


def check_operands_unchanged(cases: int, seed: int = SEED) -> Counter:
    """SPoly products and sums, divide, in_V, quotient, parse_spoly, the
    RPoly operators and the SPoly constructors leave their operands as
    they were.

    An SPoly's rows are coefficient dicts that it may share with RPolys
    and with other SPolys, so a walk that writes a row it did not create
    changes values far from its operands.  Operands are drawn from two
    pools, of SPolys and of RPolys, which start with y + s for unit and
    non-unit s, SPoly.one(), one-term rows with coefficients of absolute
    value over 1 and random elements.  Every result joins its pool, and
    so does every RPoly an SPoly is built from (by SPoly(...),
    SPoly.from_rpoly, y_plus_s or StaffordInstance) and every RPoly that
    row() and rows() hand back, so shared dicts come back as operands: a
    result that shares a dict with an operand, or a call that writes a
    dict it only reads, shows up.  After each call every operand equals
    the deep copy taken before it, and every result passes
    assert_normalised; at the end every value ever pooled equals the deep
    copy taken when it joined.  Returns how many calls each operation
    made.
    """
    rng = random.Random(seed)
    spolys: List[SPoly] = []
    rpolys: List[RPoly] = []
    pooled = []

    def join(*values) -> None:
        # Zero RPolys stay out: divide, in_V and quotient take nonzero ones.
        for v in values:
            assert_normalised(v)
            if (v or isinstance(v, SPoly)) and _safety_terms(v) <= _SAFETY_MAX_TERMS:
                (spolys if isinstance(v, SPoly) else rpolys).append(v)
                pooled.append((v, copy.deepcopy(v)))

    def built(rows: Dict[int, RPoly]) -> SPoly:
        join(*rows.values())
        return SPoly(rows)

    s_values = RPoly.monomial(-1, -1), rand_rpoly(rng, nonzero=True), RPoly.monomial(2, -3)
    join(RPoly.one(), RPoly.monomial(2, -1), RPoly.monomial(-3, 5), *s_values)
    join(SPoly.one(), *map(y_plus_s, s_values), built({1: RPoly.monomial(-1, 4), 0: RPoly.monomial(3, -7)}))
    join(*(built(_rand_safety_rows(rng)) for _ in range(6)), *(_rand_safety_row(rng) for _ in range(6)))
    ops: Counter = Counter()
    kinds = ("spoly_mul", "spoly_add", "divide", "in_V", "quotient", "parse_spoly", "rpoly_ops", "spoly_build")
    for i in range(cases):
        op = kinds[i % len(kinds)]
        f, g = rng.choice(spolys), rng.choice(spolys)
        a, b = rng.choice(rpolys), rng.choice(rpolys)
        if rng.random() < 0.2:
            f, g = built(_rand_safety_rows(rng)), built(_rand_safety_rows(rng))
        operands = (f, g, a, b)
        before = copy.deepcopy(operands)
        if op == "spoly_mul":
            results = (f * g, g * f, y_plus_s(a) * f)
        elif op == "spoly_add":
            results = (f + g, f - g, f - f, -f)
        elif op == "divide":
            q, _, rem = divide(f, a)
            results = (q, rem)
        elif op == "in_V":
            in_V(f, StaffordInstance(a, b))
            results = ()
        elif op == "quotient":
            results = tuple(r for r in (quotient(a, b), quotient(a, a * b)) if r is not None)
        elif op == "parse_spoly":
            results = (parse_spoly(str(f)),)
            assert results[0] == f, (i, str(f))
        elif op == "rpoly_ops":
            results = (a * b, a + b, a - b, -a, a.sigma(), a.shift(3))
        else:
            m = rng.randint(-3, 3)
            inst = StaffordInstance.from_factors((SPoly.from_rpoly(b), y_plus_s(a)))
            assert inst == StaffordInstance(b, a), (i, str(a), str(b))
            results = (
                SPoly({m: a, m + 1: b}), SPoly.from_rpoly(a, m), y_plus_s(b), inst.r, inst.s,
                f.row(m), *(row for _, row in g.rows()),
            )
        assert operands == before, (i, op, [str(v) for v in before])
        join(*results)
        ops[op] += 1
    for v, snapshot in pooled:
        assert v == snapshot, str(snapshot)
    return ops


def _outgrown_quotient(rng: random.Random) -> Tuple[RPoly, RPoly]:
    """a = (1 - x)^4 g and b = (1 - x^M)^4 g, M from 6 to 60, so b / a
    is (1 + x + ... + x^(M-1))^4.  b's coefficients stay within 6 max|g|,
    while the quotient's reach about (2/3) M^3: too wide for the no-carry
    bound at every M, and for the digit width that b sets from M = 38 or
    so."""
    m = rng.randint(6, 60)
    g = _dense_rpoly(rng, 16, lambda r: r.choice((1, -1)) * r.randint(1, 3), shift=0)

    def quartic(step: int) -> RPoly:  # (1 - x^step)^4
        return RPoly({k * step: c for k, c in enumerate((1, -4, 6, -4, 1))})

    return rpoly_mul_oracle(g, quartic(1)), rpoly_mul_oracle(g, quartic(m))


def _at_one(a: RPoly) -> int:
    return sum(c for _, c in a.items())


def _screened_monomial(rng: random.Random, a: RPoly, e: int) -> RPoly:
    """+-a(1)*x^e, or +-x^e when a(1) = 0: added to a multiple of a, it
    keeps a(1) | b(1), so evaluation at 1 lets the sum through to a
    division."""
    return RPoly.monomial(e, rng.choice((1, -1)) * (_at_one(a) or 1))


def _rand_quotient_pair(rng: random.Random, i: int) -> Tuple[RPoly, RPoly]:
    kind = i % 7
    if kind < 3:
        a = _rand_kronecker_operand(rng, kind)
        c = _rand_kronecker_operand(rng, rng.randrange(4))
        return a, rpoly_mul_oracle(a, c)
    if kind == 3:
        # a * c plus a monomial just outside it, or anywhere, that the
        # evaluation screen passes
        a, c = _rand_kronecker_operand(rng, rng.randrange(3)), _dense_rpoly(rng, rng.randint(16, 60))
        b = rpoly_mul_oracle(a, c)
        e = rng.choice((b.min_exp - 1, b.max_exp + 1, rng.randint(b.min_exp, b.max_exp)))
        return a, b + _screened_monomial(rng, a, e)
    if kind == 4:
        return _outgrown_quotient(rng)
    if kind == 5:
        # one side below the crossover: long division
        a = _dense_rpoly(rng, rng.randint(1, 40))
        c = _dense_rpoly(rng, rng.randint(1, 2 * laurent._KRONECKER_TERMS))
        b = rpoly_mul_oracle(a, c)
        return a, b if rng.random() < 0.5 else b + _screened_monomial(rng, a, rng.randint(-50, 50))
    # sparse, wide gaps: x^k - 1 against products of sparse operands
    a = RPoly({0: -1, rng.randint(1, 10**4): 1}) if rng.random() < 0.5 else rand_rpoly(
        rng, nonzero=True, exp_range=(-(10**5), 10**5)
    )
    c = rand_rpoly(rng, max_terms=20, exp_range=(-(10**6), 10**6))
    b = rpoly_mul_oracle(a, c)
    return a, b if rng.random() < 0.5 else b + _screened_monomial(rng, a, rng.randint(-(10**6), 10**6))


def _far_exponent(rng: random.Random) -> int:
    """A unit's exponent far from 0, of either sign: up to 10^6, and one
    in twenty about 10^18."""
    if rng.random() < 0.05:
        return rng.choice((1, -1)) * 10**18 + rng.randint(-50, 50)
    return rng.randint(-(10**6), 10**6)


def quotient_path(a: RPoly, b: RPoly) -> Tuple[Optional[RPoly], str]:
    """quotient(a, b) and the path that answered it, with the proof a
    shortcut rests on checked here from the operands alone:

    - "zero": b = 0, whose quotient is 0;
    - "span": no division, and span(b) <= span(a);
    - "screen": None with no division, a(1) != 0 and a(1) not dividing b(1);
    - "bound": a Kronecker candidate returned with no product, and
      max|a| * max|q| * min(terms) under the half-range of the digit
      width the quotient packed at;
    - "integer": None from the Kronecker path, a(N) not dividing b(N);
    - "checked": a candidate multiplied back and returned;
    - "fallback": long division after the Kronecker path, with
      "multiplied back" added to the path when a candidate failed the
      product first;
    - "long": long division alone."""
    with recording_widths() as widths, counting(kronecker, "_kronecker_quotient", "_mul_into") as packed, counting(
        longdiv, "_long_quotient"
    ) as long:
        got = quotient(a, b)
    if long["_long_quotient"]:
        if not packed["_kronecker_quotient"]:
            return got, "long"
        return got, "fallback, multiplied back" if packed["_mul_into"] else "fallback"
    if packed["_mul_into"]:
        return got, "checked"
    if packed["_kronecker_quotient"]:
        if got is None:
            return got, "integer"
        [(_, _, width)] = widths
        terms = min(len(a.items()), len(got.items()))
        bound = max(abs(c) for _, c in a.items()) * max(abs(c) for _, c in got.items()) * terms
        assert bound < 1 << (8 * width - 1), (str(a), str(b), width)
        return got, "bound"
    if b.is_zero():
        return got, "zero"
    if b.max_exp - b.min_exp <= a.max_exp - a.min_exp:
        return got, "span"
    assert got is None and _at_one(a) and _at_one(b) % _at_one(a), (str(a), str(b))
    return got, "screen"


def check_quotient_matches_oracle(cases: int, seed: int = SEED, far: bool = False) -> Counter:
    """quotient against the dict long division.  With far, each operand is
    first multiplied by a unit x^k of _far_exponent, so the lowest
    exponents sit far from 0 and from each other.  Each case is counted
    by its quotient_path; "long", "integer", "bound", "checked" and
    "fallback" must all be taken.  The counts are returned, with "10^18",
    the cases that had an operand that far out."""
    rng = random.Random(seed)
    paths: Counter = Counter()
    for i in range(cases):
        a, b = _rand_quotient_pair(rng, i)
        if far:
            ka, kb = _far_exponent(rng), _far_exponent(rng)
            a, b = a.shift(ka), b.shift(kb)
            paths["10^18"] += max(abs(ka), abs(kb)) > 10**17
        got, path = quotient_path(a, b)
        assert got == poly_quotient_oracle(a, b), (i, str(a), str(b))
        paths[path.split(",")[0]] += 1
    assert all(paths[p] for p in ("long", "integer", "bound", "checked", "fallback")), paths
    return paths


def _rand_span_pair(rng: random.Random, i: int) -> Tuple[RPoly, RPoly]:
    """b with span(b) <= span(a), for check_quotient_shortcuts_match_oracle:
    c*x^k*a, or that with one coefficient moved or one term added inside
    the span, or b of a smaller span, over random, unit, a(1) = 0 and
    Kronecker-size a; and the content case 2x + 2 over x + 1, both ways."""
    kind = i % 8
    if kind == 7:
        pair = (RPoly({1: 1, 0: 1}), RPoly({1: 2, 0: 2}))
        return pair if rng.random() < 0.5 else pair[::-1]
    if kind == 0:
        a = RPoly.monomial(rng.randint(-9, 9), rng.choice((1, -1)))
    elif kind == 1:
        a = rpoly_mul_oracle(RPoly({1: 1, 0: -1}), rand_rpoly(rng, nonzero=True, exp_range=(-6, 6)))
    elif kind == 2:
        a = _rand_kronecker_operand(rng, rng.randrange(3))
    else:
        a = rand_rpoly(rng, nonzero=True, max_terms=6, exp_range=(-9, 9), coeff_range=(-9, 9))
    k, c = rng.randint(-50, 50), rng.choice((1, -1)) * rng.randint(1, 12)
    b = {e + k: c * v for e, v in a.items()}
    move = rng.randrange(4)
    if move == 1:
        e = rng.choice(list(b))
        b[e] += rng.choice((1, -1)) * rng.randint(1, 5)
    elif move == 2:
        e = rng.randint(min(b), max(b))
        b[e] = b.get(e, 0) + rng.choice((1, -1)) * rng.randint(1, 5)
    elif move == 3 and a.max_exp > a.min_exp:
        b = rand_rpoly(rng, nonzero=True, exp_range=(0, a.max_exp - a.min_exp - 1))._coeffs
    return a, RPoly(b) or RPoly.monomial(k)


def _rand_screen_pair(rng: random.Random, i: int) -> Tuple[RPoly, RPoly]:
    """b = a*c + m*x^e with a(1) not in {0, 1, -1}, m not a multiple of
    a(1), and span(c) >= 2, so span(b) > span(a) and a(1) does not divide
    b(1); a small or of Kronecker size, with negative exponents."""
    while True:
        if i % 2:
            a = _dense_rpoly(rng, rng.randint(laurent._KRONECKER_TERMS, 40), shift=rng.randint(-40, 0))
        else:
            a = rand_rpoly(rng, nonzero=True, max_terms=5, exp_range=(-9, 9), coeff_range=(-9, 9))
        if abs(_at_one(a)) > 1:
            break
    c = _dense_rpoly(rng, rng.randint(3, 40), shift=rng.randint(-20, 20))
    b = rpoly_mul_oracle(a, c)
    m = rng.choice((1, -1)) * rng.randint(1, abs(_at_one(a)) - 1)
    return a, b + RPoly.monomial(rng.randint(b.min_exp + 1, b.max_exp - 1), m)


def _rand_bound_pair(rng: random.Random) -> Tuple[RPoly, RPoly]:
    """a and a*c, dense with at least _KRONECKER_TERMS terms each, c
    spanning at least as many exponents, coefficients of up to 70 bits
    or at a byte edge, negative exponents.  The leading coefficients of a
    and c are their largest in absolute value, so b's leading one is
    max|a| * max|c|, and the width that b sets meets the no-carry bound."""

    def operand(terms: int) -> RPoly:
        if rng.random() < 0.3:
            coeffs = _rand_kronecker_operand(rng, 0)._coeffs
        else:
            coeffs = _dense_bits(rng, terms, rng.choice((3, 7, 15, 31, 70)), rng.randint(-60, 10))
        top = max(coeffs)
        coeffs = dict(coeffs)
        coeffs[top] = rng.choice((1, -1)) * max(map(abs, coeffs.values()))
        return RPoly(coeffs)

    a = operand(rng.randint(laurent._KRONECKER_TERMS, 40))
    return a, rpoly_mul_oracle(a, operand(rng.randint(laurent._KRONECKER_TERMS, 40)))


def check_quotient_shortcuts_match_oracle(cases: int, seed: int = SEED) -> Counter:
    """Each shortcut of quotient against poly_quotient_oracle, one family
    of cases per path, drawn in turn: the equal-span quotient
    (_rand_span_pair), the evaluation screen's None (_rand_screen_pair),
    the Kronecker candidate accepted by the no-carry bound
    (_rand_bound_pair), and the candidate multiplied back
    (_outgrown_quotient, where a(1) = 0), which is returned or,
    when it fails, handed to long division.  Each family must take its
    path, with the proof quotient_path checks.  Returns the paths taken,
    with "span None", "span c" and "a(1) = 0" counted too."""
    rng = random.Random(seed)
    paths: Counter = Counter()
    for i in range(cases):
        family = i % 4
        if family == 0:
            a, b = _rand_span_pair(rng, i // 4)
        elif family == 1:
            a, b = _rand_screen_pair(rng, i // 4)
        elif family == 2:
            a, b = _rand_bound_pair(rng)
        else:
            a, b = _outgrown_quotient(rng)
            while len(a.items()) < laurent._KRONECKER_TERMS:  # a zero in (1 - x)^4 g
                a, b = _outgrown_quotient(rng)
        got, path = quotient_path(a, b)
        assert got == poly_quotient_oracle(a, b), (i, str(a), str(b))
        assert path.startswith(("span", "screen", "bound", ("checked", "fallback, multiplied back"))[family]), (i, path)
        paths[path] += 1
        paths["a(1) = 0"] += family == 0 and not _at_one(a)
        if family == 0:
            paths["span None" if got is None else "span c"] += 1
    return paths


def mul_into_oracle(out: Dict[int, int], a: Dict[int, int], b: Dict[int, int], flip: int, sign: int) -> Dict[int, int]:
    """out + sign * a(x^flip) * b by the dict double loop, zeros dropped;
    the kernel itself has no sign, and is handed -a for sign -1."""
    res = dict(out)
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = flip * e1 + e2
            res[e] = res.get(e, 0) + sign * c1 * c2
    return {e: c for e, c in res.items() if c}


def _dense_bits(rng: random.Random, terms: int, bits: int, shift: Optional[int] = None) -> Dict[int, int]:
    """A _dense_rpoly of terms terms with coefficients of up to bits bits, as a dict."""
    return _dense_rpoly(rng, terms, lambda r: r.choice((1, -1)) * r.randint(1, 1 << bits), shift)._coeffs


def _holed_bits(rng: random.Random, bits: int = 6) -> Dict[int, int]:
    """A dense operand on even exponents only, of at least
    _KRONECKER_TERMS terms: a product of two has a 0 at every odd digit."""
    coeffs = _dense_bits(rng, rng.randint(laurent._KRONECKER_TERMS, 30), bits)
    return {2 * e: c for e, c in coeffs.items()}


def _rand_one_term(rng: random.Random) -> Dict[int, int]:
    """A one-term operand, as RPoly products by a unit hand the kernel;
    one in four is the constant 1."""
    if rng.random() < 0.25:
        return {0: 1}
    coeff = rng.choice((1, -1, rng.randint(-9, 9) or 2, rng.randint(-(1 << 70), 1 << 70) or 3))
    return {rng.randint(-30, 30): coeff}


def _rand_kernel_case(rng: random.Random, kind: int):
    """(out, a, b) for check_mul_into_matches_oracle, by kind: a one-term a
    with 0 an empty out (half of these swapped, so b has the one term),
    1 one smaller than b, 2 one at least as large; 3 small operands; 4
    dense operands whose digit width is drawn from 1 to 13 bytes, with an
    empty or a dense out.  out holds no zero, as no caller's out does."""
    if kind < 3:
        a, b = _rand_one_term(rng), rand_rpoly(rng, max_terms=30, coeff_range=(-50, 50))._coeffs
        size = (0, rng.randint(1, max(len(b) - 1, 1)), len(b) + rng.randint(0, 5))[kind]
        out = {rng.randint(-40, 40): rng.randint(-9, 9) for _ in range(size)}
        out = {e: c for e, c in out.items() if c}
        if kind == 0 and rng.random() < 0.5:
            return out, b, a
        return (out if kind != 1 or len(out) < len(b) else {}), a, b
    if kind == 3:
        a = rand_rpoly(rng, max_terms=laurent._KRONECKER_TERMS - 1)._coeffs
        return rand_rpoly(rng)._coeffs, a, rand_rpoly(rng, max_terms=30)._coeffs
    a = _dense_bits(rng, rng.randint(laurent._KRONECKER_TERMS, 40), rng.randint(0, 90))
    b = _dense_bits(rng, rng.randint(laurent._KRONECKER_TERMS, 40), rng.randint(0, 6))
    out = _dense_bits(rng, rng.randint(1, 80), rng.randint(0, 90), rng.randint(-60, 0)) if rng.random() < 0.3 else {}
    return out, a, b


@contextlib.contextmanager
def recording_widths() -> Iterator[Counter]:
    """Count the (caller, digit width, rounded width) triples of the
    kronecker._item_width calls made while the block runs: one per Kronecker
    product (_kronecker_mul) or quotient (_kronecker_quotient)."""
    calls: Counter = Counter()
    item_width = kronecker._item_width

    def record(width: int) -> int:
        calls[sys._getframe(1).f_code.co_name, width, item_width(width)] += 1
        return item_width(width)

    kronecker._item_width = record
    try:
        yield calls
    finally:
        kronecker._item_width = item_width


def _roundings(calls: Counter, caller: str) -> set:
    """Which roundings caller made: 3 to 4 bytes, 5-7 to 8, over 8 kept."""
    return {cls for (name, w, used) in calls if name == caller for cls, hit in (
        ("3->4", (w, used) == (3, 4)), ("5-7->8", 5 <= w <= 7 and used == 8), (">8 kept", w > 8 and used == w),
    ) if hit}


def check_mul_into_matches_oracle(cases: int, seed: int = SEED) -> Counter:
    """laurent._mul_into against mul_into_oracle for flip and sign +-1,
    sign -1 by handing the kernel -a, as division's steps by a
    several-term s do.  The returned dict is never a or b, and a or b is
    never written.  Every third case sets out to minus the product, or
    minus a part of it, so the sum cancels to zero wholly or partly.
    a = {0: 1} is counted by flip, sign and whether out has fewer terms
    than b.  Every fifth case is a dense pair whose digit width rounds up
    to an array item size or exceeds 8 bytes, with coefficients up to
    2^90.  Then, in the same widths, exact quotients a * c / a and
    products plus a monomial, whose quotient is None, against
    poly_quotient_oracle.  The monomial keeps a(1) | b(1), so that
    evaluation at 1 lets each None through to the Kronecker quotient,
    counted as "quotient None, packed".  The Kronecker product and quotient must each
    round 3 bytes to 4 and 5-7 to 8, and keep a width over 8.  Returns
    how many cases fell in each class."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    with recording_widths() as calls:
        for i in range(cases):
            kind = i % 5
            out, a, b = _rand_kernel_case(rng, kind)
            flip, sign = rng.choice((1, -1)), rng.choice((1, -1))
            if i % 3 == 0:
                product = mul_into_oracle({}, a, b, flip, -sign)
                part = rng.random() < 0.5
                out = {e: c for e, c in product.items() if not part or rng.random() < 0.5}
                seen["cancel"] += 1
            want = mul_into_oracle(out, a, b, flip, sign)
            signed = a if sign > 0 else {e: -c for e, c in a.items()}
            before, a_before, b_before = dict(out), dict(signed), dict(b)
            got = laurent._mul_into(out, signed, b, flip)
            assert got is not signed and got is not b, (i, before, a, b, flip, sign)
            assert signed == a_before and b == b_before, (i, before, a_before, b_before, flip, sign)
            assert got == want, (i, before, a, b, flip, sign)
            seen["zero" if not want else "kind %d" % kind] += 1
            seen["one-term b, flip %+d" % flip] += len(b) == 1 < len(a) and not before
            if a == {0: 1}:
                seen["a = 1, flip %+d, sign %+d, out %s b" % (flip, sign, "<" if len(before) < len(b) else ">=")] += 1
            seen["kind 4, a coefficient >= 2^63"] += kind == 4 and max(map(abs, a.values())) >= 1 << 63
        for i in range(cases // 5):
            a = RPoly(_dense_bits(rng, rng.randint(laurent._KRONECKER_TERMS, 40), rng.randint(0, 90)))
            c = RPoly(_dense_bits(rng, rng.randint(laurent._KRONECKER_TERMS, 40), rng.randint(0, 6)))
            seen["quotient, a coefficient >= 2^63"] += max(map(abs, a._coeffs.values())) >= 1 << 63
            b = rpoly_mul_oracle(a, c)
            if i % 2:
                b = b + _screened_monomial(rng, a, rng.randint(b.min_exp, b.max_exp + 1))
            with counting(kronecker, "_kronecker_quotient") as packed:
                got = quotient(a, b)
            assert got == poly_quotient_oracle(a, b), (i, str(a), str(b))
            seen["quotient" if got is not None else "quotient None"] += 1
            seen["quotient None, packed"] += got is None and packed["_kronecker_quotient"]
    for caller in ("_kronecker_mul", "_kronecker_quotient"):
        assert _roundings(calls, caller) == {"3->4", "5-7->8", ">8 kept"}, (caller, calls)
    # Kronecker digits that come out 0, written into an empty out and into
    # a dense one, must not be returned.  Their own stream, so the cases
    # above stay as they were.
    rng = random.Random(seed + 1)
    with counting(kronecker, "_kronecker_mul") as packed:
        for i in range(cases // 5):
            a, b, flip = _holed_bits(rng, rng.randint(0, 90)), _holed_bits(rng), rng.choice((1, -1))
            out = _dense_bits(rng, rng.randint(1, 80), rng.randint(0, 9), rng.randint(-60, 0)) if i % 2 else {}
            got = laurent._mul_into(dict(out), a, b, flip)
            assert got == mul_into_oracle(out, a, b, flip, 1), (i, out, a, b, flip)
            seen["zero digits, %s out" % ("dense" if out else "empty")] += 1
    assert packed["_kronecker_mul"] == cases // 5, packed
    return seen


def check_single_degree_span(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    s = builtin.stafford_instance().s
    for _ in range(cases):
        q = rand_spoly(rng, nonzero=True)
        assert (y_plus_s(s) * q).span() >= 1


@functools.cache
def check_v_right_module(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    inst = builtin.stafford_instance()
    w1, w2 = witnesses(inst)
    for _ in range(cases):
        v = w1 * rand_spoly(rng, max_rows=2) + w2 * rand_spoly(rng, max_rows=2)
        assert in_V(v, inst)
        assert in_V(v * rand_spoly(rng, max_rows=2), inst)


def _rand_stafford_instance(rng: random.Random, kind: int) -> StaffordInstance:
    """(r, s) by kind: 0 random, 1 r dividing s, 2 a unit r, 3 a
    palindromic r, whose sigma(r) is r times a monomial."""
    r, s = rand_rpoly(rng, nonzero=True), rand_rpoly(rng, nonzero=True)
    if kind == 1:
        s = rpoly_mul_oracle(r, rand_rpoly(rng, nonzero=True, max_terms=3))
    elif kind == 2:
        r = RPoly.monomial(rng.randint(-5, 5), rng.choice((1, -1)))
    elif kind == 3:
        half = [rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 4))]
        r = RPoly(dict(enumerate(half + half[-2::-1], rng.randint(-4, 4))))
    return StaffordInstance(r, s)


def check_closed_form_witnesses(cases: int, seed: int = SEED) -> Counter:
    """stafford_verdict and monic_witness on instances of the four kinds
    of _rand_stafford_instance, in turn.  The degree-1 element is
    y*r + s*sigma(r), with the product taken by rpoly_mul_oracle, and
    monic_witness is the verdict's monic element.  Each element v comes
    with the quotient q of its closed form, and r*v == (y + s)*q is
    checked with spoly_mul_oracle; each element also passes in_V, whose
    long division is the independent membership oracle.  witnesses_ok
    equals condition_ii, which equals poly_quotient_oracle's answer to
    whether r divides s*sigma(r), and the monic element has y-degree 1
    exactly when condition (ii) fails.  Returns how many cases had
    condition (ii) true and false, per kind; each kind must reach false,
    and kind 0 true."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for i in range(cases):
        kind = i % 4
        inst = _rand_stafford_instance(rng, kind)
        r, s = inst.r, inst.s
        verdict = stafford_verdict(inst, None)
        degree_one, monic = verdict.degree_one, verdict.monic
        assert degree_one == SPoly({1: r, 0: rpoly_mul_oracle(s, r.sigma())}), (i, str(r), str(s))
        assert monic_witness(inst) == monic, (i, str(r), str(s))
        condition_ii = poly_quotient_oracle(r, rpoly_mul_oracle(s, r.sigma())) is None
        assert verdict.condition_ii == verdict.witnesses_ok == condition_ii, (i, str(r), str(s))
        assert (monic.max_degree == 1) == (not condition_ii), (i, str(r), str(s))
        assert monic.row(monic.max_degree) == RPoly.one(), (i, str(r), str(s))
        monic_quotient = (
            SPoly.from_rpoly(r.sigma()) if monic.max_degree == 1
            else SPoly({1: r, 0: -rpoly_mul_oracle(s.sigma(), r)})
        )
        for v, q in ((degree_one, SPoly.from_rpoly(rpoly_mul_oracle(r, r.sigma()))), (monic, monic_quotient)):
            assert spoly_mul_oracle(SPoly.from_rpoly(r), v) == spoly_mul_oracle(y_plus_s(s), q), (i, str(v))
            assert in_V(v, inst), (i, str(v))
        seen[kind, condition_ii] += 1
    assert all(seen[kind, False] for kind in range(4)) and seen[0, True], seen
    return seen


@functools.cache
def check_fox_fundamental(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    e = Word()
    for _ in range(cases):
        w = rand_word(rng)
        total = Combo()
        for g in ("x", "y"):
            d = Combo.of(fox_derivative(w, g))
            total = total + d.rmul(Word(((g, 1),))) - d
        assert total == Combo.term(w) - Combo.term(e)
        assert_normalised(total)
        dx, dy = Combo.of(fox_derivative(w, "x")), Combo.of(fox_derivative(w, "y"))
        assert_cancelled((dx - dx, dx + (-dx), (dx + dy) - dy - dx), Combo())
        assert (dx + dy) - dy == dx
        for v in ((dx + dy) - dy, (dx + dy).lmul(w) - dy.lmul(w), (dx - dy).star() + dy.star()):
            assert_normalised(v)


def check_fox_product_rule(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        u, v = rand_word(rng), rand_word(rng)
        for g in ("x", "y"):
            assert fox_derivative(u * v, g) == Combo.of(fox_derivative(u, g)) + Combo.of(
                fox_derivative(v, g)
            ).lmul(u)


def _square(m):
    """m . m for a 2x2 matrix over S, written out as the oracle for pi^2."""
    return [
        [sum((m[i][k] * m[k][j] for k in range(2)), SPoly.zero()) for j in range(2)]
        for i in range(2)
    ]


def check_splitting_matches_bezout(cases: int, seed: int = SEED) -> None:
    """splitting_check agrees with verify_bezout on the paper instance,
    for valid witnesses shifted by kernel elements (w1*k, lift) and for
    witnesses with a random nonzero error added to alpha or beta.  The
    projector is idempotent exactly when the witness is valid; splitting_check
    does not compute pi^2, so it is checked here against _square."""
    rng = random.Random(seed)
    inst = builtin.stafford_instance()
    base = default_witness()
    w1, _ = witnesses(inst)
    for i in range(cases):
        expected = i % 2 == 0
        if expected:
            v = w1 * rand_spoly(rng, max_rows=2)
            w = BezoutWitness(base.alpha + v, base.beta + lift_kernel(v, inst))
        elif i % 4 == 1:
            w = BezoutWitness(base.alpha + rand_spoly(rng, nonzero=True, max_rows=2), base.beta)
        else:
            w = BezoutWitness(base.alpha, base.beta + rand_spoly(rng, nonzero=True, max_rows=2))
        assert splitting_check(w, inst) == verify_bezout(w, inst) == expected, (i, str(w.alpha))
        proj = splitting_projector(w, inst)
        assert (_square(proj) == proj) == expected, (i, str(w.alpha))


@functools.cache
def check_chain_composite_zero(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        p = rand_consequence_presentation(rng)
        d2, d1 = boundary_matrices(p, eval_combo)
        for row in d2:
            total = SPoly.zero()
            for edge, entry in zip(d1, row):
                total = total + edge * entry
            assert total == SPoly.zero()


def check_eval_homomorphism(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        u, v = rand_word(rng), rand_word(rng)
        assert eval_word(u * v) == group_mul(eval_word(u), eval_word(v))
        assert eval_word(u) == normal_form_oracle(u)


# ------------------------------------------------- reverse certificate replay

class Eq:
    """Certified equality u ~ v: a certificate whose target is u * v^-1.

    sym is certificate inversion, trans is concatenation, and around(p, q)
    is the congruence u ~ v => p u q ~ p v q, whose witness only needs
    conjugation by p (right factors cancel freely in the target).
    """

    def __init__(self, u: Word, v: Word, cert: ConjugacyCertificate):
        assert cert.target == u * ~v, (str(u), str(v), str(cert.target))
        self.u, self.v, self.cert = u, v, cert

    def sym(self) -> "Eq":
        return Eq(self.v, self.u, cert_invert(self.cert))

    def trans(self, other: "Eq") -> "Eq":
        assert self.v == other.u, (str(self.v), str(other.u))
        return Eq(self.u, other.v, cert_concat(self.cert, other.cert))

    def around(self, p: Word, q: Word) -> "Eq":
        return Eq(p * self.u * q, p * self.v * q, cert_conjugate(self.cert, p))

    def retarget(self, u: Word, v: Word) -> "Eq":
        """Reread the same witness word as a different equality."""
        return Eq(u, v, self.cert)


def build_reverse_certificate() -> ConjugacyCertificate:
    """Replay, in certificate algebra, the derivation that the one-relator
    presentation's relator follows from the two-relator presentation.

    With a = y^-1 x y and b = x the two relators say (after conjugation)
    a b^2 = b^3 a^2 and b a^2 = a^3 b^2; left-multiplying the first by a^2
    and cancelling yields a^2 b^2 = 1 and finally a b = 1, which is the
    target relator."""
    from kleinverify import parse_word

    q = builtin.presentation_q()
    a = parse_word("y^-1 x y")
    b = parse_word("x")
    y = parse_word("y")
    e = Word()

    trivial = [
        ConjugacyCertificate(rel, (CertFactor(e, i, 1),), "Q")
        for i, rel in enumerate(q.relators)
    ]
    # y^-1 a y ~ b: the witness word is the first relator itself.
    conj_rule = Eq(~y * a * y, b, trivial[0])
    # a b^2 ~ b^3 a^2: the second relator conjugated by b^3.
    swap_rule = Eq(a * b * b, b**3 * a * a, cert_conjugate(trivial[1], b**3))

    swapped = swap_rule.around(~y, y)                 # y^-1 a b^2 y ~ y^-1 b^3 a^2 y
    lhs = conj_rule.around(e, a * a)                  # (y^-1 a y) a^2 ~ b a^2
    rhs = conj_rule.around(a**3, ~y * a * y).trans(   # a^3 (y^-1 a y)^2 ~ a^3 b^2
        conj_rule.around(a**3 * b, e)
    )
    mirrored = lhs.sym().trans(swapped).trans(rhs)    # b a^2 ~ a^3 b^2
    shifted = swap_rule.around(a * a, e)              # a^3 b^2 ~ a^2 b^3 a^2
    collapse = (
        mirrored.trans(shifted).sym().retarget(a * a * b * b, e)
    )                                                 # a^2 b^2 ~ 1
    reduced = mirrored.trans(collapse.around(a, e))   # b a^2 ~ a
    final = reduced.retarget(b * a, e).around(a, ~a)  # a b ~ 1

    assert final.u == builtin.presentation_p().relators[0]
    return ConjugacyCertificate(final.cert.target, final.cert.factors, "Q")


def check_word_mul_matches_fold(cases: int, seed: int = SEED) -> None:
    """Junction-only products against full re-reduction, with operands
    built to cancel partly, wholly, or inside a merged letter."""
    rng = random.Random(seed)
    for i in range(cases):
        u, v = rand_word(rng), rand_word(rng)
        cut = rng.randint(0, len(u.letters))
        tail = Word(u.letters[cut:])
        right = (
            fold_mul(fold_pow(tail, -1), v),  # cancels the tail of u, then v
            fold_pow(u, -1),                   # cancels everything
            v,
        )[i % 3]
        assert u * right == fold_mul(u, right)
        assert right * u == fold_mul(right, u)
    w = rand_word(rng, max_runs=40)
    assert (w * ~w).is_identity() and (~w * w).is_identity()


def check_word_pow_matches_fold(cases: int, seed: int = SEED) -> None:
    """One-pass powers against the fold, on conjugates u c u^-1 whose
    powers cancel inside, and on inverses; then long words and their
    conjugates against reduce_oracle."""
    rng = random.Random(seed)
    for i in range(cases):
        c, u = rand_word(rng, max_runs=4), rand_word(rng, max_runs=3)
        w = c if i % 2 else fold_mul(fold_mul(u, c), fold_pow(u, -1))
        n = rng.randint(-7, 7)
        assert w ** n == fold_pow(w, n)
        assert (~w) ** abs(n) == fold_pow(w, -abs(n))
        assert (w * ~w) ** n == Word()
    # Words of a few hundred letters, against reduce_oracle of n copies.
    for i in range(cases // 15):
        c = rand_word(rng, max_runs=rng.randint(100, 300))
        u = rand_word(rng, max_runs=40)
        w = c if i % 2 else u * c * ~u
        n = rng.choice((-3, -2, 2, 3, 5))
        base = w.letters if n > 0 else (~w).letters
        assert (w ** n).letters == reduce_oracle(base * abs(n))


def _rand_presentation(rng: random.Random, i: int) -> Presentation:
    if i % 5 == 0:
        return rand_consequence_presentation(rng)
    gens = ("x", "y") if i % 7 else ("y", "x")
    relators = []
    for _ in range(rng.randint(0, 3)):
        # exponents up to 9 in magnitude; about one relator in eleven is empty
        relators.append(Word() if rng.random() < 1 / 11 else rand_word(rng, max_exp=9))
    return Presentation(gens, tuple(relators))


def rand_conjugate_product(rng: random.Random, count: int) -> Tuple[Word, Counter]:
    """A product of COUNT conjugates w R^+-1 w^-1 of P's relator R, shaped
    as the benchmark's long relators: each conjugator is 1 to 3 letters
    with exponent +-1 on alternating generators.  Also returns how many
    conjugators have an even and an odd y-exponent sum."""
    base = builtin.presentation_p().relators[0]
    out, parities = Word(), Counter()
    for _ in range(count):
        g = rng.choice(("x", "y"))
        letters = []
        for _ in range(rng.randint(1, 3)):
            letters.append((g, rng.choice((1, -1))))
            g = "y" if g == "x" else "x"
        w = Word(letters)
        parities["odd y" if eval_word(w)[0] % 2 else "even y"] += 1
        out = out * (w * (base if rng.random() < 0.5 else ~base) * ~w)
    return out, parities


def check_boundary_data_matches_oracle(cases: int, long_cases: int = 3, seed: int = SEED) -> None:
    """klein.boundary_data against boundary_matrices(p, eval_combo): random
    presentations, long random relators, and relators shaped as the
    benchmark's long ones (products of 40 to 60 conjugates of P's relator,
    mostly letters x^+-1 and y^+-1, at prefixes of both y-parities)."""
    rng = random.Random(seed)
    for i in range(cases):
        p = _rand_presentation(rng, i)
        assert boundary_data(p) == boundary_matrices(p, eval_combo), p.to_dict()
    for _ in range(long_cases):
        # several hundred letters: runs of up to 3 letters each
        p = Presentation(("x", "y"), (rand_word(rng, max_runs=rng.randint(150, 200)),))
        assert boundary_data(p) == boundary_matrices(p, eval_combo)
    for _ in range(long_cases):
        rels = [rand_conjugate_product(rng, rng.randint(40, 60)) for _ in range(2)]
        for _, parities in rels:
            assert min(parities["odd y"], parities["even y"]) >= 5, parities
        letters = [letter for w, _ in rels for letter in w.letters]
        assert 2 * sum(abs(e) == 1 for _, e in letters) > len(letters)
        p = Presentation(("x", "y"), (builtin.presentation_p().relators[0], *(w for w, _ in rels)))
        assert boundary_data(p) == boundary_matrices(p, eval_combo)


def _rand_cancelling_factors(rng: random.Random, src: Presentation):
    """Factors drawn so that neighbours cancel: a factor followed by its
    inverse, conjugators sharing a long prefix, and plain random ones."""
    factors: List[CertFactor] = []
    prefix = rand_word(rng, max_runs=5)
    count = rng.randint(0, 8)
    while len(factors) < count:
        w = fold_mul(prefix, rand_word(rng, max_runs=2)) if rng.random() < 0.6 else rand_word(rng)
        f = CertFactor(w, rng.randrange(len(src.relators)), rng.choice((1, -1)))
        factors.append(f)
        if rng.random() < 0.4:
            factors.append(CertFactor(f.conjugator, f.relator, -f.sign))
    return tuple(factors)


def check_expand_matches_fold(cases: int, seed: int = SEED) -> None:
    """The one-pass expand_certificate against the left fold."""
    rng = random.Random(seed)
    sources = (
        builtin.presentation_p(),
        builtin.presentation_q(),
        Presentation(("x", "y"), (rand_word(rng), rand_word(rng, max_exp=6))),
    )
    letters_in = letters_out = 0
    for i in range(cases):
        src = sources[i % len(sources)]
        cert = ConjugacyCertificate(Word(), _rand_cancelling_factors(rng, src))
        got = expand_certificate(src, cert)
        assert got == fold_expand(src, cert)
        letters_in += sum(2 * len(f.conjugator) + len(src.relators[f.relator]) for f in cert.factors)
        letters_out += len(got)
    assert 2 * letters_out < letters_in  # most letters cancel between factors


def check_boundary_factor_matches_oracle(cases: int, seed: int = SEED) -> None:
    """boundary_factor against the running SPoly sum, on valid certificates
    whose factors often cancel, keys and their order included."""
    rng = random.Random(seed)
    sources = (
        builtin.presentation_p(),
        builtin.presentation_q(),
        Presentation(("x", "y"), (rand_word(rng), rand_word(rng, max_exp=6))),
    )
    seen: Counter = Counter()
    for i in range(cases):
        src = sources[i % len(sources)]
        factors = _rand_cancelling_factors(rng, src)
        cert = ConjugacyCertificate(expand_certificate(src, ConjugacyCertificate(Word(), factors)), factors)
        got, want = boundary_factor(src, cert), boundary_factor_oracle(src, cert)
        assert got == want and list(got) == list(want), (src.to_dict(), factors)
        seen["sign -1"] += any(f.sign == -1 for f in factors)
        seen["odd y"] += any(eval_word(f.conjugator)[0] % 2 for f in factors)
        seen["two relators"] += len(got) > 1
        seen["zero"] += any(v.is_zero() for v in got.values())
    assert len(seen) == 4 and min(seen.values()) >= cases // 20, seen
