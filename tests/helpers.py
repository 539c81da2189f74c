"""Shared test machinery: seeded random generators, independent oracles,
and the reusable property checks behind the randomized suites.

The oracles deliberately avoid the code paths they judge:
normal_form_oracle sorts single letters with the rewriting rules instead
of using the closed-form group law, and spoly_mul_oracle multiplies group
ring elements term by term through the group law instead of the twisted
row convolution.  The fold oracles re-reduce the whole concatenation at
every step, as Word products once did, and boundary_matrices with
eval_combo goes through FreeCombo instead of klein.boundary_data.
rpoly_mul_oracle and poly_quotient_oracle are the dict double loop and the
dict long division, with no Kronecker substitution.
"""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from kleinverify import (
    BezoutWitness,
    CertFactor,
    ConjugacyCertificate,
    FreeCombo,
    GroupElem,
    Presentation,
    RPoly,
    SPoly,
    Word,
    boundary_data,
    boundary_matrices,
    cert_concat,
    cert_conjugate,
    cert_invert,
    conjugate,
    default_witness,
    divide,
    eval_combo,
    eval_word,
    expand_certificate,
    fox_derivative,
    in_V,
    laurent,
    lift_kernel,
    quotient,
    splitting_check,
    splitting_projector,
    verify_bezout,
    witnesses,
    y_plus_s,
)
from kleinverify import builtin

SEED = 20230717


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


def spoly_terms(f: SPoly) -> List[Tuple[int, GroupElem]]:
    return [(c, GroupElem(m, e)) for m, a in f.rows() for e, c in a.items()]


def spoly_from_terms(terms) -> SPoly:
    acc = SPoly.zero()
    for c, g in terms:
        acc = acc + SPoly.from_group(g, c)
    return acc


def spoly_mul_oracle(f: SPoly, g: SPoly) -> SPoly:
    """Group-algebra product: expand both operands into group elements,
    multiply pairwise with the group law, recollect."""
    out = []
    for c1, g1 in spoly_terms(f):
        for c2, g2 in spoly_terms(g):
            out.append((c1 * c2, g1 * g2))
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


@contextlib.contextmanager
def counting(module, *names: str) -> Iterator[Dict[str, int]]:
    """Count the calls to module-level functions while the block runs."""
    counts = dict.fromkeys(names, 0)
    saved = {name: getattr(module, name) for name in names}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name, fn in saved.items():
        setattr(module, name, counted(name, fn))
    try:
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


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


def assert_normalised(value) -> None:
    """value stores no zero coefficient (RPoly), row (SPoly) or term (FreeCombo)."""
    if isinstance(value, SPoly):
        for row in value._rows.values():
            assert not row.is_zero()
            assert_normalised(row)
    else:
        store = value._coeffs if isinstance(value, RPoly) else value._terms
        assert all(store.values())


def assert_cancelled(values, zero) -> None:
    for v in values:
        assert v == zero and v.is_zero()
        assert_normalised(v)


# ----------------------------------------------------------- property suites

def check_free_group_axioms(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    e = Word()
    for _ in range(cases):
        u, v, w = (rand_word(rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * e == u and e * u == u
        assert u * ~u == e and ~u * u == e


def check_reduction_canonical(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
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
        assert Word(letters) == w


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


def check_spoly_ring_axioms(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    zero, one = SPoly.zero(), SPoly.one()
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
        prod = (SPoly.y() + SPoly.from_rpoly(a)) * (SPoly.y() - SPoly.from_rpoly(a.sigma()))
        assert prod == SPoly({2: RPoly.one(), 0: -(a * a.sigma())})
        for v in ((f + g) - g, f * g, prod):
            assert_normalised(v)


def check_sigma_involution(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        a, b = rand_rpoly(rng), rand_rpoly(rng)
        assert a.sigma().sigma() == a
        assert (a + b).sigma() == a.sigma() + b.sigma()
        assert (a * b).sigma() == a.sigma() * b.sigma()


def check_domain_property(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        a = rand_rpoly(rng, nonzero=True)
        b = rand_rpoly(rng, nonzero=True)
        assert not (a * b).is_zero()
        assert (a * b).length() == a.length() + b.length()
    for _ in range(cases // 2):
        f = rand_spoly(rng, nonzero=True)
        g = rand_spoly(rng, nonzero=True)
        assert not (f * g).is_zero()


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
    with counting(laurent, "_kronecker_mul") as calls:
        for i in range(cases):
            a, b = _rand_mul_pair(rng, i)
            got = a * b
            assert got == rpoly_mul_oracle(a, b), (i, str(a), str(b))
            assert b * a == got
            assert_normalised(got)
    assert 0 < calls["_kronecker_mul"] < 2 * cases


def _outgrown_quotient(rng: random.Random) -> Tuple[RPoly, RPoly]:
    """a = (1 - x)^4 g and b = (1 - x^M)^4 g, so b / a is
    (1 + x + ... + x^(M-1))^4.  b's coefficients stay within 6 max|g|,
    while the quotient's reach about (2/3) M^3: too wide for the digit
    width that b sets."""
    m = rng.randint(45, 60)
    g = _dense_rpoly(rng, 16, lambda r: r.choice((1, -1)) * r.randint(1, 3), shift=0)

    def quartic(step: int) -> RPoly:  # (1 - x^step)^4
        return RPoly({k * step: c for k, c in enumerate((1, -4, 6, -4, 1))})

    return rpoly_mul_oracle(g, quartic(1)), rpoly_mul_oracle(g, quartic(m))


def _rand_quotient_pair(rng: random.Random, i: int) -> Tuple[RPoly, RPoly]:
    kind = i % 7
    if kind < 3:
        a = _rand_kronecker_operand(rng, kind)
        c = _rand_kronecker_operand(rng, rng.randrange(4))
        return a, rpoly_mul_oracle(a, c)
    if kind == 3:
        # a * c plus one monomial just outside it, or anywhere
        a, c = _rand_kronecker_operand(rng, rng.randrange(3)), _dense_rpoly(rng, rng.randint(16, 60))
        b = rpoly_mul_oracle(a, c)
        e = rng.choice((b.min_exp - 1, b.max_exp + 1, rng.randint(b.min_exp, b.max_exp)))
        return a, b + RPoly.monomial(e, rng.choice((1, -1)))
    if kind == 4:
        return _outgrown_quotient(rng)
    if kind == 5:
        # one side below the crossover: long division
        a = _dense_rpoly(rng, rng.randint(1, 40))
        c = _dense_rpoly(rng, rng.randint(1, 2 * laurent._KRONECKER_TERMS))
        b = rpoly_mul_oracle(a, c)
        return a, b if rng.random() < 0.5 else b + RPoly.monomial(rng.randint(-50, 50))
    # sparse, wide gaps: x^k - 1 against products of sparse operands
    a = RPoly({0: -1, rng.randint(1, 10**4): 1}) if rng.random() < 0.5 else rand_rpoly(
        rng, nonzero=True, exp_range=(-(10**5), 10**5)
    )
    c = rand_rpoly(rng, max_terms=20, exp_range=(-(10**6), 10**6))
    b = rpoly_mul_oracle(a, c)
    return a, b if rng.random() < 0.5 else b + RPoly.monomial(rng.randint(-(10**6), 10**6))


def check_quotient_matches_oracle(cases: int, seed: int = SEED) -> None:
    """quotient against the dict long division.  Each case is counted by
    the path it took: "long" division alone, or the Kronecker path ending
    in "integer" non-divisibility, a "checked" candidate, or a
    "fallback" to long division.  All four must be taken."""
    rng = random.Random(seed)
    paths: Counter = Counter()
    for i in range(cases):
        a, b = _rand_quotient_pair(rng, i)
        with counting(laurent, "_kronecker_quotient", "_long_quotient") as calls:
            got = quotient(a, b)
        assert got == poly_quotient_oracle(a, b), (i, str(a), str(b))
        if not calls["_kronecker_quotient"]:
            paths["long"] += 1
        elif calls["_long_quotient"]:
            paths["fallback"] += 1
        else:
            paths["integer" if got is None else "checked"] += 1
    assert all(paths[p] for p in ("long", "integer", "checked", "fallback")), paths


def check_single_degree_span(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    s = builtin.stafford_instance().s
    for _ in range(cases):
        q = rand_spoly(rng, nonzero=True)
        assert (y_plus_s(s) * q).span() >= 1


def check_v_right_module(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    inst = builtin.stafford_instance()
    w1, w2 = witnesses(inst)
    for _ in range(cases):
        v = w1 * rand_spoly(rng, max_rows=2) + w2 * rand_spoly(rng, max_rows=2)
        assert in_V(v, inst)
        assert in_V(v * rand_spoly(rng, max_rows=2), inst)


def check_fox_fundamental(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    e = Word()
    for _ in range(cases):
        w = rand_word(rng)
        total = FreeCombo.zero()
        for g in ("x", "y"):
            d = fox_derivative(w, g)
            total = total + d.rmul(Word(((g, 1),))) - d
        assert total == FreeCombo.term(w) - FreeCombo.term(e)
        assert_normalised(total)
        dx, dy = fox_derivative(w, "x"), fox_derivative(w, "y")
        assert_cancelled((dx - dx, dx + (-dx), (dx + dy) - dy - dx), FreeCombo.zero())
        assert (dx + dy) - dy == dx
        for v in ((dx + dy) - dy, (dx + dy).lmul(w) - dy.lmul(w), (dx - dy).star() + dy.star()):
            assert_normalised(v)


def check_fox_product_rule(cases: int, seed: int = SEED) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        u, v = rand_word(rng), rand_word(rng)
        for g in ("x", "y"):
            assert fox_derivative(u * v, g) == fox_derivative(u, g) + fox_derivative(
                v, g
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
        assert eval_word(u * v) == eval_word(u) * eval_word(v)
        got = eval_word(u)
        assert (got.m, got.n) == normal_form_oracle(u)


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
    powers cancel inside, and on inverses."""
    rng = random.Random(seed)
    for i in range(cases):
        c, u = rand_word(rng, max_runs=4), rand_word(rng, max_runs=3)
        w = c if i % 2 else fold_mul(fold_mul(u, c), fold_pow(u, -1))
        n = rng.randint(-7, 7)
        assert w ** n == fold_pow(w, n)
        assert (~w) ** abs(n) == fold_pow(w, -abs(n))
        assert (w * ~w) ** n == Word()


def _rand_presentation(rng: random.Random, i: int) -> Presentation:
    if i % 5 == 0:
        return rand_consequence_presentation(rng)
    gens = ("x", "y") if i % 7 else ("y", "x")
    relators = []
    for _ in range(rng.randint(0, 3)):
        # exponents up to 9 in magnitude; about one relator in eleven is empty
        relators.append(Word() if rng.random() < 1 / 11 else rand_word(rng, max_exp=9))
    return Presentation(gens, tuple(relators))


def check_boundary_data_matches_oracle(cases: int, long_cases: int = 3, seed: int = SEED) -> None:
    """klein.boundary_data against boundary_matrices(p, eval_combo)."""
    rng = random.Random(seed)
    for i in range(cases):
        p = _rand_presentation(rng, i)
        assert boundary_data(p) == boundary_matrices(p, eval_combo), p.to_dict()
    for _ in range(long_cases):
        # several hundred letters: runs of up to 3 letters each
        p = Presentation(("x", "y"), (rand_word(rng, max_runs=rng.randint(150, 200)),))
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
