import random
import time

import pytest

from kleinverify import RPoly, divides, parse_rpoly, quotient
from kleinverify import laurent
from kleinverify.laurent import PolySyntaxError

from helpers import (
    SEED,
    check_domain_property,
    check_quotient_matches_oracle,
    check_rpoly_ring_axioms,
    check_rpoly_mul_matches_oracle,
    check_sigma_involution,
    rand_rpoly,
)

R = parse_rpoly("x^3 - x - 1")


def test_mul_identity():
    assert R * RPoly.one() == R


def test_difference_of_cubics():
    assert parse_rpoly("x^3 + x^2 - 1") - R == parse_rpoly("x^2 + x")


def test_unit_product():
    assert parse_rpoly("-x^-1") * parse_rpoly("-x") == RPoly.one()


def test_sigma_examples():
    assert R.sigma() == parse_rpoly("x^-3 - x^-1 - 1")
    assert RPoly.one().sigma() == RPoly.one()


def test_sigma_involution():
    check_sigma_involution(300)


def test_length_examples():
    assert parse_rpoly("x^2 + x").length() == 1
    assert R.length() == 3
    assert parse_rpoly("5").length() == 0
    with pytest.raises(ValueError):
        RPoly.zero().length()


def test_divides_obstruction():
    assert divides(R, parse_rpoly("x^3 + x^2 - 1")) is False


def test_divides_roundtrip():
    rng = random.Random(SEED)
    factor = parse_rpoly("x + x^-1")
    for _ in range(200):
        a = rand_rpoly(rng, nonzero=True)
        b = a * factor
        assert divides(a, b)
        c = quotient(a, b)
        assert c is not None and a * c == b


def test_divides_sparse_gap():
    # The quotient has 10^4 terms spread over 10^8 exponents; long division
    # jumps the gaps between them instead of walking every exponent.
    a = parse_rpoly("x^10000 - 1")
    c = quotient(a, parse_rpoly("x^100000000 - 1"))
    assert c == RPoly({10000 * k: 1 for k in range(10000)})
    assert not divides(a, parse_rpoly("x^100000001 - 1"))


def test_mul_matches_oracle():
    check_rpoly_mul_matches_oracle(700)


def test_quotient_matches_oracle():
    check_quotient_matches_oracle(700)


def test_balanced_digits_roundtrip():
    for width in (1, 2, 3):
        half = 1 << (8 * width - 1)
        digits = [half - 1, -(half - 1), 0, -1, 1, half - 1]
        packed = laurent._pack(dict(enumerate(digits)), 0, len(digits), width)
        assert laurent._unpack(packed, width, len(digits)) == digits
        assert laurent._unpack(-packed, width, len(digits)) == [-c for c in digits]
        # one past the top digit, or below the bottom one, has no n-digit form
        top = half << (8 * width * (len(digits) - 1))
        assert laurent._unpack(packed + top, width, len(digits)) is None
        assert laurent._unpack(-packed - top, width, len(digits)) is None
    assert laurent._width(127) == 1 and laurent._width(128) == 2
    assert laurent._width(2**15 - 1) == 2 and laurent._width(2**15) == 3


def _residue(a: RPoly, t: int, p: int) -> int:
    return sum(c * pow(t, e % (p - 1), p) for e, c in a.items()) % p


def test_dense_product_is_fast():
    # Schoolbook multiplication takes seconds at degree 4000; Kronecker
    # substitution takes milliseconds.  The product is checked at two
    # points modulo a prime, which is independent of both methods.
    rng = random.Random(SEED + 3)
    a = RPoly({e: rng.choice((1, -1)) * rng.randint(1, 9) for e in range(-7, 3994)})
    b = RPoly({e: rng.randint(-99, 99) for e in range(4001)})
    start = time.perf_counter()
    prod = a * b
    assert time.perf_counter() - start < 1.0
    p = 2**61 - 1
    for t in (3, 12345):
        assert _residue(prod, t, p) == _residue(a, t, p) * _residue(b, t, p) % p


def test_sparse_product_is_not_packed():
    # Packing would build an integer of 10^8 digits.
    start = time.perf_counter()
    prod = parse_rpoly("x^100000000 - 1") * parse_rpoly("x^100000000 + 1")
    assert time.perf_counter() - start < 0.1
    assert prod == parse_rpoly("x^200000000 - 1")


def test_divides_monomials():
    assert divides(parse_rpoly("x^2"), parse_rpoly("x^5"))
    assert divides(parse_rpoly("x^5"), parse_rpoly("x^2"))  # units absorb shifts


def test_divides_zero_rules():
    assert divides(RPoly.zero(), RPoly.zero()) is True
    assert divides(R, RPoly.zero()) is True
    with pytest.raises(ValueError):
        divides(RPoly.zero(), R)


def _divides_oracle(a: RPoly, b: RPoly) -> bool:
    # Independent route via sympy: shift to ordinary polynomials, divide
    # over QQ, demand zero remainder and integer quotient coefficients.
    import sympy

    x = sympy.Symbol("x")
    if b.is_zero():
        return True
    fa = sum(c * x ** (e - a.min_exp) for e, c in a.items())
    fb = sum(c * x ** (e - b.min_exp) for e, c in b.items())
    q, r = sympy.div(sympy.Poly(fb, x), sympy.Poly(fa, x), x)
    return r.is_zero and all(co.is_Integer for co in q.all_coeffs())


def test_quotient_witness_random():
    rng = random.Random(SEED + 1)
    for _ in range(250):
        a = rand_rpoly(rng, nonzero=True)
        b = rand_rpoly(rng)
        c = quotient(a, b)
        assert (c is not None) == _divides_oracle(a, b)
        if c is not None:
            assert a * c == b


def test_dense_matches_sympy():
    # Dense operands above the crossover, checked against sympy's product
    # and division; every other b is one monomial off the product a * c.
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(SEED + 4)
    for i in range(12):
        cs = [[rng.randint(-300, 300) for _ in range(rng.randint(18, 30))] for _ in range(2)]
        a, c = (RPoly(dict(enumerate(co))) for co in cs)
        prod = a * c
        fa, fc = (sympy.Poly(co[::-1], x) for co in cs)
        assert prod == RPoly({m[0]: int(co) for m, co in (fa * fc).terms()})
        b = prod + (RPoly.monomial(rng.randint(0, 80)) if i % 2 else RPoly.zero())
        got = quotient(a, b)
        assert (got is not None) == _divides_oracle(a, b)
        assert got == (c if i % 2 == 0 else None)


def test_domain_and_length_multiplicativity():
    check_domain_property(1000)


def test_ring_axioms():
    check_rpoly_ring_axioms(500)


def test_parse_print_roundtrip():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        a = rand_rpoly(rng)
        assert parse_rpoly(str(a)) == a


def test_parse_forms():
    assert parse_rpoly("2*x^2 + 5") == RPoly({2: 2, 0: 5})
    assert parse_rpoly("2x^2+5") == RPoly({2: 2, 0: 5})
    assert parse_rpoly("-x^-1") == RPoly({-1: -1})
    assert parse_rpoly("0") == RPoly.zero()
    assert parse_rpoly("x - x") == RPoly.zero()


def test_parse_errors():
    for bad in ("", "x^", "x^^2", "x + ", "x*y", "3.5"):
        with pytest.raises(PolySyntaxError):
            parse_rpoly(bad)


def test_is_unit():
    assert parse_rpoly("-x^-7").is_unit()
    assert parse_rpoly("x").is_unit()
    assert not parse_rpoly("2*x").is_unit()
    assert not R.is_unit()
    assert not RPoly.zero().is_unit()
