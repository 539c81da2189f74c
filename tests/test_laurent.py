import random
import struct
import time

import pytest

from kleinverify import RPoly, divides, parse_rpoly, parse_word, quotient
from kleinverify import kronecker, laurent, longdiv, syntax
from kleinverify.laurent import PolySyntaxError

from helpers import (
    SEED,
    check_domain_property,
    check_mul_into_matches_oracle,
    check_parser_matches_oracle,
    check_quotient_matches_oracle,
    check_quotient_shortcuts_match_oracle,
    check_rpoly_ring_axioms,
    check_rpoly_mul_matches_oracle,
    check_sigma_involution,
    check_sub_matches_add_neg,
    counting,
    parse_rpoly_oracle,
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
    check_sigma_involution(500)


def test_length_examples():
    a, five = parse_rpoly("x^2 + x"), parse_rpoly("5")
    assert a.max_exp - a.min_exp == 1
    assert R.max_exp - R.min_exp == 3
    assert five.max_exp - five.min_exp == 0
    with pytest.raises(ValueError):
        RPoly.zero().max_exp
    with pytest.raises(ValueError):
        RPoly.zero().min_exp


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


def test_quotient_by_zero_raises():
    # Zero divides nothing, not even zero: no quotient is returned.
    for b in (RPoly.zero(), R):
        with pytest.raises(ValueError, match="division by the zero polynomial"):
            quotient(RPoly.zero(), b)


def test_divides_sparse_gap():
    # The quotient has 10^4 terms spread over 10^8 exponents; long division
    # jumps the gaps between them instead of walking every exponent.
    a = parse_rpoly("x^10000 - 1")
    c = quotient(a, parse_rpoly("x^100000000 - 1"))
    assert c == RPoly({10000 * k: 1 for k in range(10000)})
    assert not divides(a, parse_rpoly("x^100000001 - 1"))


def test_long_quotient_is_fast_on_a_long_dividend():
    # x + 1 is below the Kronecker crossover, so (x + 1)*g goes to long
    # division.  Finding each step's top by a scan of the remainder took
    # about 4 s at 20000 terms; the heap of pending exponents takes
    # milliseconds.  The non-divisor b + 2x^-1 keeps 2 = a(1) dividing
    # its value at 1, so evaluation at 1 passes it to long division too.
    rng = random.Random(SEED + 7)
    g = RPoly({e: rng.choice((1, -1)) * rng.randint(1, 9) for e in range(30000)})
    a = parse_rpoly("x + 1")
    b = a * g
    with counting(longdiv, "_long_quotient") as calls:
        start = time.perf_counter()
        got = quotient(a, b)
        assert time.perf_counter() - start < 1.0
        assert quotient(a, b + RPoly.monomial(-1, 2)) is None
    assert got == g and calls == {"_long_quotient": 2}


def test_long_quotient_refills_a_cancelled_exponent():
    # 2 + 2x^2 + 2x^4 over -1 + x - x^2: the first step cancels x^2 and
    # the second writes it again, so x^2 waits in the heap twice and is
    # skipped once.  The quotient is -2(1 + x + x^2).
    # The quotient's lowest exponent, 0, is the third argument.
    den, num = {0: -1, 1: 1, 2: -1}, {0: 2, 2: 2, 4: 2}
    assert longdiv._long_quotient(num, den, 0) == {0: -2, 1: -2, 2: -2}
    assert longdiv._long_quotient({**num, 1: 1}, den, 0) is None
    assert longdiv._long_quotient({**num, 5: 1}, den, 0) is None
    # The same division shifted by x^-7 and x^10^6: no copy is shifted.
    den, num = {e - 7: c for e, c in den.items()}, {e + 10**6: c for e, c in num.items()}
    assert longdiv._long_quotient(num, den, 10**6 + 7) == {10**6 + 7 + e: -2 for e in range(3)}
    assert longdiv._long_quotient({**num, 10**6 - 1: 1}, den, 10**6 + 7 - 1) is None


def test_mul_matches_oracle():
    check_rpoly_mul_matches_oracle(700)


def test_quotient_matches_oracle():
    check_quotient_matches_oracle(700)


def test_quotient_far_from_zero_matches_oracle():
    # Lowest exponents up to about 10^6 from 0, of both signs, and about
    # one case in ten with an operand 10^18 out, on the long and the
    # Kronecker path.
    paths = check_quotient_matches_oracle(560, SEED + 5, far=True)
    packed = paths["integer"] + paths["bound"] + paths["checked"] + paths["fallback"]
    assert paths["long"] + packed + paths["span"] + paths["zero"] == 560, paths
    assert paths["long"] >= 100 and packed >= 200, paths
    assert paths["10^18"] >= 25, paths


def test_quotient_shortcuts_match_oracle():
    # 500 cases for each shortcut's path, each answer against the oracle
    # and each shortcut's proof checked by quotient_path.
    paths = check_quotient_shortcuts_match_oracle(2000)
    assert paths["span"] == paths["screen"] == paths["bound"] == 500, paths
    assert paths["checked"] + paths["fallback, multiplied back"] == 500, paths
    assert min(paths["checked"], paths["fallback, multiplied back"]) >= 100, paths
    assert min(paths["span None"], paths["span c"]) >= 100 and paths["a(1) = 0"] >= 50, paths


def test_quotient_shortcuts_answer_without_division():
    # The equal-span quotient is c*x^lo or None by one comparison, and
    # evaluation at 1 refutes with no division; a(1) = 0 proves nothing.
    cases = [
        ("x + 1", "2*x + 2", "2"),
        ("2*x + 2", "x + 1", None),
        ("-x^-3", "5*x^4", "-5*x^7"),
        ("x^2 - 1", "3*x^-1 - 3*x^-3", "3*x^-3"),
        ("x^2 - 1", "3*x^-1 - 3*x^-2", None),
        ("x^3 - x - 1", "x^2 + 1", None),
        ("x + 2", "x^1000 + 1", None),
        ("x + 1", "x^3 + x + 1", None),
    ]
    with counting(kronecker, "_kronecker_quotient") as packed, counting(longdiv, "_long_quotient") as calls:
        for a, b, want in cases:
            got = quotient(parse_rpoly(a), parse_rpoly(b))
            assert got == (None if want is None else parse_rpoly(want)), (a, b)
    assert packed == {"_kronecker_quotient": 0} and calls == {"_long_quotient": 0}
    with counting(longdiv, "_long_quotient") as calls:
        assert quotient(parse_rpoly("x - 1"), parse_rpoly("x^3 + x - 1")) is None
    assert calls == {"_long_quotient": 1}


def test_mul_into_matches_oracle():
    seen = check_mul_into_matches_oracle(600)
    assert all(seen[k] >= 50 for k in ("cancel", "zero", "kind 0", "kind 1", "kind 2", "kind 4")), seen
    assert seen["quotient"] and seen["quotient None"] == seen["quotient None, packed"], seen
    assert seen["one-term b, flip +1"] >= 10 and seen["one-term b, flip -1"] >= 10, seen
    assert seen["kind 4, a coefficient >= 2^63"] and seen["quotient, a coefficient >= 2^63"], seen
    # Kronecker digits that come out 0 are dropped for an empty and a dense out
    assert seen["zero digits, empty out"] == seen["zero digits, dense out"] == 60, seen
    # a = 1 with both flips, both signs, and out smaller or not smaller than b
    assert all(
        seen["a = 1, flip %+d, sign %+d, out %s b" % (flip, sign, size)]
        for flip in (1, -1) for sign in (1, -1) for size in ("<", ">=")
    ), seen


def test_sub_matches_add_neg():
    seen = check_sub_matches_add_neg(600, twisted=False)
    assert all(seen[kind] == 200 for kind in ("disjoint", "partial", "self")), seen
    assert 200 <= seen["zero difference"] < 600, seen


def test_constructor_copies_and_drops_zeros():
    coeffs = {0: 1, 1: 2}
    a = RPoly(coeffs)
    coeffs[0], coeffs[2] = 5, 7
    del coeffs[1]
    assert a._coeffs == {0: 1, 1: 2} and str(a) == "2*x + 1"
    # zeros are dropped, False as 0, and the argument is left as it was
    with_zeros = {0: 0, 1: 3, 2: False, 3: -1}
    b = RPoly(with_zeros)
    assert b._coeffs == {1: 3, 3: -1} and b == RPoly({1: 3, 3: -1})
    assert with_zeros == {0: 0, 1: 3, 2: False, 3: -1}
    with_zeros[1] = 4
    assert b._coeffs == {1: 3, 3: -1}


@pytest.mark.parametrize(
    "build, message",
    [
        # x^2 + x + 0.25 as a square, x^0.5 as a term
        (lambda: RPoly({0: 0.5, 1: 1}), "coefficient 0.5 is not an int"),
        (lambda: RPoly({0.5: 1}), "exponent 0.5 is not an int"),
        # divides() read 0.1 | 0.3 as false, is_unit() read 1.0 as a unit
        (lambda: divides(RPoly({0: 0.1}), RPoly({0: 0.3})), "coefficient 0.1 is not an int"),
        (lambda: RPoly({0: 1.0}).is_unit(), "coefficient 1.0 is not an int"),
    ],
)
def test_constructor_rejects_non_int_data(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
    assert RPoly({5: False}) == RPoly({0: 0}) == RPoly.zero() and RPoly({5: False}).is_zero()


def test_balanced_digits_roundtrip():
    for width in (1, 2, 3, 4, 8, 9):
        half = 1 << (8 * width - 1)
        digits = [half - 1, -(half - 1), 0, -1, 1, half - 1]
        packed = kronecker._pack(dict(enumerate(digits)), 0, len(digits), width)
        assert kronecker._unpack(packed, width, len(digits)) == digits
        assert kronecker._unpack(-packed, width, len(digits)) == [-c for c in digits]
        # one past the top digit, or below the bottom one, has no n-digit form
        top = half << (8 * width * (len(digits) - 1))
        assert kronecker._unpack(packed + top, width, len(digits)) is None
        assert kronecker._unpack(-packed - top, width, len(digits)) is None
    assert kronecker._width(127) == 1 and kronecker._width(128) == 2
    assert kronecker._width(2**15 - 1) == 2 and kronecker._width(2**15) == 3
    # Array item widths and the wider int.to_bytes digits: the lowest and
    # highest balanced digit of each width, and 2^63 at 9 bytes and over.
    for width in (1, 2, 4, 8, 9, 12):
        half = 1 << (8 * width - 1)
        digits = [-half, half - 1, 0, -1, 1, -half, half - 1]
        packed = kronecker._pack(dict(enumerate(digits)), 0, len(digits), width)
        assert packed == sum(c << (8 * width * i) for i, c in enumerate(digits))
        assert kronecker._unpack(packed, width, len(digits)) == digits
        # the n-digit range ends at all digits -half and all half - 1
        low, high = (kronecker._pack(dict.fromkeys(range(7), c), 0, 7, width) for c in (-half, half - 1))
        assert kronecker._unpack(low, width, 7) == [-half] * 7 and kronecker._unpack(high, width, 7) == [half - 1] * 7
        assert kronecker._unpack(low - 1, width, 7) is None and kronecker._unpack(high + 1, width, 7) is None
    assert [kronecker._item_width(w) for w in range(1, 11)] == [1, 2, 4, 4, 8, 8, 8, 8, 9, 10]
    assert {struct.calcsize("<" + code): code for code in kronecker._ITEM_CODES.values()} == kronecker._ITEM_CODES


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
    # blanks between a digit and anything but a digit are still dropped
    assert parse_rpoly("2 x - 3") == RPoly({1: 2, 0: -3})
    assert parse_rpoly("x ^ -1 + 2 * x") == RPoly({-1: 1, 1: 2})


def test_parse_errors():
    for bad in ("", "x^", "x^^2", "x + ", "x*y", "3.5", "x^1 0", "1 0", "x^1\t0 - 1", "2 3*x"):
        with pytest.raises(PolySyntaxError):
            parse_rpoly(bad)


def test_parse_matches_oracle():
    seen = check_parser_matches_oracle(1000, twisted=False)
    assert seen["equal"] >= 300 and seen["both rejected"] >= 300, seen


def test_parse_dangling_star():
    # The oracle read a "*" that no x follows as nothing.
    assert parse_rpoly_oracle("2*") == RPoly({0: 2})
    assert parse_rpoly_oracle("2*+x") == RPoly({0: 2, 1: 1})
    for bad in ("2*", "2*+x", "2 * ", "2*-x", "x + 3*", "2**x"):
        with pytest.raises(PolySyntaxError):
            parse_rpoly(bad)


def test_parse_error_positions():
    # Offsets count in the text as given, blanks included, and the whole
    # text is quoted.
    cases = {
        "x - - 1": "unexpected character '-' at position 4 in 'x - - 1'",
        "x^1 0": "unexpected character '0' at position 4 in 'x^1 0'",
        "x\n+1": "unexpected character '\\n' at position 1 in 'x\\n+1'",
        "3 − x −": "unexpected end of input in '3 − x −'",
        "x −− 1": "unexpected character '−' at position 3 in 'x −− 1'",
        " \t": "empty polynomial string",
    }
    for text, message in cases.items():
        with pytest.raises(PolySyntaxError) as err:
            parse_rpoly(text)
        assert str(err.value) == message


def test_parse_long_numbers():
    # At most 4300 digits, CPython's default int() limit, on every version.
    big = "9" * 4300
    assert parse_rpoly(f"{big}*x^-{big}") == RPoly({-int(big): int(big)})
    for text, at in (("1" * 4301, 0), ("x^" + "1" * 5000, 2), ("x - 2" + "0" * 4300 + "*x", 4)):
        with pytest.raises(PolySyntaxError) as err:
            parse_rpoly(text)
        assert str(err.value).startswith(f"number longer than 4300 digits at position {at} in ")


def test_parse_ascii_digits_only():
    # "\d" once read any script's decimal digits: "٣x + ３" parsed as 3*x + 3.
    cases = {
        "٣x + ３": 0,
        "x + ３": 4,
        "x^٣": 2,
        "1" * 4300 + "٣": 4300,
    }
    for text, at in cases.items():
        with pytest.raises(PolySyntaxError) as err:
            parse_rpoly(text)
        assert str(err.value).startswith(f"unexpected character {text[at]!r} at position {at} in "), text


def test_parse_error_quotes_a_window_of_long_texts():
    limit = syntax._QUOTE_LIMIT
    text = "x + " * (limit // 4)
    assert len(text) == limit
    with pytest.raises(PolySyntaxError) as err:
        parse_rpoly(text)
    assert str(err.value) == f"unexpected end of input in {text!r}"
    text = "x + " * 250_000 + "q" + " + x" * 10
    with pytest.raises(PolySyntaxError) as err:
        parse_rpoly(text)
    window = text[1_000_000 - 40:1_000_040]
    assert str(err.value) == (
        f"unexpected character 'q' at position 1000000 in a text of {len(text)} characters, "
        f"near {window!r} from position 999960"
    )


def test_word_and_polynomial_errors_share_the_quote_window():
    # One rule, syntax._quote, quotes both parsers' texts over 1000 characters.
    word = "x" * 1500 + "-"
    poly = "x + " * 400 + "q"
    for parse, text, at in ((parse_word, word, 1500), (parse_rpoly, poly, 1600)):
        assert len(text) > syntax._QUOTE_LIMIT
        with pytest.raises(ValueError) as err:
            parse(text)
        window = text[at - 40:at + 40]
        quoted = f"a text of {len(text)} characters, near {window!r} from position {at - 40}"
        assert syntax._quote(text, at) == quoted
        assert quoted in str(err.value), text[:10]


def test_is_unit():
    assert parse_rpoly("-x^-7").is_unit()
    assert parse_rpoly("x").is_unit()
    assert not parse_rpoly("2*x").is_unit()
    assert not R.is_unit()
    assert not RPoly.zero().is_unit()
