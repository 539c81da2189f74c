import random
import time

import pytest

from kleinverify import (
    RPoly,
    SPoly,
    eval_combo,
    eval_word,
    parse_rpoly,
    parse_spoly,
    parse_word,
)
from kleinverify import FreeCombo, Presentation, boundary_data, boundary_matrices, fox_derivative
from kleinverify import PolySyntaxError, StaffordInstance, divide, fox, klein, walks, y_plus_s

from helpers import (
    SEED,
    Combo,
    assert_normalised,
    check_boundary_data_matches_oracle,
    check_eval_homomorphism,
    check_one_term_rows,
    check_operands_unchanged,
    check_parser_matches_oracle,
    check_spoly_dense_mul_matches_oracle,
    check_spoly_ring_axioms,
    check_sub_matches_add_neg,
    counting,
    group_mul,
    normal_form_oracle,
    parse_spoly_oracle,
    rand_rpoly,
    rand_spoly,
    rand_word,
    spoly_mul_oracle,
    spoly_of_group,
)


def test_group_mul_examples():
    assert group_mul((1, 1), (1, 1)) == (2, 0)
    assert group_mul((0, 0), (5, -3)) == (5, -3)
    # x * y and y * x^-1 agree: the defining relation
    assert group_mul((0, 1), (1, 0)) == group_mul((1, 0), (0, -1))


def test_group_mul_matches_rewriting_oracle():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        w = rand_word(rng)
        assert eval_word(w) == normal_form_oracle(w)


def test_eval_word_examples():
    assert eval_word(parse_word("y^-1 x y")) == (0, -1)
    assert eval_word(parse_word("y^-2 x y^2 x^-1")) == (0, 0)
    assert eval_word(parse_word("x^-3 y^-1 x y x^2 y^-1 x^-2 y")) == (0, 0)
    assert eval_word(parse_word("y^-1 x y x")) == (0, 0)
    assert eval_word(parse_word("1")) == (0, 0)


def test_eval_word_foreign_generator():
    with pytest.raises(ValueError):
        eval_word(parse_word("z"))


def test_eval_word_is_homomorphism():
    check_eval_homomorphism(500)


def test_twist_rule():
    y_inv = parse_spoly("y^-1")
    x = SPoly.from_rpoly(parse_rpoly("x"))
    y = parse_spoly("y")
    assert y_inv * x * y == SPoly.from_rpoly(parse_rpoly("x^-1"))


def test_monic_product():
    s = SPoly.from_rpoly(parse_rpoly("-x^-1"))
    y = parse_spoly("y")
    x = SPoly.from_rpoly(parse_rpoly("x"))
    assert (y + s) * (y + x) == parse_spoly("y^2 - 1")


def test_zero_has_no_y_degree():
    for name in ("min_degree", "max_degree"):
        with pytest.raises(ValueError, match="the zero element has no y-degree"):
            getattr(SPoly.zero(), name)


def test_multiplicative_identity():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        f = rand_spoly(rng)
        assert SPoly.one() * f == f


def test_ring_axioms_and_oracle():
    check_spoly_ring_axioms(500)


def test_mul_against_group_algebra_oracle():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        f, g = rand_spoly(rng), rand_spoly(rng)
        assert f * g == spoly_mul_oracle(f, g)


def test_mul_dense_rows_against_oracle():
    check_spoly_dense_mul_matches_oracle(500)


def test_eval_combo_examples():
    c = Combo.term(parse_word("y^-1")) + Combo.term(parse_word("x"), -1)
    assert eval_combo(c) == parse_spoly("y^-1*(1) + (-x)")

    cubic = (
        Combo.term(parse_word("x^3"))
        + Combo.term(parse_word("x"), -1)
        + Combo.term(parse_word("1"), -1)
    )
    assert eval_combo(cubic) == SPoly.from_rpoly(parse_rpoly("x^3 - x - 1"))
    assert eval_combo(Combo()).is_zero()
    # klein still resolves eval_combo, which moved into fox.
    assert klein.eval_combo is fox.eval_combo


def test_eval_combo_linearity():
    rng = random.Random(SEED + 4)
    for _ in range(200):
        u, v = rand_word(rng), rand_word(rng)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        combo = Combo.term(u, a) + Combo.term(v, b)
        expected = spoly_of_group(eval_word(u), a) + spoly_of_group(eval_word(v), b)
        assert eval_combo(combo) == expected


def test_eval_combo_is_linear_time():
    # Summing term by term copies every row so far, which is quadratic.
    w = parse_word(" ".join(["x y x^2 y^-1"] * 500))
    combo = FreeCombo({~u: c for u, c in fox_derivative(w, "x")._terms.items()})
    assert len(combo._terms) == 1500
    start = time.perf_counter()
    got = eval_combo(combo)
    assert time.perf_counter() - start < 0.5
    d2, _ = boundary_data(Presentation(("x", "y"), (w,)))
    assert got == d2[0][0]


def test_spoly_parse_print_roundtrip():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        f = rand_spoly(rng)
        assert parse_spoly(str(f)) == f


def test_spoly_parse_forms():
    assert parse_spoly("y^2*(1) + (-1)") == parse_spoly("y^2 - 1")
    assert parse_spoly("y - x^-1") == SPoly({1: RPoly.one(), 0: parse_rpoly("-x^-1")})
    assert parse_spoly("x^3 - x - 1") == SPoly.from_rpoly(parse_rpoly("x^3 - x - 1"))
    assert parse_spoly("y^-1*(x^-1 + x^-2 - x^-4)").row(-1) == parse_rpoly(
        "x^-1 + x^-2 - x^-4"
    )


def test_spoly_parse_is_linear_time():
    # 8000 terms, some sharing a y-degree, in all four term forms.
    rng = random.Random(SEED + 6)
    terms, chunks = [], []
    for _ in range(8000):
        m, coeff, sign = rng.randint(-3000, 3000), rand_rpoly(rng, nonzero=True), rng.choice("+-")
        form = rng.randrange(4)
        if form == 0:
            chunks.append(f"{sign} y^{m}*({coeff})")
        elif form == 1:
            coeff = RPoly.one()
            chunks.append(f"{sign} y^{m}")
        elif form == 2:
            m = 0
            chunks.append(f"{sign} ({coeff})")
        else:
            # unparenthesized, the sign covers one monomial only
            m, coeff = 0, RPoly.monomial(rng.randint(-4, 4), rng.randint(1, 9))
            chunks.append(f"{sign} {coeff}")
        terms.append((m, coeff if sign == "+" else -coeff))
    text = " ".join(chunks)
    start = time.perf_counter()
    got = parse_spoly(text)
    assert time.perf_counter() - start < 1.0
    rows = {}
    for m, coeff in terms:
        rows[m] = rows[m] + coeff if m in rows else coeff
    assert got == SPoly(rows)


def test_rpoly_parse_is_linear_time():
    # 30000 terms with repeated exponents, in random order and all forms.
    rng = random.Random(SEED + 7)
    terms, chunks = {}, []
    for _ in range(30000):
        e, c = rng.randint(-5000, 5000), rng.randint(1, 10**6)
        c = c if rng.random() < 0.5 else -c
        body = rng.choice((f"{abs(c)}*x^{e}", f"{abs(c)}x^{e}", f"{abs(c)} * x ^ {e}"))
        if e == 0 and rng.random() < 0.5:
            body = str(abs(c))
        chunks.append(("- " if c < 0 else "+ ") + body)
        terms[e] = terms.get(e, 0) + c
    text = " ".join(chunks)
    start = time.perf_counter()
    got = parse_rpoly(text)
    assert time.perf_counter() - start < 1.0
    assert got == RPoly(terms)


def test_spoly_parse_errors():
    for bad in ("", "y^*(1)", "y^2*(1", "q + 1"):
        with pytest.raises(PolySyntaxError):
            parse_spoly(bad)


def test_spoly_parse_matches_oracle():
    seen = check_parser_matches_oracle(1000, twisted=True)
    assert seen["equal"] >= 300 and seen["both rejected"] >= 300, seen


def test_spoly_parse_doubled_signs_and_newlines():
    # The oracle folded a doubled sign into the term after it and took
    # newlines for blanks; parse_rpoly already rejected both.
    assert parse_spoly_oracle("y^2 - - 1") == parse_spoly("y^2 + 1")
    assert parse_spoly_oracle("y^2*(1) - - x") == parse_spoly("y^2 + x")
    assert parse_spoly_oracle("y\n*(x)") == parse_spoly("y*(x)")
    for bad in ("y^2 - - 1", "y^2*(1) - - x", "y + -x", "- - 1 + y", "y\n*(x)", "y +\n1", "y\n"):
        with pytest.raises(PolySyntaxError):
            parse_spoly(bad)
    for bad in ("x - - 1", "x\n+1"):
        with pytest.raises(PolySyntaxError):
            parse_rpoly(bad)


def test_spoly_parse_dangling_star():
    assert parse_spoly_oracle("y + 2*") == parse_spoly("y + 2")
    for bad in ("y + 2*", "y*", "y^2 *", "y*x", "2*(x)", "y + 2*-x"):
        with pytest.raises(PolySyntaxError):
            parse_spoly(bad)


def test_spoly_parse_error_positions():
    cases = {
        "(x)(1)": "unexpected character '(' at position 3 in '(x)(1)'",
        "y^2 - - 1": "unexpected character '-' at position 6 in 'y^2 - - 1'",
        "y*(x^1 0)": "unexpected character '0' at position 7 in 'y*(x^1 0)'",
        "y^2*(x) + y^": "unexpected end of input in 'y^2*(x) + y^'",
        "y^" + "1" * 4301: "number longer than 4300 digits at position 2 in ",
    }
    for text, message in cases.items():
        with pytest.raises(PolySyntaxError) as err:
            parse_spoly(text)
        assert str(err.value).startswith(message)


def test_spoly_constructor_copies_and_drops_zero_rows():
    rows = {0: RPoly({0: 1}), 1: RPoly.zero(), 2: RPoly({0: 0, 1: False})}
    f = SPoly(rows)
    assert f._rows == {0: {0: 1}}
    rows[0], rows[3] = RPoly({0: 2}), RPoly({1: 1})
    assert f._rows == {0: {0: 1}} and str(f) == "(1)"
    assert SPoly({4: RPoly({2: False})}).is_zero()


def test_spoly_constructor_rejects_non_int_degree():
    # y^0.5*(1) used to print
    with pytest.raises(ValueError) as err:
        SPoly({0.5: RPoly.one()})
    assert str(err.value) == "y-degree 0.5 is not an int"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SPoly({0: 5}), "row 5 at y-degree 0 is not an RPoly"),
        (lambda: SPoly({0: {0: 1}}), "row {0: 1} at y-degree 0 is not an RPoly"),
        (lambda: SPoly({2: RPoly.one(), 1: None}), "row None at y-degree 1 is not an RPoly"),
        (lambda: SPoly.from_rpoly(3, 1), "row 3 at y-degree 1 is not an RPoly"),
        (lambda: SPoly.from_rpoly(RPoly.one(), 1.5), "y-degree 1.5 is not an int"),
        (lambda: y_plus_s(0), "row 0 at y-degree 0 is not an RPoly"),
        (lambda: y_plus_s({-1: -1}), "row {-1: -1} at y-degree 0 is not an RPoly"),
    ],
)
def test_spoly_constructors_reject_a_row_that_is_not_an_rpoly(build, message):
    # these raised AttributeError, which neither cli.run nor full_report catches
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_public_constructors_drop_a_zero_row():
    assert y_plus_s(RPoly.zero()) == SPoly({1: RPoly.one()})
    assert y_plus_s(RPoly.zero())._rows == {1: {0: 1}}
    assert SPoly.from_rpoly(RPoly.zero(), 3)._rows == {} and SPoly.from_rpoly(RPoly.zero(), 3).is_zero()
    assert SPoly.from_rpoly(RPoly({1: 2}), -2)._rows == {-2: {1: 2}}
    assert y_plus_s(RPoly({-1: -1})) == parse_spoly("y - x^-1")


def test_rows_are_coefficient_dicts_shared_at_the_edges():
    # A row is the RPoly's zero-free dict itself: the public constructors
    # unwrap it and row(), rows() and from_factors wrap it, all with no copy.
    a, b = RPoly({0: 1, 2: -3}), RPoly({-1: 5})
    f = SPoly({1: a, 0: b})
    assert f._rows[1] is a._coeffs and f._rows[0] is b._coeffs
    assert SPoly.from_rpoly(a, 2)._rows == {2: a._coeffs} and SPoly.from_rpoly(a, 2)._rows[2] is a._coeffs
    assert y_plus_s(b)._rows[0] is b._coeffs
    assert f.row(1) == a and f.row(1)._coeffs is a._coeffs and f.row(7) == RPoly.zero()
    assert [(m, row._coeffs) for m, row in f.rows()] == [(1, a._coeffs), (0, b._coeffs)]
    assert all(type(row) is RPoly for _, row in f.rows())
    inst = StaffordInstance.from_factors((SPoly.from_rpoly(a), y_plus_s(b)))
    assert inst == StaffordInstance(a, b) and inst.r._coeffs is a._coeffs and inst.s._coeffs is b._coeffs


def test_walks_over_1000_rows_build_no_rpoly():
    # Products, sums and comparisons of 1000-row elements read and write
    # coefficient dicts only: no RPoly is built and none is compared; a
    # division builds one, its remainder.
    rng = random.Random(SEED)
    rows = {m: rand_rpoly(rng, nonzero=True, max_terms=6, exp_range=(-8, 8)) for m in range(1000)}
    f, g = SPoly(rows), SPoly({m: rand_rpoly(rng, nonzero=True, max_terms=3) for m in range(1, 1001)})
    same = SPoly({m: RPoly(a._coeffs) for m, a in rows.items()})
    unit, two_terms = RPoly.monomial(-1, -1), RPoly({0: 2, 1: -1})
    ys_unit, ys_two = y_plus_s(unit), y_plus_s(two_terms)
    names = ("__init__", "_of_nonzero", "__eq__")
    with counting(RPoly, *names) as built:
        values = (ys_unit * f, f * ys_two, ys_two * f, f + g, f - g, -f, f - same)
        equal, unequal = f == same, f == g
    assert built == dict.fromkeys(names, 0), built
    assert equal and not unequal
    for v in values:
        assert_normalised(v)
    assert values[-1].is_zero() and values[3] - g == f and values[5] + f == SPoly.zero()
    for s, product in ((unit, values[0]), (two_terms, values[2])):
        with counting(RPoly, *names) as built:
            res = divide(product, s)
        assert built == {"__init__": 0, "_of_nonzero": 1, "__eq__": 0}, (str(s), built)
        assert res == (f, 0, RPoly.zero())


def test_sub_matches_add_neg():
    seen = check_sub_matches_add_neg(600, twisted=True)
    assert all(seen[kind] == 200 for kind in ("disjoint", "partial", "self")), seen
    assert 200 <= seen["zero difference"] < 600, seen


def test_spoly_parse_ascii_digits_only():
    for text, at in (("y^٣", 2), ("y*(٣x)", 3), ("(x) + y^2*(３)", 11), ("٣", 0)):
        with pytest.raises(PolySyntaxError) as err:
            parse_spoly(text)
        assert str(err.value) == f"unexpected character {text[at]!r} at position {at} in {text!r}"


def test_boundary_data_matches_oracle():
    check_boundary_data_matches_oracle(500)


def test_boundary_data_foreign_generator():
    for p in (
        Presentation(("x", "y", "z"), (parse_word("x z y"),)),
        Presentation(("x", "y", "z"), (parse_word("x y"),)),
    ):
        with pytest.raises(ValueError) as new:
            boundary_data(p)
        with pytest.raises(ValueError) as old:
            boundary_matrices(p, eval_combo)
        assert str(new.value) == str(old.value)


def test_operands_unchanged():
    ops = check_operands_unchanged(800)
    assert sum(ops.values()) == 800 and len(ops) == 8 and all(n >= 100 for n in ops.values()), ops


def test_one_term_rows_against_oracle():
    seen = check_one_term_rows(800)
    assert seen["c = +-1"] >= 200 and seen["|c| > 1"] >= 200, seen
    assert seen["odd p"] and seen["even p"], seen
    assert seen["cancelled row, odd p"] and seen["cancelled row, even p"], seen


def test_one_term_rows_make_no_kernel_call():
    # y + s with a unit s has two one-term rows, so the product with a
    # 50-row q and the division of that product by s make no call to
    # laurent._mul_into, as klein and walks each bind it; a two-term
    # s sends each of its 50 row pairs and 50 division steps there.
    rng = random.Random(SEED)
    q = SPoly({m: rand_rpoly(rng, nonzero=True, max_terms=11, exp_range=(-8, 8)) for m in range(50)})
    unit, two_terms = RPoly.monomial(-1, -1), RPoly({0: 1, 1: 1})
    for s, calls in ((unit, 0), (two_terms, 50)):
        with counting(klein, "_mul_into") as in_klein, counting(walks, "_mul_into") as in_walks:
            f = y_plus_s(s) * q
            res = divide(f, s)
        assert in_klein == {"_mul_into": calls} and in_walks == {"_mul_into": calls}, (str(s), in_klein, in_walks)
        assert res == (q, 0, RPoly.zero())
        assert f == spoly_mul_oracle(y_plus_s(s), q)
