import random
import time

import pytest

from kleinverify import (
    RPoly,
    SPoly,
    StaffordInstance,
    divide,
    in_V,
    monic_witness,
    no_monic_degree_one,
    parse_rpoly,
    parse_spoly,
    psi,
    y_plus_s,
)
from kleinverify import builtin, division, walks

from helpers import (
    SEED,
    check_closed_form_witnesses,
    check_divide_dense_twists,
    check_division_recomposition,
    check_single_degree_span,
    check_unit_walk,
    check_v_right_module,
    counting,
    lift_kernel,
    rand_rpoly,
    rand_spoly,
    witnesses,
)

INST = builtin.stafford_instance()
S = INST.s


def test_divide_monic_example():
    res = divide(parse_spoly("y^2 - 1"), S)
    assert res.quotient == parse_spoly("y + (x)")
    assert res.remainder.is_zero()
    assert res.rem_degree == 0


def test_divide_nothing_to_reduce():
    f = SPoly.from_rpoly(INST.r)
    res = divide(f, S)
    assert res.quotient.is_zero()
    assert res.remainder == INST.r
    assert res.rem_degree == 0


def test_divide_zero():
    res = divide(SPoly.zero(), S)
    assert res.quotient.is_zero() and res.remainder.is_zero() and res.rem_degree == 0


def test_divide_recomposition():
    check_division_recomposition(1000)


def test_divide_by_dense_twists():
    check_divide_dense_twists(500)


def test_unit_walk_matches_one_step_reference():
    seen = check_unit_walk(500)
    # both step forms ran, on narrow rows and on rows sharing one support,
    # and exact multiples jumped their cancelled gaps
    assert seen["kind 0 two-step"] > seen["kind 0 one-step"] > 0, seen
    assert seen["kind 1 one-step"] > seen["kind 1 two-step"] > 0, seen
    assert seen["kind 2 jump"] >= 100 and seen["span >= 500"] >= 10, seen
    assert all(seen[k] >= 100 for k in ("e = 0", "e != 0", "s = x^e", "s = -x^e")), seen


def test_divide_walk_follows_s():
    # Every s takes the one walk, once per divide; only a several-term s
    # steps through the multiply kernel, a unit and a non-unit monomial
    # step inline.
    f = parse_spoly("y^3*(x^2 - 1) + y^2*(3) + y*(x - 4*x^-1) + (5)")
    for text, kernel in (("-x^-1", 0), ("1", 0), ("2*x^3", 0), ("x^2 - 1", 3)):
        s = parse_rpoly(text)
        with counting(walks, "_walk", "_mul_into") as calls:
            q, d, rem = divide(f, s)
        assert calls == {"_walk": 1, "_mul_into": kernel}, text
        assert y_plus_s(s) * q + SPoly.from_rpoly(rem, d) == f, text


def test_divide_jumps_cancelled_gap():
    # The top two rows cancel in the first step; walking the 10^6 empty
    # y-degrees below them one by one took seconds.
    f = parse_spoly("y^1000001 - y^1000000*(x^-1) + 1")
    start = time.perf_counter()
    res = divide(f, parse_rpoly("-x^-1"))
    assert time.perf_counter() - start < 0.5
    assert res == (parse_spoly("y^1000000"), 0, RPoly.one())
    assert not in_V(f, StaffordInstance(RPoly.one(), S))


def test_single_degree_span():
    check_single_degree_span(500)


def test_in_right_ideal():
    assert divide(parse_spoly("y^2 - 1"), S).remainder.is_zero()
    assert divide(SPoly.zero(), S).remainder.is_zero()
    # single-degree elements are never in the ideal: nonzero products
    # (y+s)*q span at least two y-degrees
    rng = random.Random(SEED)
    for _ in range(100):
        c = rand_rpoly(rng, nonzero=True)
        m = rng.randint(-3, 3)
        assert not divide(SPoly({m: c}), S).remainder.is_zero()


def test_in_V_examples():
    assert in_V(parse_spoly("y^2 - 1"), INST)
    degree_one = SPoly({1: INST.r, 0: INST.s * INST.r.sigma()})
    assert in_V(degree_one, INST)
    assert not in_V(SPoly.one(), INST)


def test_lift_kernel_examples():
    v = parse_spoly("y^2 - 1")
    u = lift_kernel(v, INST)
    assert y_plus_s(INST.s) * u == -(SPoly.from_rpoly(INST.r) * v)
    assert psi(u, v, INST).is_zero()

    assert lift_kernel(SPoly.zero(), INST).is_zero()

    w = SPoly({1: INST.r, 0: INST.s * INST.r.sigma()})
    uw = lift_kernel(w, INST)
    assert y_plus_s(INST.s) * uw == -(SPoly.from_rpoly(INST.r) * w)


def test_lift_kernel_rejects_nonmembers():
    with pytest.raises(ValueError):
        lift_kernel(SPoly.one(), INST)


def test_lift_kernel_random_members():
    rng = random.Random(SEED + 1)
    w1, w2 = witnesses(INST)
    for _ in range(200):
        v = w1 * rand_spoly(rng, max_rows=2) + w2 * rand_spoly(rng, max_rows=2)
        u = lift_kernel(v, INST)
        assert psi(u, v, INST).is_zero()


def test_no_monic_degree_one():
    assert no_monic_degree_one(INST) is True
    # s = 1 leaves sigma(r) itself, which r does not divide
    assert no_monic_degree_one(StaffordInstance(INST.r, RPoly.one())) is True
    # units r divide everything
    x = parse_rpoly("x")
    assert no_monic_degree_one(StaffordInstance(x, x)) is False
    assert no_monic_degree_one(StaffordInstance(RPoly.one(), S)) is False
    # s = r makes s*sigma(r) = r*sigma(r), trivially divisible by r
    assert no_monic_degree_one(StaffordInstance(INST.r, INST.r)) is False


def test_no_monic_degree_one_builds_no_witness():
    # Condition (ii)'s quotient alone: s*sigma(r) is the one RPoly product
    # and the quotient by r the one quotient; neither r*sigma(r) nor any
    # element of V is built.
    for inst in (INST, StaffordInstance(RPoly.one(), S)):
        with counting(RPoly, "__mul__") as products, counting(division, "quotient") as quotients, \
                counting(SPoly, "_of_rows") as spolys:
            no_monic_degree_one(inst)
        assert (products, quotients, spolys) == ({"__mul__": 1}, {"quotient": 1}, {"_of_rows": 0})


def test_witnesses_default_instance():
    degree_one, monic = witnesses(INST)
    assert degree_one == SPoly({1: INST.r, 0: INST.s * INST.r.sigma()})
    assert monic == parse_spoly("y^2 - 1")
    assert degree_one.span() == 1
    assert not degree_one.row(1).is_unit()
    assert monic.row(monic.max_degree).is_unit()


def test_witnesses_unit_instance():
    inst = StaffordInstance(RPoly.one(), S)
    degree_one, monic = witnesses(inst)
    assert monic == y_plus_s(S)  # y + s itself
    assert in_V(degree_one, inst) and in_V(monic, inst)


def test_monic_witness_closed_forms():
    # r does not divide s*sigma(r) for the main instance, so the monic
    # element is y^2 - s*sigma(s); for a unit r it is y + s*sigma(r)/r
    assert monic_witness(INST) == parse_spoly("y^2 - 1")
    inst = StaffordInstance(RPoly.one(), S)
    assert monic_witness(inst) == y_plus_s(S)


def test_closed_form_witnesses():
    check_closed_form_witnesses(600)


def test_v_is_right_module():
    check_v_right_module(500)


def test_instance_requires_nonzero():
    with pytest.raises(ValueError):
        StaffordInstance(RPoly.zero(), S)
    with pytest.raises(ValueError):
        StaffordInstance(INST.r, RPoly.zero())


def test_instance_from_factors_either_order():
    # the kernel of (u, v) -> f1*u + f2*v does not depend on the order
    ys, r = y_plus_s(S), SPoly.from_rpoly(INST.r)
    for factors in ((ys, r), (r, ys), [ys, r]):
        inst = StaffordInstance.from_factors(factors)
        assert (inst.r, inst.s) == (INST.r, S)
    assert StaffordInstance.from_factors(builtin.boundary_row_factors()) == INST


def test_instance_from_factors_rejects_other_shapes():
    ys, r = y_plus_s(S), SPoly.from_rpoly(INST.r)
    bad = [
        (y_plus_s(RPoly.zero()), r),  # s = 0: y alone
        (parse_spoly("y*(2) + (-x^-1)"), r),  # a non-unit y-row
        (parse_spoly("y*(-1) + (-x^-1)"), r),  # a y-row other than 1
        (parse_spoly("y^2 - x^-1"), r),  # y + s at the wrong y-degree
        (ys, parse_spoly("y*(x) + (x^3 - x - 1)")),  # r with two rows
        (ys, SPoly.from_rpoly(INST.r, 1)),  # r off y-degree 0
        (ys, SPoly.zero()),  # r = 0
        (ys, INST.r),  # r as an RPoly, not a row factor
        (ys, ys),
        (r, r),
        (ys,),
        (ys, r, r),
        (),
    ]
    for factors in bad:
        with pytest.raises(ValueError) as err:
            StaffordInstance.from_factors(factors)
        assert str(err.value) == "row factors are not y + s and r", factors


def test_instance_requires_rpolys():
    # the witnesses wrap r and s as rows with no check, so the instance checks them
    for r, s in ((1, S), (INST.r, -1), (SPoly.one(), S), (INST.r, y_plus_s(S))):
        with pytest.raises(ValueError) as err:
            StaffordInstance(r, s)
        assert str(err.value) == "instance requires r and s to be RPolys"
