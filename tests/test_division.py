import random
import time

import pytest

from kleinverify import (
    RPoly,
    SPoly,
    StaffordInstance,
    divide,
    in_V,
    in_right_ideal,
    lift_kernel,
    monic_witness,
    no_monic_degree_one,
    parse_rpoly,
    parse_spoly,
    psi,
    witnesses,
    y_plus_s,
)
from kleinverify import builtin

from helpers import (
    SEED,
    check_division_recomposition,
    check_single_degree_span,
    check_v_right_module,
    rand_rpoly,
    rand_spoly,
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


def test_divide_jumps_cancelled_gap():
    # The top two rows cancel in the first step; walking the 10^6 empty
    # y-degrees below them one by one took seconds.
    f = parse_spoly("y^1000001 - y^1000000*(x^-1) + 1")
    start = time.perf_counter()
    res = divide(f, parse_rpoly("-x^-1"))
    assert time.perf_counter() - start < 0.5
    assert res == (SPoly.y(1000000), 0, RPoly.one())
    assert not in_V(f, StaffordInstance(RPoly.one(), S))


def test_single_degree_span():
    check_single_degree_span(500)


def test_in_right_ideal():
    assert in_right_ideal(parse_spoly("y^2 - 1"), S)
    assert in_right_ideal(SPoly.zero(), S)
    # single-degree elements are never in the ideal: nonzero products
    # (y+s)*q span at least two y-degrees
    rng = random.Random(SEED)
    for _ in range(100):
        c = rand_rpoly(rng, nonzero=True)
        m = rng.randint(-3, 3)
        assert not in_right_ideal(SPoly({m: c}), S)


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


def test_monic_witness_search_structure():
    # degree 1 has no solution for the main instance, degree 2 does
    assert monic_witness(INST) == parse_spoly("y^2 - 1")
    inst = StaffordInstance(RPoly.one(), S)
    assert monic_witness(inst) == y_plus_s(S)


def test_v_is_right_module():
    check_v_right_module(300)


def test_instance_requires_nonzero():
    with pytest.raises(ValueError):
        StaffordInstance(RPoly.zero(), S)
    with pytest.raises(ValueError):
        StaffordInstance(INST.r, RPoly.zero())
