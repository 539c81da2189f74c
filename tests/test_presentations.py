import json
import random
import time

import pytest

from kleinverify import (
    FreeCombo,
    Presentation,
    Word,
    boundary_matrices,
    euler_characteristic,
    eval_combo,
    fox_derivative,
    parse_spoly,
    parse_word,
)
from kleinverify import builtin

from helpers import (
    SEED,
    check_chain_composite_zero,
    check_fox_fundamental,
    check_fox_product_rule,
    rand_word,
)


def test_euler_characteristic():
    assert euler_characteristic(builtin.presentation_q()) == 1
    assert euler_characteristic(builtin.presentation_p()) == 0
    assert euler_characteristic(Presentation(("x",), ())) == 0


def test_presentation_validates_generators():
    with pytest.raises(ValueError):
        Presentation(("x",), (parse_word("x y"),))
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())


def test_presentation_json_roundtrip(tmp_path):
    q = builtin.presentation_q()
    data = q.to_dict()
    assert data == {
        "generators": ["x", "y"],
        "relators": ["y^-2 x y^2 x^-1", "x^-3 y^-1 x y x^2 y^-1 x^-2 y"],
    }
    assert Presentation.from_dict(json.loads(json.dumps(data))) == q


def test_fox_axioms():
    x = parse_word("x")
    assert fox_derivative(x, "x") == FreeCombo.term(Word())
    assert fox_derivative(x, "y").is_zero()
    assert fox_derivative(parse_word("x y"), "y") == FreeCombo.term(x)
    assert fox_derivative(parse_word("x^-1"), "x") == FreeCombo.term(
        parse_word("x^-1"), -1
    )


def test_fox_derivative_is_fast():
    # Summing each run into a new combination copies every term so far,
    # which is cubic in the word; one dict costs the size of the output.
    w = parse_word(" ".join(["x y x^2 y^-1"] * 500))
    start = time.perf_counter()
    combo = fox_derivative(w, "x")
    assert time.perf_counter() - start < 3.0
    assert len(combo.items()) == 1500


def test_fox_product_rule():
    check_fox_product_rule(500)


def test_fox_fundamental_identity():
    check_fox_fundamental(500)


def test_boundary_matrices_one_relator():
    d2, d1 = boundary_matrices(builtin.presentation_p(), eval_combo)
    assert len(d2) == 1 and len(d2[0]) == 2
    assert d2[0][0] == parse_spoly("y + (x)")
    assert d2[0][1] == parse_spoly("y*(x - 1)")
    assert d1 == [parse_spoly("x^-1 - 1"), parse_spoly("(-1) + y^-1*(1)")]


def test_boundary_matrices_two_relator():
    d2, _ = boundary_matrices(builtin.presentation_q(), eval_combo)
    assert d2[0][0] == parse_spoly("y^2 - 1")
    assert d2[0][1] == parse_spoly("y^2*(x^-1 - 1) + y*(x^-1 - 1)")
    assert d2[1][0] == parse_spoly("y*(x^3 - x - 1) + (x^4 - x^2 - x)")
    assert d2[1][1] == parse_spoly("y*(x^4 - x^3 - x^2 + 1)")


def test_trivial_relator_gives_zero_row():
    p = Presentation(("x", "y"), (Word(),))
    d2, _ = boundary_matrices(p, eval_combo)
    assert all(entry.is_zero() for entry in d2[0])


def test_composite_vanishes_on_random_presentations():
    check_chain_composite_zero(100)


def test_star_is_linear_anti_involution():
    rng = random.Random(SEED)
    for _ in range(200):
        u, v = rand_word(rng), rand_word(rng)
        c = FreeCombo.term(u, 2) + FreeCombo.term(v, -3)
        assert c.star().star() == c
        assert FreeCombo.term(u * v).star() == FreeCombo.term(~v * ~u)
