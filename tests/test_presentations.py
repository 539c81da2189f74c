import hashlib
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
    Combo,
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


@pytest.mark.parametrize("name", ["y y", "", "3", "x^2", "x-1", " x", 1, None])
def test_presentation_rejects_a_name_no_word_can_use(name):
    # A generator must be a name the word grammar reads, as in Word(...).
    with pytest.raises(ValueError, match="is not a letter followed by letters, digits or _"):
        Presentation(("x", name), ())
    if isinstance(name, str):
        with pytest.raises(ValueError) as exc:
            Presentation.from_dict({"generators": ["x", name], "relators": ["x"]})
        assert str(exc.value).startswith(f"generator name {name!r} ")


def test_presentation_accepts_every_grammar_name():
    p = Presentation.from_strings(("a", "B7", "x_1", "z__"), ("a B7^-1 x_1^2 z__",))
    assert euler_characteristic(p) == -2


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
    assert fox_derivative(x, "x") == Combo.term(Word())
    assert fox_derivative(x, "y") == FreeCombo()
    assert fox_derivative(parse_word("x y"), "y") == Combo.term(x)
    assert fox_derivative(parse_word("x^-1"), "x") == Combo.term(
        parse_word("x^-1"), -1
    )


def test_fox_derivative_is_fast():
    # Summing each run into a new combination copies every term so far,
    # which is cubic in the word; one dict costs the size of the output.
    # Printing formats each of the 1500 words once; the text is 4.9 MB.
    w = parse_word(" ".join(["x y x^2 y^-1"] * 500))
    start = time.perf_counter()
    combo = fox_derivative(w, "x")
    assert time.perf_counter() - start < 3.0
    assert len(combo.items()) == 1500
    start = time.perf_counter()
    text = str(combo)
    assert time.perf_counter() - start < 3.0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "edf87cb55e26e579eb6f73daa3a192a2013e23e01aecd893a2978d40dc8d3d15"
    )


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
        c = Combo.term(u, 2) + Combo.term(v, -3)
        assert c.star().star() == c
        assert Combo.term(u * v).star() == Combo.term(~v * ~u)
