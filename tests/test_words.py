import random
import time
from collections import namedtuple

import pytest

from kleinverify import Word, WordSyntaxError, builtin, expand_certificate, parse_word

from helpers import (
    SEED,
    check_free_group_axioms,
    conjugate,
    check_reduction_canonical,
    check_word_mul_matches_fold,
    check_word_pow_matches_fold,
    rand_valid_certificate,
    rand_word,
)


def test_parse_relator():
    w = parse_word("y^-1 x y x")
    assert w.letters == (("y", -1), ("x", 1), ("y", 1), ("x", 1))


def test_parse_cancels():
    assert parse_word("x x^-1").is_identity()


def test_parse_long_relator():
    w = parse_word("y^-2 x y^2 x^-1")
    assert w.letters == (("y", -2), ("x", 1), ("y", 2), ("x", -1))


def test_parse_identity_token():
    assert parse_word("1").is_identity()
    assert parse_word("").is_identity()
    # A word is false exactly when it is the identity.
    assert not parse_word("1") and not Word() and parse_word("x") and Word([("y", -2)])


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("x^")
    with pytest.raises(WordSyntaxError):
        parse_word("x^1.5")
    with pytest.raises(WordSyntaxError):
        parse_word("z", generators=("x", "y"))


def test_print_parse_roundtrip():
    rng = random.Random(SEED)
    for _ in range(200):
        w = rand_word(rng)
        assert parse_word(str(w)) == w
    assert str(Word()) == "1"


def test_multiply_examples():
    x = parse_word("x")
    assert (x * ~x).is_identity()
    assert parse_word("y^-1 x y") * x == parse_word("y^-1 x y x")
    w = parse_word("x^2 y^-1")
    assert Word() * w == w


def test_invert_examples():
    assert ~parse_word("y^-1 x y x") == parse_word("x^-1 y^-1 x^-1 y")
    assert (~Word()).is_identity()
    assert ~parse_word("x^3") == parse_word("x^-3")


def test_conjugate_examples():
    r = parse_word("y^-1 x y x")
    assert conjugate(r, parse_word("y^-1")) == parse_word("y^-2 x y x y")
    assert conjugate(r, Word()) == r
    assert conjugate(r, parse_word("x^-3")) == parse_word("x^-3 y^-1 x y x^4")


def test_conjugate_matches_definition():
    rng = random.Random(SEED)
    for _ in range(100):
        r, w = rand_word(rng), rand_word(rng)
        assert conjugate(r, w) == w * r * ~w


def test_reduction_is_canonical():
    check_reduction_canonical(600)


def test_reduction_merges_across_a_full_cancel():
    # y y^-1 cancels wholly; the x on either side then merge into x^2.
    assert Word([("x", 1), ("y", 1), ("y", -1), ("x", 1)]).letters == (("x", 2),)
    assert Word([("x", 2), ("y", 3), ("x", 1), ("x", -1), ("y", -3), ("x", -2)]).is_identity()
    assert Word([("y", 1), ("x", 2), ("y", -2), ("y", 2), ("x", -2), ("y", 1)]).letters == (("y", 2),)


def _plain(w):
    """Every letter of w is a plain (str, int) tuple with a nonzero exponent."""
    return all(
        type(letter) is tuple and len(letter) == 2 and type(letter[0]) is str
        and type(letter[1]) is int and letter[1]
        for letter in w.letters
    )


def test_reduction_stores_tuples_and_drops_zero_exponents():
    # Word(...) rebuilds each letter as a tuple, whatever pair it was given.
    Pair = namedtuple("Pair", "name exp")
    pairs = (("x", 1), ("y", 0), ("y", -2), ("x", 0), ("x", 3))
    for letters in (
        [["x", 1], ["y", 0], ["y", -2], ("x", 0), ["x", 3]],
        [Pair(*pair) for pair in pairs],
        (pair for pair in pairs),
    ):
        w = Word(letters)
        assert w.letters == (("x", 1), ("y", -2), ("x", 3))
        assert all(type(letter) is tuple for letter in w.letters)
    assert Word([("x", 0), ("y", 0)]).letters == ()
    # a zero exponent between two letters on one generator: they merge
    assert Word([("x", 2), ("y", 0), ("x", -1)]).letters == (("x", 1),)
    # bool exponents are ints: True stays as it is, False is dropped
    w = Word([("x", True), ("y", False), ["y", True]])
    assert w.letters == (("x", 1), ("y", 1))
    assert w.letters[0][1] is True and all(type(letter) is tuple for letter in w.letters)
    assert Word([("y", False)]).letters == ()
    # parse_word drops a token g^0 before it reduces
    assert parse_word("x x^0 x^-1 y^0").letters == ()
    assert parse_word("x^0 y^+0 y^-00").letters == ()
    assert parse_word("x^2 y^0 x^-1").letters == (("x", 1),)
    # The layer's own results hold only plain letters.
    rng = random.Random(SEED)
    for _ in range(200):
        w = parse_word(" ".join(f"{g}^{k} y^0" for g, k in rand_word(rng).letters))
        n = rng.randint(-5, 5)
        assert _plain(w) and _plain(~w) and _plain(w ** n)
    p = builtin.presentation_p()
    certs = [rand_valid_certificate(rng, p) for _ in range(50)]
    for cert in (*builtin.forward_certificates(), *certs):
        assert _plain(expand_certificate(p, cert))


def test_group_axioms():
    check_free_group_axioms(1000)


def test_word_pow():
    x = parse_word("x")
    assert x**3 == parse_word("x^3")
    assert x**-2 == parse_word("x^-2")
    assert (parse_word("x y") ** 0).is_identity()
    # A non-int power returns NotImplemented, so Python raises TypeError.
    with pytest.raises(TypeError):
        x**1.5


def test_mul_matches_fold():
    check_word_mul_matches_fold(600)


def test_pow_matches_fold():
    check_word_pow_matches_fold(600)


def test_long_pow_is_reduced():
    assert (parse_word("x y") ** 5000).letters == (("x", 1), ("y", 1)) * 5000
    w = parse_word("y x^2 y^-1")
    assert w ** 5000 == parse_word("y x^10000 y^-1")
    # (y x^2 y^-1) ** 10**6 once built 3 * 10**6 letters and reduced them
    # to three (1.6 s).  A power then peeled the word into u c u^-1 and
    # repeated the core c alone; it is now repeated squaring through
    # Word.__mul__, which cancels u^-1 u where two factors meet, so no
    # square outgrows its answer.  Each word is raised to +-10**4 first, so
    # a power that still repeats the whole word fails the bound there, well
    # inside a second, before it tries 10**12.  A many-letter core is not
    # raised to 10**12: its answer has 10**12 copies of the core.
    rng = random.Random(SEED)
    u = Word([(g, rng.choice((-2, -1, 1, 2))) for g in "yx" * 150])
    cases = (
        (parse_word("y"), "x^2"),
        (u, "y^-3"),
        # x^2 y x^-1: where two factors meet, x^-1 x^2 merges to x
        # rather than cancelling.
        (parse_word("x"), "x y"),
        (u, "y x^-2 y^3 x"),
    )
    for n in (10**4, -(10**4), 10**12):
        for conj, core in cases:
            c = parse_word(core)
            if n == 10**12 and len(c.letters) > 1:
                continue
            w = conj * c * ~conj
            start = time.perf_counter()
            got = w ** n
            elapsed = time.perf_counter() - start
            assert elapsed < 0.1, (core, n, elapsed)
            base = (c if n > 0 else ~c).letters
            if len(base) == 1:
                power = ((base[0][0], base[0][1] * abs(n)),)
            else:
                power = base * abs(n)
            assert got == Word(conj.letters + power + (~conj).letters)


def test_parse_ascii_digits_only():
    # "\d" once let other scripts' digits through: "x^٣" read as x^3.
    for text in ("x^٣", "y^-２", "x^1٣", "x y^٣"):
        with pytest.raises(WordSyntaxError, match="malformed token"):
            parse_word(text)


def test_parse_malformed_token_quote_is_bounded():
    # A token of up to 1000 characters is quoted whole; a longer one by its
    # length and a window around where the token's valid start ends.
    token = "x" * 999 + "-"
    with pytest.raises(WordSyntaxError) as err:
        parse_word("y " + token)
    assert str(err.value) == f"malformed token {token!r} at position 1"
    for text, window, lo in (
        ("x^" + "٣" * 100000, "x^" + "٣" * 39, 0),
        ("x" * 100000 + "-", "x" * 40 + "-", 99960),
    ):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text)
        message = str(err.value)
        assert message == (
            f"malformed token a text of {len(text)} characters, near {window!r}"
            f" from position {lo} at position 0"
        )
        assert len(message) < 130


def test_parse_exponent_digit_limit():
    big = int("9" * 4300)
    assert parse_word("x^" + "9" * 4300).letters == (("x", big),)
    assert parse_word("x^-" + "9" * 4300).letters == (("x", -big),)
    for text in ("y x^" + "1" * 4301, "y x^-" + "1" * 4301, "y x^+" + "1" * 10**5):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text)
        sign = text[4] if text[4] in "+-" else ""
        quoted = repr(("x^" + sign + "1" * 20)[:20])
        assert str(err.value) == f"exponent longer than 4300 digits in token {quoted}... at position 1"


def test_word_rejects_a_non_int_exponent():
    # It printed as x^1.5, and klein.eval_word read it as (0, 1.5).
    with pytest.raises(ValueError, match=r"exponent 1\.5 is not an int"):
        Word([("x", 1.5)])
    with pytest.raises(ValueError, match="exponent '2' is not an int"):
        Word([("y", "2")])


def test_word_rejects_a_name_that_is_not_a_generator_name():
    # Word([(1, 1)]) failed only when printed, with a TypeError.
    for name in (1, None, "", "1x", "x y", "x^2", "x\n"):
        with pytest.raises(ValueError, match="generator name"):
            Word([(name, 1)])


def test_word_accepts_bool_exponents_as_rpoly_does():
    assert Word([("x", True), ("y", False)]) == parse_word("x")
    assert str(Word([("g_1", 2), ("Ab9", -1)])) == "g_1^2 Ab9^-1"
