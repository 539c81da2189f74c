import json
import random
import time

import pytest

from kleinverify import (
    CertFactor,
    ConjugacyCertificate,
    RPoly,
    SPoly,
    Word,
    boundary_factor,
    certificate_from_dict,
    check_certificate,
    equivalence_verdict,
    eval_word,
    expand_certificate,
    load_certificate,
    parse_spoly,
    parse_word,
)
from kleinverify import builtin

from helpers import (
    SEED,
    boundary_factor_oracle,
    build_reverse_certificate,
    cert_concat,
    cert_conjugate,
    cert_invert,
    certificate_to_dict,
    check_boundary_factor_matches_oracle,
    check_expand_matches_fold,
    rand_valid_certificate,
    rand_word,
)

P = builtin.presentation_p()
Q = builtin.presentation_q()
CERT1, CERT2 = builtin.forward_certificates()
REVERSE = builtin.reverse_certificates()[0]


def test_shipped_certificates_pass():
    assert check_certificate(P, CERT1)
    assert check_certificate(P, CERT2)
    assert check_certificate(Q, REVERSE)


def test_certificate_targets_are_the_relators():
    assert CERT1.target == Q.relators[0]
    assert CERT2.target == Q.relators[1]
    assert REVERSE.target == P.relators[0]


def test_empty_certificate():
    empty = ConjugacyCertificate(Word(), ())
    assert check_certificate(P, empty)
    nonempty_target = ConjugacyCertificate(parse_word("x"), ())
    assert not check_certificate(P, nonempty_target)


def test_index_out_of_range():
    # A negative index must not wrap round to the last relator, as a Python
    # index would.
    for rel in (7, 1, -1):
        bad = ConjugacyCertificate(Word(), (CertFactor(Word(), rel, 1),))
        for call in (expand_certificate, check_certificate, boundary_factor):
            with pytest.raises(IndexError, match=f"^relator index {rel} out of range$"):
                call(P, bad)


def test_boundary_factor_values():
    assert boundary_factor(P, CERT1) == {0: parse_spoly("y - x^-1")}
    assert boundary_factor(P, CERT2) == {0: parse_spoly("x^3 - x - 1")}
    assert boundary_factor(P, ConjugacyCertificate(Word(), ())) == {}


def test_boundary_factor_rejects_invalid():
    bad = ConjugacyCertificate(parse_word("x"), CERT1.factors)
    with pytest.raises(ValueError):
        boundary_factor(P, bad)


def _valid(src, factors) -> ConjugacyCertificate:
    return ConjugacyCertificate(expand_certificate(src, ConjugacyCertificate(Word(), factors)), factors)


def test_boundary_factor_matches_oracle():
    check_boundary_factor_matches_oracle(600)


def test_boundary_factor_is_linear_time():
    # 8000 distinct conjugators y x^i: a running SPoly sum copies the whole
    # sum at every factor and takes seconds here.
    n = 8000
    cert = _valid(P, tuple(CertFactor(Word((("y", 1), ("x", i))), 0, (-1) ** i) for i in range(n)))
    start = time.perf_counter()
    got = boundary_factor(P, cert)
    elapsed = time.perf_counter() - start
    assert got == {0: SPoly({-1: RPoly({i: (-1) ** i for i in range(n)})})}
    assert elapsed < 0.5, elapsed


def test_boundary_factor_foreign_generator():
    # The error names t, the first foreign letter of the inverse conjugator.
    cert = _valid(P, (CertFactor(parse_word("z t"), 0, 1),))
    for call in (boundary_factor, boundary_factor_oracle):
        with pytest.raises(ValueError, match="^foreign generator 't'; only x and y are defined$"):
            call(P, cert)


def test_boundary_factor_unaggregated():
    # Two factors on relator 0; their contributions sum to the row factor.
    assert [f.relator for f in CERT1.factors] == [0, 0]
    assert boundary_factor(P, CERT1) == {0: parse_spoly("y - x^-1")}


def test_concat_with_inverse_is_trivial():
    cert = cert_concat(CERT1, cert_invert(CERT1))
    assert cert.target.is_identity()
    assert check_certificate(P, cert)


def test_conjugated_certificate():
    y = parse_word("y")
    cert = cert_conjugate(CERT1, y)
    assert cert.target == y * CERT1.target * ~y
    assert check_certificate(P, cert)


def test_inverted_certificate():
    cert = cert_invert(CERT1)
    assert cert.target == parse_word("x y^-2 x^-1 y^2")
    assert check_certificate(P, cert)


def test_certificate_algebra_closure():
    rng = random.Random(SEED)
    for _ in range(150):
        src = P if rng.random() < 0.5 else Q
        c1 = rand_valid_certificate(rng, src)
        c2 = rand_valid_certificate(rng, src)
        assert check_certificate(src, cert_concat(c1, c2))
        assert check_certificate(src, cert_invert(c1))
        assert check_certificate(src, cert_conjugate(c1, rand_word(rng)))


def test_source_compatibility():
    with pytest.raises(ValueError):
        cert_concat(CERT1, REVERSE)


def test_soundness_targets_die_in_group():
    for cert, src in ((CERT1, P), (CERT2, P), (REVERSE, Q)):
        assert check_certificate(src, cert)
        assert eval_word(cert.target) == (0, 0)


def test_equivalence_verdict():
    assert equivalence_verdict(P, Q, [CERT1, CERT2], [REVERSE])
    assert equivalence_verdict(P, P, [trivial for trivial in _trivial_certs(P)], [t for t in _trivial_certs(P)])
    assert not equivalence_verdict(P, Q, [CERT1], [REVERSE])  # missing a direction
    assert not equivalence_verdict(P, Q, [CERT1, CERT2], [])


def test_equivalence_verdict_skips_an_out_of_range_certificate():
    # A certificate naming a relator the source lacks counts as not
    # certifying its target: the verdict reads on to the next one.
    stray = ConjugacyCertificate(REVERSE.target, (CertFactor(Word(), 5, 1),))
    assert equivalence_verdict(P, Q, [CERT1, CERT2], [stray, REVERSE])
    assert not equivalence_verdict(P, Q, [CERT1, CERT2], [stray])


def _trivial_certs(p):
    return [
        ConjugacyCertificate(rel, (CertFactor(Word(), i, 1),))
        for i, rel in enumerate(p.relators)
    ]


def test_equivalence_generator_mismatch():
    from kleinverify import Presentation

    other = Presentation(("x", "z"), ())
    with pytest.raises(ValueError):
        equivalence_verdict(P, other, [], [])


def test_replay_reproduces_shipped_reverse_certificate():
    replayed = build_reverse_certificate()
    assert replayed == REVERSE
    assert check_certificate(Q, replayed)


def test_json_roundtrip(tmp_path):
    data = certificate_to_dict(CERT2)
    assert certificate_from_dict(json.loads(json.dumps(data))) == CERT2
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_certificate(path) == CERT2


def test_factor_sign_validation():
    with pytest.raises(ValueError):
        CertFactor(Word(), 0, 2)


def test_expand_matches_fold():
    check_expand_matches_fold(600)
