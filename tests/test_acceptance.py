"""One test per acceptance criterion; every check is exact (integer or
symbolic equality), no tolerances anywhere.  A per-criterion pass/fail
summary is printed by the conftest terminal hook."""

from kleinverify import (
    BezoutWitness,
    RPoly,
    SPoly,
    StaffordInstance,
    build_chain_data,
    check_certificate,
    default_witness,
    divides,
    equivalence_verdict,
    euler_characteristic,
    eval_word,
    full_report,
    in_V,
    no_monic_degree_one,
    parse_rpoly,
    parse_spoly,
    psi,
    splitting_check,
    stafford_verdict,
    verify_bezout,
    verify_factorization,
)
from kleinverify import builtin
from kleinverify.certificates import CertFactor, ConjugacyCertificate

import helpers

P = builtin.presentation_p()
Q = builtin.presentation_q()
INST = builtin.stafford_instance()
WITNESS = default_witness()


def test_a01_euler_characteristics():
    """chi(Q) = 2 - 2 + 1 = 1 and chi(P) = 1 - 2 + 1 = 0, exactly."""
    assert euler_characteristic(Q) == 1
    assert euler_characteristic(P) == 0


def test_a02_conjugacy_certificates():
    """Both shipped products of conjugates reduce to Q's relators."""
    cert1, cert2 = builtin.forward_certificates()
    assert cert1.target == Q.relators[0] and check_certificate(P, cert1)
    assert cert2.target == Q.relators[1] and check_certificate(P, cert2)


def test_a03_group_ring_relations():
    """y^-1 * x * y = x^-1 in the twisted ring; all relators die in the group."""
    y_inv, x, y = parse_spoly("y^-1"), SPoly.from_rpoly(parse_rpoly("x")), parse_spoly("y")
    assert y_inv * x * y == SPoly.from_rpoly(parse_rpoly("x^-1"))
    for rel in Q.relators + P.relators:
        assert eval_word(rel) == (0, 0)


def test_a04_boundary_factorization():
    """Row identities d2'(D1) = d2(D)*(y - x^-1), d2'(D2) = d2(D)*(x^3 - x - 1),
    with all rows produced by the free differential calculus under the one
    documented convention."""
    chains = build_chain_data(P, Q)
    # the factors are derived from the forward certificates' chain shadows
    factors = builtin.boundary_row_factors()
    assert factors == (parse_spoly("y - x^-1"), parse_spoly("x^3 - x - 1"))
    assert verify_factorization(chains, factors)


def test_a05_bezout_and_splitting():
    """The explicit unit combination evaluates to exactly 1 and induces a
    splitting: psi.t = id, pi^2 = pi, psi.pi = 0."""
    assert psi(WITNESS.beta, WITNESS.alpha, INST) == SPoly.one()
    assert verify_bezout(WITNESS, INST)
    assert splitting_check(WITNESS, INST)


def test_a06_divisibility_obstruction():
    """x^3 - x - 1 does not divide x^3 + x^2 - 1, so condition (ii) holds."""
    r = parse_rpoly("x^3 - x - 1")
    b = parse_rpoly("x^3 + x^2 - 1")
    assert divides(r, b) is False
    # independent confirmation: equal lengths force a single-term quotient
    # k * x^e, and no such candidate multiplies back to b
    for e in range(-2, 3):
        for k in (-2, -1, 1, 2):
            assert r * RPoly.monomial(e, k) != b
    assert no_monic_degree_one(INST) is True
    fragment = stafford_verdict(INST, WITNESS)
    assert fragment.condition_ii is True


def test_a07_witness_structure():
    """y*r + s*sigma(r) lies in V with y-span 1 and a non-unit top
    coefficient; y^2 - 1 lies in V and is monic; 1 is not in V."""
    degree_one, monic = helpers.witnesses(INST)
    assert degree_one == SPoly({1: INST.r, 0: INST.s * INST.r.sigma()})
    assert in_V(degree_one, INST)
    assert degree_one.span() == 1
    assert not degree_one.row(degree_one.max_degree).is_unit()
    assert monic == parse_spoly("y^2 - 1")
    assert in_V(monic, INST)
    assert monic.row(monic.max_degree).is_unit()
    assert not in_V(SPoly.one(), INST)


def test_a08_presentation_equivalence():
    """Both directions certified: Q's relators over P and P's relator over Q."""
    forward = list(builtin.forward_certificates())
    reverse = list(builtin.reverse_certificates())
    assert equivalence_verdict(P, Q, forward, reverse) is True
    # the reverse certificate is reproduced by replaying the derivation
    assert helpers.build_reverse_certificate() == reverse[0]


def test_a09_full_verdict_and_negative_controls():
    """Aggregate report all true; three corrupted inputs each flip their
    own flag and the aggregate."""
    report = full_report()
    assert report.all_ok
    assert all(value for _, value in report.flags())

    cert1, cert2 = builtin.forward_certificates()
    corrupted_cert = ConjugacyCertificate(
        cert1.target,
        (CertFactor(cert1.factors[0].conjugator, 0, -1), cert1.factors[1]),
        cert1.source,
    )
    bad_cert_report = full_report(forward_certs=[corrupted_cert, cert2])
    assert not bad_cert_report.pi1_ok and not bad_cert_report.all_ok

    # r = 1 is not the r of Q's row factors: every check on the instance fails
    unit_r_report = full_report(instance=StaffordInstance(RPoly.one(), INST.s))
    assert not unit_r_report.all_ok
    assert [name for name, ok in unit_r_report.flags() if not ok] == [
        "bezout_ok", "splitting_ok", "condition_i", "condition_ii", "witnesses_ok"]

    flipped = BezoutWitness(WITNESS.alpha, -WITNESS.beta)
    bad_witness_report = full_report(witness=flipped)
    assert not bad_witness_report.bezout_ok and not bad_witness_report.all_ok


def test_a10_property_suites():
    """Randomized suites at a fixed seed, at least 500 cases each:
    free-group axioms, ring axioms for both rings, the involution, the
    domain property, division recomposition, right-module closure of V,
    the fundamental derivative identity, and vanishing composites."""
    helpers.check_free_group_axioms(1000)
    helpers.check_rpoly_ring_axioms(500)
    helpers.check_spoly_ring_axioms(500)
    helpers.check_sigma_involution(500)
    helpers.check_domain_property(1000)
    helpers.check_division_recomposition(1000)
    helpers.check_v_right_module(500)
    helpers.check_fox_fundamental(500)
    helpers.check_chain_composite_zero(500)
