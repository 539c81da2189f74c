import json
import random

import pytest

from kleinverify import (
    BezoutWitness,
    Presentation,
    RPoly,
    SPoly,
    StaffordInstance,
    Word,
    boundary_factor,
    build_chain_data,
    chain_composites_vanish,
    default_witness,
    expand_certificate,
    full_report,
    parse_rpoly,
    parse_spoly,
    parse_word,
    psi,
    splitting_check,
    stafford_verdict,
    verify_bezout,
    verify_factorization,
)
from kleinverify import builtin, division, laurent, verify
from kleinverify.certificates import CertFactor, ConjugacyCertificate, _row_factors
from kleinverify.cli import run

from helpers import (
    SEED,
    check_splitting_matches_bezout,
    check_splitting_matches_projector,
    counting,
    lift_kernel,
    rand_spoly,
    splitting_projector,
)

INST = builtin.stafford_instance()
WITNESS = default_witness()
P = builtin.presentation_p()
Q = builtin.presentation_q()
FACTORS = builtin.boundary_row_factors()
# The flags that rest on the instance (r, s) read from the row factors.
RING_FLAGS = ("bezout_ok", "splitting_ok", "condition_i", "condition_ii", "witnesses_ok")


def ring_flags_false_only(report, *also):
    """The ring flags, and the flags named in also, read false; the rest true."""
    false = set(RING_FLAGS + also)
    assert [name for name, ok in report.flags() if not ok] == [n for n, _ in report.flags() if n in false]
    assert not report.all_ok


def test_psi_zero():
    assert psi(SPoly.zero(), SPoly.zero(), INST).is_zero()


def test_psi_bezout_pair_is_one():
    assert psi(WITNESS.beta, WITNESS.alpha, INST) == SPoly.one()


def test_psi_kernel_pair():
    v = parse_spoly("y^2 - 1")
    assert psi(lift_kernel(v, INST), v, INST).is_zero()


def test_psi_right_linearity():
    rng = random.Random(SEED)
    for _ in range(200):
        u, v, w = (rand_spoly(rng) for _ in range(3))
        assert psi(u * w, v * w, INST) == psi(u, v, INST) * w


def test_chain_data_invariants():
    chains = build_chain_data(P, Q)
    assert chain_composites_vanish(chains)
    # a record read by field name or by position, in the order d2_p, d2_q, d1
    assert chains == (chains.d2_p, chains.d2_q, chains.d1)
    assert len(chains.d2_p) == len(chains.d1) == 2 and len(chains.d2_q) == 2


@pytest.mark.parametrize("relator", ["x", "y^-1 x y x^-1"])
def test_chain_composites_fail_for_a_relator_not_trivial_in_the_group(relator):
    # d1 . d2 maps a relator to its image in K minus 1 (Fox's fundamental
    # formula), which is nonzero for x and for y^-1 x y x^-1 = x^-2 in K.
    chains = build_chain_data(P, Presentation(P.generators, (parse_word(relator),)))
    assert not chain_composites_vanish(chains)


@pytest.mark.parametrize("generators", [("x",), ("y", "x")])
def test_chain_data_rejects_other_generators(generators):
    # Fewer generators, or the same ones in another order, give another
    # edge boundary column, so the two complexes share no basis.
    with pytest.raises(ValueError, match="presentations disagree on the edge boundary"):
        build_chain_data(P, Presentation(generators, ()))


def test_verify_factorization():
    chains = build_chain_data(P, Q)
    assert verify_factorization(chains, FACTORS)


def test_factorization_negative_control_swapped_relators():
    swapped = Presentation(Q.generators, (Q.relators[1], Q.relators[0]))
    chains = build_chain_data(P, swapped)
    assert not verify_factorization(chains, FACTORS)
    # with the factors swapped to match, the rows factor again
    f1, f2 = FACTORS
    assert verify_factorization(chains, (f2, f1))


def test_factorization_identity_factor():
    chains = build_chain_data(P, P)
    assert verify_factorization(chains, (SPoly.one(),))


def test_verify_bezout():
    assert verify_bezout(WITNESS, INST)


def test_reverse_certificate_shadow_is_an_independent_witness():
    # builtin keeps alpha/beta apart from the certificates on purpose: the
    # reverse certificate's chain shadow is a second, different witness.
    shadow = boundary_factor(Q, builtin.reverse_certificates()[0])
    assert sorted(shadow) == [0, 1]
    other = BezoutWitness(shadow[1], shadow[0])
    assert verify_bezout(other, INST)
    assert other != WITNESS


def test_builtin_constants_print_as_in_the_paper():
    # builtin reads r and s from the row factors and writes alpha and beta
    # as coefficient dicts; their text is the paper's.
    for value, text, parse in (
        (INST.r, "x^3 - x - 1", parse_rpoly),
        (INST.s, "-x^-1", parse_rpoly),
        (WITNESS.alpha, "(x^-3 - x^-4) + y^-1*(-1)", parse_spoly),
        (WITNESS.beta, "y^-1*(x^-1 + x^-2 - x^-4)", parse_spoly),
    ):
        assert str(value) == text and parse(text) == value


def test_bezout_negative_control_sign_flip():
    flipped = BezoutWitness(WITNESS.alpha, -WITNESS.beta)
    assert not verify_bezout(flipped, INST)
    assert not splitting_check(flipped, INST)


def test_bezout_trivial_instance():
    inst = StaffordInstance(RPoly.one(), parse_rpoly("-x^-1"))
    w = BezoutWitness(SPoly.one(), SPoly.zero())
    assert verify_bezout(w, inst)
    assert splitting_check(w, inst)


def test_bezout_witness_requires_spolys():
    # alpha and beta are multiplied as SPolys, so the witness checks them,
    # as StaffordInstance checks r and s; otherwise an RPoly alpha would
    # raise AttributeError out of full_report, which never re-raises
    for alpha, beta in ((RPoly({0: 1}), SPoly.one()), (SPoly.one(), 1), (None, SPoly.zero())):
        with pytest.raises(ValueError) as err:
            BezoutWitness(alpha, beta)
        assert str(err.value) == "witness requires alpha and beta to be SPolys"


def test_splitting_check():
    assert splitting_check(WITNESS, INST)


def test_splitting_check_matches_projector():
    # splitting_check writes psi.pi's columns out with no projector; they
    # must be psi of splitting_projector's columns
    seen = check_splitting_matches_projector(120)
    assert seen["alpha"] == seen["beta"] == 60, seen


def test_full_report_work_is_pinned():
    # Each check computes its products: 4 factorization, 2 unit
    # combination, 8 splitting and 4 witness SPoly products; s*sigma(r),
    # once for condition (ii) and the degree-1 element, and three more
    # witness rows as RPoly products; condition (ii)'s one quotient.  Around them nothing goes through the public SPoly(...)
    # or negates an SPoly.
    full_report()
    with counting(SPoly, "__mul__", "__init__", "__neg__") as spoly, \
            counting(RPoly, "__mul__") as rpoly, counting(division, "quotient") as division_calls:
        report = full_report()
    assert report.all_ok
    assert spoly == {"__mul__": 18, "__init__": 0, "__neg__": 0}
    assert rpoly == {"__mul__": 4}
    assert division_calls == {"quotient": 1}


def test_projector_lands_in_kernel():
    rng = random.Random(SEED + 1)
    proj = splitting_projector(WITNESS, INST)
    vectors = [
        (SPoly.one(), SPoly.zero()),
        (SPoly.zero(), SPoly.one()),
    ] + [(rand_spoly(rng), rand_spoly(rng)) for _ in range(100)]
    for u, v in vectors:
        pu = proj[0][0] * u + proj[0][1] * v
        pv = proj[1][0] * u + proj[1][1] * v
        assert psi(pu, pv, INST).is_zero()


def test_stafford_verdict_default_instance():
    verdict = stafford_verdict(INST, WITNESS)
    assert verdict.condition_i
    assert verdict.condition_ii
    assert verdict.witnesses_ok
    assert verdict.monic == parse_spoly("y^2 - 1")
    # a record read by field name or by position, in the order below
    assert verdict._fields == ("condition_i", "condition_ii", "witnesses_ok", "degree_one", "monic")
    assert verdict == (True, True, True, verdict.degree_one, verdict.monic)


def test_stafford_verdict_unit_r():
    inst = StaffordInstance(RPoly.one(), INST.s)
    verdict = stafford_verdict(inst, None)
    assert not verdict.condition_ii
    assert not verdict.witnesses_ok


def test_stafford_verdict_divisible_pair():
    # s = r gives s*sigma(r) = r*sigma(r), divisible by r: condition (ii) fails
    inst = StaffordInstance(INST.r, INST.r)
    verdict = stafford_verdict(inst, None)
    assert not verdict.condition_ii


def test_full_report_defaults():
    report = full_report()
    assert report.all_ok
    for name, value in report.flags():
        assert value, name


def test_full_report_determinism():
    a, b = full_report(), full_report()
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_full_report_negative_control_bad_certificate():
    cert1, cert2 = builtin.forward_certificates()
    corrupted = ConjugacyCertificate(
        cert1.target,
        (CertFactor(cert1.factors[0].conjugator, 0, -1), cert1.factors[1]),
        cert1.source,
    )
    report = full_report(forward_certs=[corrupted, cert2])
    # the corrupted certificate has no chain shadow, so no row factors and
    # no instance (r, s) to run the ring checks on
    ring_flags_false_only(report, "pi1_ok", "factorization_ok")
    inputs = report.inputs
    assert inputs["row_factors"] is None
    assert (inputs["r"], inputs["s"], inputs["degree_one_witness"], inputs["monic_witness"]) == (None,) * 4
    assert json.loads(report.to_json())["inputs"] == inputs
    lines = report.to_text().splitlines()
    assert lines[2] == "[FAIL] factorization_ok boundary rows: no row factors derived"
    assert lines[3] == "[FAIL] bezout_ok        unit combination: no instance (r, s) read from the row factors"
    assert lines[8] == "NOT VERIFIED: at least one check failed"


def test_full_report_derives_row_factors_from_given_certificates():
    # Q' = <x, y | R, C> with R = P's relator and C a product of three
    # conjugates of R: its row factors are the certificates' chain shadows,
    # 1 and x^-1 - y + y^-1 x^-2, not the built-in Q's.
    (rel,) = P.relators
    factors = [CertFactor(parse_word(w), 0, e) for w, e in (("x", 1), ("y^-1", -1), ("x^2 y", 1))]
    c = expand_certificate(P, ConjugacyCertificate(rel, factors))
    q_prime = Presentation(P.generators, (rel, c))
    fwd = [ConjugacyCertificate(rel, (CertFactor(parse_word("1"), 0, 1),), "P"),
           ConjugacyCertificate(c, factors, "P")]
    # each factor goes with the relator its certificate names, in either order
    for certs in (fwd, fwd[::-1]):
        report = full_report(presentation_q=q_prime, forward_certs=certs)
        assert report.factorization_ok
        assert report.inputs["row_factors"] == [str(SPoly.one()), str(parse_spoly("x^-1 - y + y^-1*(x^-2)"))]
        assert report.to_text().splitlines()[2] == (
            "[ok  ] factorization_ok boundary rows: d2'(D1) = d2(D)*[(1)]"
            " and d2'(D2) = d2(D)*[y*(-1) + (x^-1) + y^-1*(x^-2)]"
        )
        # the reverse certificate is over the built-in Q, whose relators Q'
        # lacks, and no instance (r, s) is read from the factors 1 and
        # x^-1 - y + ...: Q' contains P's relator, so its second homotopy
        # module is free
        ring_flags_false_only(report, "pi1_ok")
        assert report.inputs["r"] is None and report.inputs["s"] is None
        assert report.to_text().splitlines()[3] == (
            "[FAIL] bezout_ok        unit combination: no instance (r, s) read from the row factors")


def test_full_report_pairs_builtin_certificates_with_the_given_q():
    # Q with its relators swapped: the built-in certificates, left out or
    # passed, go with the relators they name, so both reports agree, and
    # the boundary rows factor; only the reverse certificate, which names
    # relators by index, fails.
    q = builtin.presentation_q()
    swapped = Presentation(q.generators, q.relators[::-1])
    left_out = full_report(presentation_q=swapped)
    passed = full_report(presentation_q=swapped, forward_certs=builtin.forward_certificates())
    assert left_out.flags() == passed.flags()
    assert left_out.to_text() == passed.to_text()
    assert left_out.factorization_ok and not left_out.pi1_ok


def test_full_report_pairs_certificates_with_the_relators_they_name():
    # The built-in certificates reversed verify as they are: the factors
    # follow Q's relators, and only inputs keeps the caller's order.
    fwd = builtin.forward_certificates()
    report, reference = full_report(forward_certs=fwd[::-1]), full_report()
    assert report.all_ok
    assert report.to_text() == reference.to_text()
    got, want = report.to_json_dict(), reference.to_json_dict()
    assert got["inputs"].pop("certificates_Q_over_P") == [str(c.target) for c in fwd[::-1]]
    want["inputs"].pop("certificates_Q_over_P")
    assert got == want


def test_row_factors_keep_the_place_of_a_certificate_naming_no_relator():
    # A certificate whose target is none of the relators goes after the
    # others, which keep their relator order; ties keep the given order.
    cert1, cert2 = builtin.forward_certificates()
    stray = ConjugacyCertificate(Word(), ())
    f1, f2 = FACTORS
    zero = SPoly.zero()
    assert _row_factors(P, Q.relators, [stray, cert2, cert1]) == [f1, f2, zero]
    assert _row_factors(P, Q.relators, [cert2, stray, cert2, cert1]) == [f1, f2, f2, zero]


def test_chi_line_follows_presentations():
    q3 = Presentation(Q.generators, Q.relators + P.relators)
    report = full_report(presentation_q=q3)
    assert not report.chi_ok
    assert report.to_text().splitlines()[0] == (
        "[FAIL] chi_ok           Euler characteristics: chi(Q) = 3 - 2 + 1 = 2 and chi(P) = 1 - 2 + 1 = 0"
    )


def test_full_report_negative_control_unit_r():
    # r = 1 is not the r of Q's row factors, so the claim reads false
    inst = StaffordInstance(RPoly.one(), INST.s)
    report = full_report(instance=inst)
    ring_flags_false_only(report)
    assert (report.inputs["r"], report.inputs["s"]) == ("1", "-x^-1")


def sigma_image(f):
    """sigma applied to every row of an SPoly."""
    return SPoly({m: a.sigma() for m, a in f.rows()})


def test_full_report_sigma_image_instance_reads_false():
    # (sigma(r), sigma(s)) with the sigma-image witness passes the unit
    # combination, the splitting and both conditions on its own, but it is
    # not the instance of Q's row factors y - x^-1 and x^3 - x - 1.
    inst = StaffordInstance(INST.r.sigma(), INST.s.sigma())
    w = BezoutWitness(sigma_image(WITNESS.alpha), sigma_image(WITNESS.beta))
    verdict = stafford_verdict(inst, w)
    assert verdict.condition_i and verdict.condition_ii and verdict.witnesses_ok
    assert splitting_check(w, inst)
    report = full_report(instance=inst, witness=w)
    ring_flags_false_only(report)
    lines = report.to_text().splitlines()
    assert lines[2] == PAPER_TEXT.splitlines()[2]
    assert lines[3] == (
        "[FAIL] bezout_ok        unit combination: not checked: the claim (r, s) = (-1 - x^-1 + x^-3, -x)"
        " is not the instance read from the row factors, (x^3 - x - 1, -x^-1)")
    assert lines[8] == "NOT VERIFIED: at least one check failed"


def test_full_report_claimed_instance_checks_it_against_the_factors():
    # a caller's instance equal to the one read from the factors passes;
    # one that differs runs none of the ring checks
    assert full_report(instance=StaffordInstance(INST.r, INST.s)).to_json() == full_report().to_json()
    inst = StaffordInstance(INST.r, INST.r)
    full_report(instance=inst)
    with counting(division, "quotient") as quotients, counting(verify, "verify_bezout") as bezout:
        report = full_report(instance=inst)
    assert quotients == {"quotient": 0} and bezout == {"verify_bezout": 0}
    ring_flags_false_only(report)


def test_full_report_builds_inputs_only_when_read():
    full_report()
    with counting(SPoly, "__str__") as spoly, counting(RPoly, "__str__") as rpoly:
        report = full_report()
        assert report.all_ok
    assert spoly == {"__str__": 0} and rpoly == {"__str__": 0}
    # read, inputs is the printed form of the values checked
    assert report.inputs == json.loads(PAPER_JSON)["inputs"]


def test_full_report_negative_control_bad_witness():
    flipped = BezoutWitness(WITNESS.alpha, -WITNESS.beta)
    report = full_report(witness=flipped)
    assert not report.bezout_ok
    assert not report.splitting_ok
    assert not report.condition_i
    assert not report.all_ok
    assert report.chi_ok and report.pi1_ok and report.factorization_ok


def test_report_json_shape():
    data = json.loads(full_report().to_json())
    expected_keys = [
        "chi_ok",
        "pi1_ok",
        "factorization_ok",
        "bezout_ok",
        "splitting_ok",
        "condition_i",
        "condition_ii",
        "witnesses_ok",
        "all_ok",
        "inputs",
    ]
    assert list(data.keys()) == expected_keys
    assert data["all_ok"] is True
    assert data["inputs"]["r"] == "x^3 - x - 1"


PAPER_TEXT = """\
[ok  ] chi_ok           Euler characteristics: chi(Q) = 2 - 2 + 1 = 1 and chi(P) = 1 - 2 + 1 = 0
[ok  ] pi1_ok           presentation equivalence: every relator certified over the other presentation
[ok  ] factorization_ok boundary rows: d2'(D1) = d2(D)*[y*(1) + (-x^-1)] and d2'(D2) = d2(D)*[(x^3 - x - 1)]
[ok  ] bezout_ok        unit combination: (x^3-x-1)*alpha + (y - x^-1)*beta = 1
[ok  ] splitting_ok     explicit splitting: psi.t = id, pi^2 = pi, psi.pi = 0
[ok  ] condition_i      r*S + (y+s)*S = S, witnessed by the unit combination
[ok  ] condition_ii     s*sigma(r) is not divisible by r in Z[x, x^-1]
[ok  ] witnesses_ok     V holds a span-1 element with non-unit top coefficient and a monic element
VERIFIED: the second homotopy module is stably free and not free, on a complex with chi = 1 \
and Klein bottle fundamental group"""


def test_paper_report_text():
    assert full_report().to_text() == PAPER_TEXT


PAPER_JSON = """\
{
  "chi_ok": true,
  "pi1_ok": true,
  "factorization_ok": true,
  "bezout_ok": true,
  "splitting_ok": true,
  "condition_i": true,
  "condition_ii": true,
  "witnesses_ok": true,
  "all_ok": true,
  "inputs": {
    "presentation_P": {
      "generators": [
        "x",
        "y"
      ],
      "relators": [
        "y^-1 x y x"
      ]
    },
    "presentation_Q": {
      "generators": [
        "x",
        "y"
      ],
      "relators": [
        "y^-2 x y^2 x^-1",
        "x^-3 y^-1 x y x^2 y^-1 x^-2 y"
      ]
    },
    "certificates_Q_over_P": [
      "y^-2 x y^2 x^-1",
      "x^-3 y^-1 x y x^2 y^-1 x^-2 y"
    ],
    "row_factors": [
      "y*(1) + (-x^-1)",
      "(x^3 - x - 1)"
    ],
    "certificates_P_over_Q": [
      "y^-1 x y x"
    ],
    "r": "x^3 - x - 1",
    "s": "-x^-1",
    "alpha": "(x^-3 - x^-4) + y^-1*(-1)",
    "beta": "y^-1*(x^-1 + x^-2 - x^-4)",
    "degree_one_witness": "y*(x^3 - x - 1) + (x^-1 + x^-2 - x^-4)",
    "monic_witness": "y^2*(1) + (-1)"
  }
}
"""


def test_paper_report_json(capsys):
    assert run(["verify-paper", "--format", "json"]) == 0
    assert capsys.readouterr().out == PAPER_JSON


def test_flag_descriptions_follow_instance():
    inst = StaffordInstance(parse_rpoly("2*x^2 + x - 3"), parse_rpoly("x^2"))
    report = full_report(instance=inst)
    # the claimed instance is not the factors' one, so its checks read false
    ring_flags_false_only(report)
    lines = report.to_text().splitlines()
    assert lines[3] == (
        "[FAIL] bezout_ok        unit combination: not checked: the claim (r, s) = (2*x^2 + x - 3, x^2)"
        " is not the instance read from the row factors, (x^3 - x - 1, -x^-1)")
    # the row factors are the forward certificates' shadows, whatever the instance
    assert lines[2] == PAPER_TEXT.splitlines()[2]
    # every other flag line is the paper's, but for the marks of the false flags
    paper = PAPER_TEXT.replace("[ok  ]", "[FAIL]").splitlines()
    marked = report.to_text().replace("[ok  ]", "[FAIL]").splitlines()
    assert [i for i in range(8) if marked[i] != paper[i]] == [3]
    # a claim with no instance read to hold it to: a corrupted certificate
    # leaves no row factors
    cert1, cert2 = builtin.forward_certificates()
    corrupted = ConjugacyCertificate(
        cert1.target, (CertFactor(cert1.factors[0].conjugator, 0, -1), cert1.factors[1]), cert1.source)
    report = full_report(instance=inst, forward_certs=[corrupted, cert2])
    ring_flags_false_only(report, "pi1_ok", "factorization_ok")
    assert report.to_text().splitlines()[3] == (
        "[FAIL] bezout_ok        unit combination: not checked: the claim (r, s) = (2*x^2 + x - 3, x^2)"
        " has no instance read from the row factors to match")
    assert (report.inputs["r"], report.inputs["s"]) == ("2*x^2 + x - 3", "x^2")


def test_full_report_checks_bezout_once(monkeypatch):
    calls = []
    real = verify.verify_bezout

    def counted(w, inst=None):
        calls.append(inst)
        return real(w, inst)

    monkeypatch.setattr(verify, "verify_bezout", counted)
    report = full_report()
    assert report.bezout_ok and report.condition_i and report.splitting_ok
    # once for bezout_ok, condition_i and the psi.t = id part of splitting_ok
    assert len(calls) == 1


def test_stafford_verdict_checks_each_witness_once():
    with counting(division, "divide", "in_V", "quotient") as counts:
        verdict = stafford_verdict(INST, WITNESS)
    assert verdict.condition_i and verdict.condition_ii and verdict.witnesses_ok
    # each witness is checked by one product identity, with no division;
    # the one quotient is condition (ii)'s
    assert counts == {"divide": 0, "in_V": 0, "quotient": 1}


def test_stafford_verdict_asks_degree_one_divisibility_once():
    # condition_ii and the monic witness y + s*sigma(r)/r both ask
    # whether r divides s*sigma(r); the verdict asks it once, and the
    # other monic witness, y^2 - s*sigma(s), asks no quotient.  A dense r
    # of 301 terms takes the Kronecker path; a palindromic one is
    # reciprocal, so y + s*sigma(r)/r is the monic witness.
    rng = random.Random(SEED)
    coeffs = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(301)]
    palindrome = coeffs[:151] + coeffs[:150][::-1]
    s = parse_rpoly("-x^-5")
    dense, reciprocal = (StaffordInstance(RPoly(dict(enumerate(cs, -3))), s) for cs in (coeffs, palindrome))
    # instance, condition_ii, witnesses_ok
    for inst, condition_ii, witnesses_ok in (
        (INST, True, True),
        (dense, True, True),
        (reciprocal, False, False),
    ):
        # laurent.divides would call laurent.quotient, not division's name for it
        with counting(division, "quotient") as counts, counting(laurent, "quotient") as inner:
            verdict = stafford_verdict(inst, None)
        assert counts["quotient"] + inner["quotient"] == 1
        assert (verdict.condition_ii, verdict.witnesses_ok) == (condition_ii, witnesses_ok)
    # sigma(r) = x^-294 r, so s*sigma(r)/r = -x^-299
    assert verdict.monic == parse_spoly("y - x^-299")


def test_full_report_corrupt_witness_quotient_reads_false(monkeypatch):
    # A monic witness whose quotient is off by one fails r*v == (y + s)*q,
    # so witnesses_ok reads false; no other flag depends on it.
    build = verify._witness_pairs

    def corrupted(inst):
        cofactor, (degree_one, (v, q)) = build(inst)
        return cofactor, (degree_one, (v, q + SPoly.one()))

    monkeypatch.setattr(verify, "_witness_pairs", corrupted)
    report = full_report()
    assert not report.witnesses_ok and not report.all_ok
    assert all(ok for name, ok in report.flags() if name != "witnesses_ok")
    assert report.inputs["monic_witness"] is None


def test_splitting_matches_bezout():
    check_splitting_matches_bezout(500)


def test_full_report_bezout_error_reads_false(monkeypatch):
    def broken(w, inst=None):
        raise ValueError("corrupt witness")

    monkeypatch.setattr(verify, "verify_bezout", broken)
    report = full_report()
    assert not report.bezout_ok and not report.condition_i and not report.splitting_ok
    assert report.chi_ok and report.condition_ii and report.witnesses_ok
