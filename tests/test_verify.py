import random

from kleinverify import (
    BezoutWitness,
    Presentation,
    RPoly,
    SPoly,
    StaffordInstance,
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
    splitting_projector,
    stafford_verdict,
    verify_bezout,
    verify_factorization,
)
from kleinverify import builtin, division, laurent, verify
from kleinverify.certificates import CertFactor, ConjugacyCertificate
from kleinverify.cli import run

from helpers import SEED, check_splitting_matches_bezout, counting, lift_kernel, rand_spoly

INST = builtin.stafford_instance()
WITNESS = default_witness()
P = builtin.presentation_p()
Q = builtin.presentation_q()
FACTORS = builtin.boundary_row_factors()


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
    # builtin writes them as coefficient dicts; their text is the paper's.
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


def test_splitting_check():
    assert splitting_check(WITNESS, INST)


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
    assert not report.pi1_ok
    # the corrupted certificate has no chain shadow, so no row factors
    assert not report.factorization_ok
    assert report.inputs["row_factors"] is None
    assert report.to_text().splitlines()[2] == "[FAIL] factorization_ok boundary rows: no row factors derived"
    assert not report.all_ok
    assert report.chi_ok and report.bezout_ok


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
    report = full_report(presentation_q=q_prime, forward_certs=fwd)
    assert report.factorization_ok
    assert report.inputs["row_factors"] == [str(SPoly.one()), str(parse_spoly("x^-1 - y + y^-1*(x^-2)"))]
    assert report.to_text().splitlines()[2] == (
        "[ok  ] factorization_ok boundary rows: d2'(D1) = d2(D)*[(1)]"
        " and d2'(D2) = d2(D)*[y*(-1) + (x^-1) + y^-1*(x^-2)]"
    )
    # the reverse certificate is over the built-in Q, whose relators Q' lacks
    assert not report.pi1_ok and not report.all_ok
    assert report.chi_ok and report.bezout_ok and report.witnesses_ok


def test_chi_line_follows_presentations():
    q3 = Presentation(Q.generators, Q.relators + P.relators)
    report = full_report(presentation_q=q3)
    assert not report.chi_ok
    assert report.to_text().splitlines()[0] == (
        "[FAIL] chi_ok           Euler characteristics: chi(Q) = 3 - 2 + 1 = 2 and chi(P) = 1 - 2 + 1 = 0"
    )


def test_full_report_negative_control_unit_r():
    inst = StaffordInstance(RPoly.one(), INST.s)
    report = full_report(instance=inst)
    assert not report.condition_ii
    assert not report.all_ok


def test_full_report_negative_control_bad_witness():
    flipped = BezoutWitness(WITNESS.alpha, -WITNESS.beta)
    report = full_report(witness=flipped)
    assert not report.bezout_ok
    assert not report.splitting_ok
    assert not report.condition_i
    assert not report.all_ok
    assert report.chi_ok and report.pi1_ok and report.factorization_ok


def test_report_json_shape():
    import json

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
    lines = full_report(instance=inst).to_text().splitlines()
    assert lines[3] == "[FAIL] bezout_ok        unit combination: (2*x^2+x-3)*alpha + (y + x^2)*beta = 1"
    # the row factors are the forward certificates' shadows, whatever the instance
    assert lines[2] == PAPER_TEXT.splitlines()[2]


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
    with counting(division, "in_V", "_reduction_scalars") as counts:
        verdict = stafford_verdict(INST, WITNESS)
    assert verdict.condition_i and verdict.condition_ii and verdict.witnesses_ok
    # one membership check per witness, one table of reduction scalars
    assert counts == {"in_V": 2, "_reduction_scalars": 1}


def test_stafford_verdict_asks_degree_one_divisibility_once():
    # condition_ii and the degree-1 step of the monic search both ask
    # whether r divides s*sigma(r); the verdict asks it once.  A dense r
    # of 301 terms takes the Kronecker path; a palindromic one is
    # reciprocal, so y + s*sigma(r)/r is the monic witness.
    rng = random.Random(SEED)
    coeffs = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(301)]
    palindrome = coeffs[:151] + coeffs[:150][::-1]
    s = parse_rpoly("-x^-5")
    dense, reciprocal = (StaffordInstance(RPoly(dict(enumerate(cs, -3))), s) for cs in (coeffs, palindrome))
    # instance, quotient calls, condition_ii, witnesses_ok
    for inst, calls, condition_ii, witnesses_ok in (
        (INST, 2, True, True),
        (dense, 2, True, True),
        (reciprocal, 1, False, False),
    ):
        # laurent.divides would call laurent.quotient, not division's name for it
        with counting(division, "quotient") as counts, counting(laurent, "quotient") as inner:
            verdict = stafford_verdict(inst, None)
        assert counts["quotient"] + inner["quotient"] == calls
        assert (verdict.condition_ii, verdict.witnesses_ok) == (condition_ii, witnesses_ok)
    # sigma(r) = x^-294 r, so s*sigma(r)/r = -x^-299
    assert verdict.monic == parse_spoly("y - x^-299")


def test_splitting_matches_bezout():
    check_splitting_matches_bezout(500)


def test_full_report_bezout_error_reads_false(monkeypatch):
    def broken(w, inst=None):
        raise ValueError("corrupt witness")

    monkeypatch.setattr(verify, "verify_bezout", broken)
    report = full_report()
    assert not report.bezout_ok and not report.condition_i and not report.splitting_ok
    assert report.chi_ok and report.condition_ii and report.witnesses_ok
