"""Per-workload parsing (set-up) and verdicts (the timed calls).

A verdict takes one parsed instance to a dict of results that is compared
with the instance's expected answers.  Library functions are looked up
through module attributes at call time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List, Tuple

import kleinverify as kv

GENERATORS = ("x", "y")


def load_builtins() -> None:
    """Load every built-in object once; all are cached by the library."""
    b = kv.builtin
    b.presentation_p()
    b.presentation_q()
    b.forward_certificates()
    b.reverse_certificates()
    b.stafford_instance()
    b.boundary_row_factors()
    kv.default_witness()


# ------------------------------------------------------------------- paper

def parse_paper(inst: Dict) -> Dict:
    if inst["kind"] == "flipped_q":
        return {"presentation_q": kv.Presentation.from_strings(GENERATORS, inst["q_relators"])}
    if inst["kind"] == "reciprocal_r":
        s = kv.builtin.stafford_instance().s
        return {"instance": kv.StaffordInstance(kv.parse_rpoly(inst["r"]), s)}
    return {}


def check_paper(overrides: Dict) -> Dict:
    report = kv.full_report(**overrides)
    got = dict(report.flags())
    got["all_ok"] = report.all_ok
    return got


# ----------------------------------------------------------- long_relators

def parse_long(inst: Dict) -> Tuple:
    q = kv.Presentation.from_strings(GENERATORS, inst["relators"])
    fwd = [kv.certificate_from_dict(c) for c in inst["certs_q_over_p"]]
    rev = [kv.certificate_from_dict(c) for c in inst["certs_p_over_q"]]
    return kv.builtin.presentation_p(), q, fwd, rev


def row_identities(p, chains, certs) -> List[bool]:
    """d2_Q[j] == d2_P * boundary_factor(P, cert_j)[0], entry by entry."""
    out = []
    for row, cert in zip(chains.d2_q, certs):
        factor = kv.boundary_factor(p, cert)[0]
        out.append(all(entry == base * factor for base, entry in zip(chains.d2_p, row)))
    return out


def check_long(parsed: Tuple) -> Dict:
    p, q, fwd, rev = parsed
    chi = kv.euler_characteristic(q)
    pi1 = kv.equivalence_verdict(p, q, fwd, rev)
    chains = kv.build_chain_data(p, q)
    return {
        "chi": chi,
        "pi1": pi1,
        "composites_vanish": kv.chain_composites_vanish(chains),
        "rows": row_identities(p, chains, fwd),
    }


# -------------------------------------------------------------- dense_ring

def parse_dense(inst: Dict) -> Dict:
    parsed = {key: kv.parse_rpoly(inst[key]) for key in ("r", "s", "a", "c", "monomial")}
    parsed["f"] = kv.parse_spoly(inst["f"])
    return parsed


def check_dense(d: Dict) -> Dict:
    r, s, a, c, f = d["r"], d["s"], d["a"], d["c"], d["f"]
    inst = kv.StaffordInstance(r, s)
    ac = a * c
    quotient_exact = kv.quotient(a, ac) == c
    quotient_none = kv.quotient(a, ac + d["monomial"]) is None
    degree_one = kv.SPoly({1: r, 0: s * r.sigma()})
    res = kv.divide(f, s)
    recomposed = kv.y_plus_s(s) * res.quotient + kv.SPoly.from_rpoly(res.remainder, res.rem_degree)
    verdict = kv.stafford_verdict(inst, None)
    return {
        "quotient_exact": quotient_exact,
        "quotient_none": quotient_none,
        "no_monic_degree_one": kv.no_monic_degree_one(inst),
        "degree_one_in_V": kv.in_V(degree_one, inst),
        "one_in_V": kv.in_V(kv.SPoly.one(), inst),
        "divide_recomposes": recomposed == f,
        "stafford": [verdict.condition_i, verdict.condition_ii, verdict.witnesses_ok],
    }


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "paper": (parse_paper, check_paper),
    "long_relators": (parse_long, check_long),
    "dense_ring": (parse_dense, check_dense),
}


def verdict(check: Callable, parsed, expected: Dict) -> str:
    """Run one verdict; "" when it matches the expected answers, else why not.

    Any exception is a failed verdict, recorded with its traceback tail.
    """
    try:
        got = check(parsed)
    except Exception:
        return "raised: " + traceback.format_exc(limit=-2).strip().replace("\n", " | ")
    if got == expected:
        return ""
    wrong = {k: got.get(k) for k in expected if got.get(k) != expected[k]}
    return f"mismatch: got {wrong}, expected {({k: expected[k] for k in wrong})}"
