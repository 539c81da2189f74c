"""Assembles the whole verification: chain data, row factorizations, the
unit combination and the splitting it induces, the two non-freeness
conditions, the structured witnesses, and the aggregate report.

Basis conventions: edges are ordered (x, y); module maps act by left
multiplication on column coordinates, so composites pair the outer map's
entries on the left.  The kernel map is
psi(u, v) = (y + s) * u + r * v.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import builtin
from .certificates import ConjugacyCertificate, _row_factors, equivalence_verdict
from .division import (
    StaffordInstance,
    _degree_one_cofactor,
    witnesses,
    y_plus_s,
)
from .klein import SPoly, boundary_data
from .presentations import Presentation, euler_characteristic


class BezoutWitness:
    """Pair with r * alpha + (y + s) * beta = 1, i.e. psi(beta, alpha) = 1."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: SPoly, beta: SPoly):
        self.alpha, self.beta = alpha, beta


class ChainData:
    """Boundary rows for the one- and two-relator complexes.

    d2_p is the single row of the one-relator boundary, d2_q the two rows
    of the two-relator boundary, d1 the edge boundary column; all are
    tuples indexed by the (x, y) edge order.
    """

    __slots__ = ("d2_p", "d2_q", "d1")

    def __init__(self, d2_p: tuple, d2_q: tuple, d1: tuple):
        self.d2_p, self.d2_q, self.d1 = d2_p, d2_q, d1


def build_chain_data(p: Presentation, q: Presentation) -> ChainData:
    d2p, d1p = boundary_data(p)
    d2q, d1q = boundary_data(q)
    if d1p != d1q:
        raise ValueError("presentations disagree on the edge boundary")
    return ChainData(tuple(d2p[0]), tuple(tuple(row) for row in d2q), tuple(d1p))


def chain_composites_vanish(chains: ChainData) -> bool:
    """d1 after d2 is zero for both complexes (edge entries on the left)."""
    rows = [chains.d2_p] + [row for row in chains.d2_q]
    zero = SPoly.zero()
    for row in rows:
        total = SPoly.zero()
        for edge, entry in zip(chains.d1, row):
            total = total + edge * entry
        if total != zero:
            return False
    return True


def psi(u: SPoly, v: SPoly, inst: StaffordInstance) -> SPoly:
    """(y + s) * u + r * v; its kernel is the second homotopy module."""
    return y_plus_s(inst.s) * u + SPoly.from_rpoly(inst.r) * v


def verify_factorization(chains: ChainData, factors: Sequence[SPoly]) -> bool:
    """Row identities: d2_q row i equals d2_p row times the i-th factor."""
    if len(chains.d2_q) != len(factors):
        return False
    for row, factor in zip(chains.d2_q, factors):
        for base_entry, entry in zip(chains.d2_p, row):
            if entry != base_entry * factor:
                return False
    return True


def verify_bezout(w: BezoutWitness, inst: StaffordInstance) -> bool:
    """Exact evaluation of r * alpha + (y + s) * beta against 1."""
    return psi(w.beta, w.alpha, inst) == SPoly.one()


def splitting_projector(w: BezoutWitness, inst: StaffordInstance) -> list[list[SPoly]]:
    """id - t . psi, where t(c) = (beta*c, alpha*c) sections psi."""
    ys = y_plus_s(inst.s)
    r = SPoly.from_rpoly(inst.r)
    one = SPoly.one()
    return [
        [one - w.beta * ys, -(w.beta * r)],
        [-(w.alpha * ys), one - w.alpha * r],
    ]


def splitting_check(w: BezoutWitness, inst: StaffordInstance) -> bool:
    """The witness splits psi: psi.t = id, pi^2 = pi, psi.pi = 0.

    Only psi.pi = 0 is computed, column by column on the basis; right-linearity
    extends it everywhere.  It implies the other two: psi.pi =
    (1 - psi.t).psi, and S is a domain with y + s != 0, so psi.pi = 0
    forces psi.t = 1, which makes pi = id - t.psi idempotent.  psi.t = 1 is
    the unit combination verify_bezout checks; this check reaches it through
    other products, so it checks the witness and SPoly multiplication a
    second way.
    """
    (p00, p01), (p10, p11) = splitting_projector(w, inst)
    return psi(p00, p10, inst).is_zero() and psi(p01, p11, inst).is_zero()


class StaffordVerdict:
    __slots__ = ("condition_i", "condition_ii", "witnesses_ok", "degree_one", "monic")

    def __init__(self, condition_i: bool, condition_ii: bool, witnesses_ok: bool,
                 degree_one: SPoly | None, monic: SPoly | None):
        self.condition_i, self.condition_ii = condition_i, condition_ii
        self.witnesses_ok, self.degree_one, self.monic = witnesses_ok, degree_one, monic


def stafford_verdict(
    inst: StaffordInstance, w: BezoutWitness | None
) -> StaffordVerdict:
    """Both non-freeness conditions plus the witness structure.

    condition_i needs the explicit unit combination; with no witness it is
    reported false.  witnesses_ok demands: witnesses() returns both
    elements, which it does only once each has passed in_V; the degree-1
    element spans exactly one y-degree with a non-unit top coefficient,
    the monic element has a unit top coefficient, and no monic degree-1
    element exists at all.  Membership is not checked again here.
    Whether r divides s*sigma(r) is asked once, for condition_ii and for
    the degree-1 step of the monic search.
    """
    condition_i = bool(w is not None and verify_bezout(w, inst))
    cofactor = _degree_one_cofactor(inst)
    condition_ii = cofactor is None
    degree_one = monic = None
    try:
        degree_one, monic = witnesses(inst, cofactor)
    except ValueError:
        witnesses_ok = False
    else:
        witnesses_ok = (
            degree_one.span() == 1
            and not degree_one.row(degree_one.max_degree).is_unit()
            and monic.row(monic.max_degree).is_unit()
            and condition_ii
        )
    return StaffordVerdict(condition_i, condition_ii, witnesses_ok, degree_one, monic)


_FLAGS = (
    "chi_ok",
    "pi1_ok",
    "factorization_ok",
    "bezout_ok",
    "splitting_ok",
    "condition_i",
    "condition_ii",
    "witnesses_ok",
)


def _flag_descriptions(inputs: dict[str, object]) -> tuple[str, ...]:
    """One line per flag, in _FLAGS order, read from the report's inputs."""
    k_q, g_q, k_p, g_p = (
        len(inputs[f"presentation_{n}"][key]) for n in "QP" for key in ("relators", "generators"))
    rows = [f"d2'(D{i}) = d2(D)*[{f}]" for i, f in enumerate(inputs["row_factors"] or (), 1)]
    r, s = inputs["r"], inputs["s"]
    y_plus_s_text = f"y - {s[1:]}" if s.startswith("-") else f"y + {s}"
    return (
        f"Euler characteristics: chi(Q) = {k_q} - {g_q} + 1 = {k_q - g_q + 1}"
        f" and chi(P) = {k_p} - {g_p} + 1 = {k_p - g_p + 1}",
        "presentation equivalence: every relator certified over the other presentation",
        f"boundary rows: {' and '.join(rows) or 'no row factors derived'}",
        f"unit combination: ({r.replace(' ', '')})*alpha + ({y_plus_s_text})*beta = 1",
        "explicit splitting: psi.t = id, pi^2 = pi, psi.pi = 0",
        "r*S + (y+s)*S = S, witnessed by the unit combination",
        "s*sigma(r) is not divisible by r in Z[x, x^-1]",
        "V holds a span-1 element with non-unit top coefficient and a monic element",
    )


class NonFreenessReport:
    """Flag per checked identity, one keyword each named in _FLAGS, and the
    inputs they were checked on; all_ok is their conjunction."""

    __slots__ = _FLAGS + ("inputs",)

    def __init__(self, *, inputs: dict[str, object], **flags: bool):
        for name in _FLAGS:
            setattr(self, name, flags[name])
        self.inputs = inputs

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, name) for name in _FLAGS)

    def flags(self) -> list[tuple[str, bool]]:
        return [(name, getattr(self, name)) for name in _FLAGS]

    def to_json_dict(self) -> dict[str, object]:
        out: dict[str, object] = {name: getattr(self, name) for name in _FLAGS}
        out["all_ok"] = self.all_ok
        out["inputs"] = self.inputs
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        for name, desc in zip(_FLAGS, _flag_descriptions(self.inputs)):
            mark = "ok  " if getattr(self, name) else "FAIL"
            lines.append(f"[{mark}] {name:<16} {desc}")
        verdict = (
            "VERIFIED: the second homotopy module is stably free and not free,"
            " on a complex with chi = 1 and Klein bottle fundamental group"
            if self.all_ok
            else "NOT VERIFIED: at least one check failed"
        )
        lines.append(verdict)
        return "\n".join(lines)


def default_witness() -> BezoutWitness:
    return BezoutWitness(builtin.bezout_alpha(), builtin.bezout_beta())


def full_report(
    *,
    presentation_q: Presentation | None = None,
    forward_certs: Sequence[ConjugacyCertificate] | None = None,
    instance: StaffordInstance | None = None,
    witness: BezoutWitness | None = None,
) -> NonFreenessReport:
    """Run every check on the built-in data; Q, the forward certificates,
    the instance (r, s) and the witness may be overridden.

    Component failures (including raised errors from corrupted inputs) are
    recorded as false flags, never re-raised.
    """
    p = builtin.presentation_p()
    q = presentation_q if presentation_q is not None else builtin.presentation_q()
    fwd = list(forward_certs) if forward_certs is not None else list(builtin.forward_certificates())
    rev = builtin.reverse_certificates()
    inst = instance if instance is not None else builtin.stafford_instance()
    w = witness if witness is not None else default_witness()

    def attempt(thunk, failed=False):
        try:
            return thunk()
        except (ValueError, IndexError, KeyError):
            return failed

    chi_ok = attempt(lambda: euler_characteristic(q) == 1 and euler_characteristic(p) == 0)
    pi1_ok = attempt(lambda: equivalence_verdict(p, q, fwd, rev))
    derive = builtin.boundary_row_factors if forward_certs is None else lambda: _row_factors(p, fwd)
    factors = attempt(derive, None)  # None when a forward certificate does not check
    factorization_ok = factors is not None and attempt(
        lambda: verify_factorization(build_chain_data(p, q), factors))
    bezout_ok = attempt(lambda: verify_bezout(w, inst))
    # splitting_check passes only where bezout_ok holds, so it is skipped
    # when bezout_ok is false.
    splitting_ok = bezout_ok and attempt(lambda: splitting_check(w, inst))
    # Condition (i) is the unit combination bezout_ok has just checked, so
    # the verdict is asked only for the witness-free conditions.
    fragment = stafford_verdict(inst, None)

    inputs: dict[str, object] = {
        "presentation_P": p.to_dict(),
        "presentation_Q": q.to_dict(),
        "certificates_Q_over_P": [str(c.target) for c in fwd],
        "row_factors": None if factors is None else [str(f) for f in factors],
        "certificates_P_over_Q": [str(c.target) for c in rev],
        "r": str(inst.r),
        "s": str(inst.s),
        "alpha": str(w.alpha),
        "beta": str(w.beta),
        "degree_one_witness": str(fragment.degree_one) if fragment.degree_one else None,
        "monic_witness": str(fragment.monic) if fragment.monic else None,
    }
    return NonFreenessReport(
        chi_ok=chi_ok,
        pi1_ok=pi1_ok,
        factorization_ok=factorization_ok,
        bezout_ok=bezout_ok,
        splitting_ok=splitting_ok,
        condition_i=bezout_ok,
        condition_ii=fragment.condition_ii,
        witnesses_ok=fragment.witnesses_ok,
        inputs=inputs,
    )
