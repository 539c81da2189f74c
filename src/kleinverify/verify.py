"""Assembles the whole verification: chain data, row factorizations, the
unit combination and the splitting it induces, the two non-freeness
conditions, the structured witnesses, and the aggregate report.

Basis conventions: edges are ordered (x, y); module maps act by left
multiplication on column coordinates, so composites pair the outer map's
entries on the left.  The kernel map is
psi(u, v) = (y + s) * u + r * v.

Each check builds y + s and r once, by y_plus_s and SPoly.from_rpoly,
and the constant 1 is built once per process, so a warm full_report
makes its 18 SPoly and 4 RPoly products and one quotient, and no
SPoly(...) construction or negated copy around them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import builtin
from .certificates import ConjugacyCertificate, _row_factors, equivalence_verdict
from .division import StaffordInstance, _witness_pairs, y_plus_s
from .klein import SPoly, _mul_rows_into, boundary_data
from .presentations import Presentation, euler_characteristic


class BezoutWitness:
    """Pair with r * alpha + (y + s) * beta = 1, i.e. psi(beta, alpha) = 1."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: SPoly, beta: SPoly):
        if not (isinstance(alpha, SPoly) and isinstance(beta, SPoly)):
            raise ValueError("witness requires alpha and beta to be SPolys")
        self.alpha, self.beta = alpha, beta


# Boundary rows for the one- and two-relator complexes: d2_p is the single
# row of the one-relator boundary, d2_q the two rows of the two-relator
# boundary, d1 the edge boundary column; all are tuples indexed by the
# (x, y) edge order.
ChainData = namedtuple("ChainData", "d2_p d2_q d1")


def build_chain_data(p: Presentation, q: Presentation) -> ChainData:
    d2p, d1p = boundary_data(p)
    d2q, d1q = boundary_data(q)
    if d1p != d1q:
        raise ValueError("presentations disagree on the edge boundary")
    return ChainData(tuple(d2p[0]), tuple(tuple(row) for row in d2q), tuple(d1p))


def chain_composites_vanish(chains: ChainData) -> bool:
    """d1 after d2 is zero for both complexes (edge entries on the left).

    Each row's products edge * entry are summed into one coefficient dict
    per y-degree, with no SPoly per product or running total;
    _mul_rows_into deletes a row that cancels to empty, so the composite
    vanishes when no row is left.
    """
    for row in (chains.d2_p, *chains.d2_q):
        total: dict[int, dict[int, int]] = {}
        for edge, entry in zip(chains.d1, row):
            _mul_rows_into(total, edge._rows, entry._rows)
        if total:
            return False
    return True


# The constant 1 of S, the value psi takes on a unit combination.
_ONE = SPoly.one()


def psi(u: SPoly, v: SPoly, inst: StaffordInstance) -> SPoly:
    """(y + s) * u + r * v; its kernel is the second homotopy module.

    y + s and r are built once per call, by y_plus_s and SPoly.from_rpoly.
    """
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
    return psi(w.beta, w.alpha, inst) == _ONE


def splitting_check(w: BezoutWitness, inst: StaffordInstance) -> bool:
    """The witness splits psi: psi.t = id, pi^2 = pi, psi.pi = 0.

    Only psi.pi = 0 is computed, column by column on the basis; right-linearity
    extends it everywhere.  It implies the other two: psi.pi =
    (1 - psi.t).psi, and S is a domain with y + s != 0, so psi.pi = 0
    forces psi.t = 1, which makes pi = id - t.psi idempotent.  psi.t = 1 is
    the unit combination verify_bezout checks; this check reaches it through
    other products, so it checks the witness and SPoly multiplication a
    second way.

    The columns of psi.pi, for the projector pi = id - t.psi, written
    with no negated entry:
        (y + s)*(1 - beta*(y + s)) - r*(alpha*(y + s))
        r*(1 - alpha*r) - (y + s)*(beta*r)
    Each is zero exactly when its two products are equal, so the eight
    products are compared, and no difference is built.
    """
    ys, r = y_plus_s(inst.s), SPoly.from_rpoly(inst.r)
    alpha, beta = w.alpha, w.beta
    return ys * (_ONE - beta * ys) == r * (alpha * ys) and r * (_ONE - alpha * r) == ys * (beta * r)


# The two non-freeness conditions, whether the two closed-form elements of
# V pass, and those elements (None where their product check fails).
StaffordVerdict = namedtuple("StaffordVerdict", "condition_i condition_ii witnesses_ok degree_one monic")


def stafford_verdict(
    inst: StaffordInstance, w: BezoutWitness | None
) -> StaffordVerdict:
    """Both non-freeness conditions plus the witness structure.

    condition_i needs the explicit unit combination; with no witness it is
    reported false.  witnesses_ok demands: both closed-form elements of V
    pass their product identity r*v == (y + s)*q (see division); the
    degree-1 element spans exactly one y-degree with a non-unit top
    coefficient, the monic element has a unit top coefficient, and no
    monic degree-1 element exists at all.  Whether r divides s*sigma(r)
    is asked once, for condition_ii and for the monic element, which is
    y + s*sigma(r)/r when it does.
    """
    condition_i = bool(w is not None and verify_bezout(w, inst))
    cofactor, pairs = _witness_pairs(inst)
    condition_ii = cofactor is None
    degree_one = monic = None
    witnesses_ok = False
    ys, left = y_plus_s(inst.s), SPoly.from_rpoly(inst.r)
    if all(left * v == ys * q for v, q in pairs):
        (degree_one, _), (monic, _) = pairs
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


# The values a report's flags were checked on: inst is the caller's claim,
# else the instance read from the row factors; derived is the instance
# read, or None when none was.
_Checked = namedtuple("_Checked", "p q fwd factors rev inst derived w verdict")

# The verdict of an instance the ring checks were not run on.
_NOT_RUN = StaffordVerdict(False, False, False, None, None)


def _pair(inst: StaffordInstance) -> str:
    return f"({inst.r}, {inst.s})"


def _flag_descriptions(c: _Checked) -> tuple[str, ...]:
    """One line per flag, in _FLAGS order, read from the checked values."""
    k_q, g_q, k_p, g_p = (len(part) for pres in (c.q, c.p) for part in (pres.relators, pres.generators))
    rows = [f"d2'(D{i}) = d2(D)*[{f}]" for i, f in enumerate(c.factors or (), 1)]
    if c.inst is None:
        unit = "no instance (r, s) read from the row factors"
    elif c.derived is None:
        unit = f"not checked: the claim (r, s) = {_pair(c.inst)} has no instance read from the row factors to match"
    elif c.inst != c.derived:
        unit = (f"not checked: the claim (r, s) = {_pair(c.inst)} is not the instance"
                f" read from the row factors, {_pair(c.derived)}")
    else:
        s = str(c.inst.s)
        y_plus_s_text = f"y - {s[1:]}" if s.startswith("-") else f"y + {s}"
        unit = f"({str(c.inst.r).replace(' ', '')})*alpha + ({y_plus_s_text})*beta = 1"
    return (
        f"Euler characteristics: chi(Q) = {k_q} - {g_q} + 1 = {k_q - g_q + 1}"
        f" and chi(P) = {k_p} - {g_p} + 1 = {k_p - g_p + 1}",
        "presentation equivalence: every relator certified over the other presentation",
        f"boundary rows: {' and '.join(rows) or 'no row factors derived'}",
        f"unit combination: {unit}",
        "explicit splitting: psi.t = id, pi^2 = pi, psi.pi = 0",
        "r*S + (y+s)*S = S, witnessed by the unit combination",
        "s*sigma(r) is not divisible by r in Z[x, x^-1]",
        "V holds a span-1 element with non-unit top coefficient and a monic element",
    )


class NonFreenessReport:
    """Flag per checked identity, one keyword each named in _FLAGS, and the
    values they were checked on; all_ok is their conjunction.  inputs, those
    values in printed form, is built each time it is read."""

    __slots__ = _FLAGS + ("_checked",)

    def __init__(self, checked: _Checked, **flags: bool):
        for name in _FLAGS:
            setattr(self, name, flags[name])
        self._checked = checked

    @property
    def inputs(self) -> dict[str, object]:
        c = self._checked
        return {
            "presentation_P": c.p.to_dict(),
            "presentation_Q": c.q.to_dict(),
            "certificates_Q_over_P": [str(cert.target) for cert in c.fwd],
            "row_factors": None if c.factors is None else [str(f) for f in c.factors],
            "certificates_P_over_Q": [str(cert.target) for cert in c.rev],
            "r": None if c.inst is None else str(c.inst.r),
            "s": None if c.inst is None else str(c.inst.s),
            "alpha": str(c.w.alpha),
            "beta": str(c.w.beta),
            "degree_one_witness": str(c.verdict.degree_one) if c.verdict.degree_one else None,
            "monic_witness": str(c.verdict.monic) if c.verdict.monic else None,
        }

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
        for name, desc in zip(_FLAGS, _flag_descriptions(self._checked)):
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

    Each row factor goes with the relator of Q its certificate names,
    whatever the certificates' order; inputs keeps the caller's order.
    The cached built-in row factors serve only when neither Q nor the
    forward certificates are given, so passing the built-in certificates
    changes no flag.
    The instance is read from the row factors y + s and r, which
    factorization_ok ties to Q; a caller's instance is a claim checked
    against it.  When none is read or the claim differs, the ring checks
    are not run, and their five flags read false; the text report's
    bezout_ok line then names the claim and the instance read, or says
    that none was read.

    Component failures (including raised errors from corrupted inputs) are
    recorded as false flags, never re-raised.
    """
    p = builtin.presentation_p()
    q = presentation_q if presentation_q is not None else builtin.presentation_q()
    fwd = list(forward_certs) if forward_certs is not None else list(builtin.forward_certificates())
    rev = builtin.reverse_certificates()
    w = witness if witness is not None else default_witness()

    def attempt(thunk, failed=False):
        try:
            return thunk()
        except (ValueError, IndexError, KeyError):
            return failed

    chi_ok = attempt(lambda: euler_characteristic(q) == 1 and euler_characteristic(p) == 0)
    pi1_ok = attempt(lambda: equivalence_verdict(p, q, fwd, rev))
    builtin_factors = presentation_q is None and forward_certs is None
    derive = builtin.boundary_row_factors if builtin_factors else lambda: _row_factors(p, q.relators, fwd)
    factors = attempt(derive, None)  # None when a forward certificate does not check
    factorization_ok = factors is not None and attempt(
        lambda: verify_factorization(build_chain_data(p, q), factors))
    derived = None if factors is None else attempt(lambda: StaffordInstance.from_factors(factors), None)
    inst = derived if instance is None else instance
    bezout_ok = splitting_ok = False
    fragment = _NOT_RUN
    if derived is not None and inst == derived:
        bezout_ok = attempt(lambda: verify_bezout(w, inst))
        # splitting_check passes only where bezout_ok holds, so it is
        # skipped when bezout_ok is false.
        splitting_ok = bezout_ok and attempt(lambda: splitting_check(w, inst))
        # Condition (i) is the unit combination bezout_ok has just checked,
        # so the verdict is asked only for the witness-free conditions.
        fragment = stafford_verdict(inst, None)

    return NonFreenessReport(
        _Checked(p, q, fwd, factors, rev, inst, derived, w, fragment),
        chi_ok=chi_ok,
        pi1_ok=pi1_ok,
        factorization_ok=factorization_ok,
        bezout_ok=bezout_ok,
        splitting_ok=splitting_ok,
        condition_i=bezout_ok,
        condition_ii=fragment.condition_ii,
        witnesses_ok=fragment.witnesses_ok,
    )
