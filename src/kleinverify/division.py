"""Division by y + s in the twisted ring, and the kernel module V.

Because y + s is monic in y, every f splits uniquely as
f = (y + s) * q + y^d * rem with rem a plain coefficient and d the minimal
y-degree of f.  Reduction runs from the top y-degree down, eliminating one
row per step:  y^M c  is replaced by  -y^(M-1) sigma^(M-1)(s) c.

Soundness of the membership test rests on the single-degree fact: for
nonzero q the product (y + s) * q occupies at least two y-degrees (top and
bottom coefficients survive because the coefficient ring is a domain), so
a nonzero single-row remainder can never be absorbed into the ideal.

Each step writes -sigma^k(s) * c plus f's row below into a fresh dict:
by laurent._scaled, the signed-shift multiply under the kernel, when s
has one term, and by the kernel laurent._mul_into otherwise, so the
coefficient domain is Z[x, x^-1].  The walk reads f's rows and never
copies or writes them; a popped row becomes a quotient row as it is, and
the quotient and the remainder are wrapped once at the end.

Condition (ii) and the degree-1 step of the monic search ask the same
question, whether r divides s*sigma(r); stafford_verdict asks it once,
through _degree_one_cofactor.
"""

from __future__ import annotations

from collections import namedtuple

from .klein import SPoly
from .laurent import RPoly, _mul_into, _nonzero, _scaled, quotient


class StaffordInstance:
    """The pair (r, s) defining V = {v : r*v in (y+s)*S}."""

    __slots__ = ("r", "s")

    def __init__(self, r: RPoly, s: RPoly):
        if r.is_zero() or s.is_zero():
            raise ValueError("instance requires nonzero r and s")
        self.r, self.s = r, s

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StaffordInstance) and (self.r, self.s) == (other.r, other.s)


# What divide returns: quotient (SPoly), rem_degree (int), remainder (RPoly).
DivisionResult = namedtuple("DivisionResult", "quotient rem_degree remainder")


def y_plus_s(s: RPoly) -> SPoly:
    return SPoly({1: RPoly.one(), 0: s})


def divide(f: SPoly, s: RPoly) -> DivisionResult:
    """Split f as (y + s) * q + y^rem_degree * rem, exactly.

    For f = 0 all three parts are zero; otherwise rem_degree is the
    minimal y-degree of f.  The walk holds raw coefficient dicts, f's
    own, which it only reads, and the fresh rows its steps write (see the
    module docstring); zeros are dropped by laurent's C-level scan.
    """
    if f.is_zero():
        return DivisionResult(SPoly.zero(), 0, RPoly.zero())
    rows = {m: a._coeffs for m, a in f._rows.items()}
    keys = sorted(rows)
    d, top, i = keys[0], keys[-1], len(keys) - 1
    q_rows = {}
    s_terms = s._coeffs
    one_term = len(s_terms) == 1
    if one_term:
        [(s_exp, s_coeff)] = s_terms.items()
    # One step per y-degree.  Each step writes only the row just below
    # top, where only f's row can be, and that row is nonzero unless it
    # cancels exactly (S is a domain).  After a cancellation only a row of
    # f can be nonzero below, so the walk jumps to the next key of f and
    # skips the gap.
    while top > d:
        c = rows.pop(top)
        top -= 1
        q_rows[top] = c
        below = rows.get(top)
        if one_term:
            row = _nonzero(_scaled(c, -s_exp if top % 2 else s_exp, -s_coeff, below))
        else:
            row = _nonzero(_mul_into(dict(below or {}), s_terms, c, -1 if top % 2 else 1, -1))
        if row:
            rows[top] = row
        else:
            rows.pop(top, None)
            if top > d:
                while keys[i] >= top:
                    i -= 1
                top = keys[i]
    rem = rows.get(d)
    return DivisionResult(
        SPoly._of_rows({m: RPoly._of_nonzero(c) for m, c in q_rows.items()}),
        d,
        RPoly._of_nonzero(rem) if rem else RPoly.zero(),
    )


def in_V(v: SPoly, inst: StaffordInstance) -> bool:
    """Membership in V: r * v lies in the right ideal (y + s) * S."""
    return divide(SPoly.from_rpoly(inst.r) * v, inst.s).remainder.is_zero()


def _reduction_scalars(inst: StaffordInstance, top: int) -> list[RPoly]:
    # t_i = (-1)^i (prod_{j<i} sigma^j(s)) sigma^i(r): the coefficient that
    # y^i sigma^i(r) contributes after full reduction to y-degree 0.
    r_pow, s_pow = (inst.r, inst.r.sigma()), (inst.s, inst.s.sigma())
    ts: list[RPoly] = []
    prod = RPoly.one()
    for i in range(top + 1):
        t = prod * r_pow[i % 2]
        ts.append(t if i % 2 == 0 else -t)
        prod = prod * s_pow[i % 2]
    return ts


def _degree_one_cofactor(inst: StaffordInstance) -> RPoly | None:
    """s*sigma(r) / r, or None when r does not divide s*sigma(r).

    An element y*a1 + a0 of V with a1 a unit forces r*a0 = s*sigma(r)*a1,
    so one exists iff r divides s*sigma(r) (divisibility in the Laurent
    ring absorbs units), and y + s*sigma(r)/r is then one.
    """
    return quotient(inst.r, inst.s * inst.r.sigma())


def no_monic_degree_one(inst: StaffordInstance) -> bool:
    """True iff V contains no element y*a1 + a0 with a1 a unit."""
    return _degree_one_cofactor(inst) is None


_MONIC_MAX_DEGREE = 4
# The default of monic_witness's and witnesses's cofactor: not asked yet.
_ASK = object()


def monic_witness(inst: StaffordInstance, cofactor=_ASK) -> SPoly | None:
    """A monic-in-y element of V of top degree <= _MONIC_MAX_DEGREE, or None.

    An element y^d + sum_{i<d} y^i a_i lies in V iff
    sum t_i a_i + t_d = 0 with the reduction scalars t_i, one linear
    condition over the coefficient ring per degree bound.  Single
    nonzero-coefficient solutions a_i = -t_d / t_i are tried in order;
    for d = 1 that is y + cofactor, where cofactor is
    _degree_one_cofactor(inst), asked here unless the caller has asked
    it already.  The scalars for every degree bound are prefixes of one
    table, built once.  Each candidate is checked with in_V, so a
    returned element lies in V; callers need not check it again.
    """
    if cofactor is _ASK:
        cofactor = _degree_one_cofactor(inst)
    if cofactor is not None:
        v = SPoly({1: RPoly.one(), 0: cofactor})
        if in_V(v, inst):
            return v
    ts = _reduction_scalars(inst, _MONIC_MAX_DEGREE)
    for d in range(2, _MONIC_MAX_DEGREE + 1):
        for i in range(d):
            c = quotient(ts[i], ts[d])
            if c is None:
                continue
            v = SPoly({d: RPoly.one(), i: -c})
            if in_V(v, inst):
                return v
    return None


def witnesses(inst: StaffordInstance, cofactor=_ASK) -> tuple[SPoly, SPoly]:
    """A degree-1 element of V and a monic-in-y element of V.

    The degree-1 element is y*r + s*sigma(r); membership follows from
    r * (s*sigma(r)) = s*sigma(r) * r in the commutative coefficient ring,
    and is checked here with in_V.  The monic element comes from
    monic_witness, given cofactor, which has checked it with in_V
    already.  Raises ValueError when either element is missing or fails
    membership, so each returned element has passed in_V exactly once.
    """
    degree_one = SPoly({1: inst.r, 0: inst.s * inst.r.sigma()})
    if not in_V(degree_one, inst):
        raise ValueError("degree-1 construction failed membership; convention bug")
    monic = monic_witness(inst, cofactor)
    if monic is None:
        raise ValueError("no monic element found within the degree bound")
    return degree_one, monic
