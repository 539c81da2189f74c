"""Division by y + s in the twisted ring, and the kernel module V.

Because y + s is monic in y, every f splits uniquely as
f = (y + s) * q + y^d * rem with rem a plain coefficient and d the minimal
y-degree of f.  Reduction runs from the top y-degree down, eliminating one
row per step:  y^M c  is replaced by  -y^(M-1) sigma^(M-1)(s) c.

Soundness of the membership test rests on the single-degree fact: for
nonzero q the product (y + s) * q occupies at least two y-degrees (top and
bottom coefficients survive because the coefficient ring is a domain), so
a nonzero single-row remainder can never be absorbed into the ideal.

The engine touches coefficients only through their ring methods
(add, mul, neg, sigma, is_zero); any coefficient domain with a decidable
divisibility and an involution would do.  It is instantiated at
Z[x, x^-1] only.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .klein import SPoly, _sigma_pow
from .laurent import RPoly, divides, quotient


@dataclass(frozen=True)
class StaffordInstance:
    """The pair (r, s) defining V = {v : r*v in (y+s)*S}."""

    r: RPoly
    s: RPoly

    def __post_init__(self):
        if self.r.is_zero() or self.s.is_zero():
            raise ValueError("instance requires nonzero r and s")


# What divide returns: quotient (SPoly), rem_degree (int), remainder (RPoly).
DivisionResult = namedtuple("DivisionResult", "quotient rem_degree remainder")


def y_plus_s(s: RPoly) -> SPoly:
    return SPoly({1: RPoly.one(), 0: s})


def divide(f: SPoly, s: RPoly) -> DivisionResult:
    """Split f as (y + s) * q + y^rem_degree * rem, exactly.

    For f = 0 all three parts are zero; otherwise rem_degree is the
    minimal y-degree of f.
    """
    if f.is_zero():
        return DivisionResult(SPoly.zero(), 0, RPoly.zero())
    rows = dict(f._rows)
    keys = sorted(rows)
    d, top, i = keys[0], keys[-1], len(keys) - 1
    s_pow = (s, s.sigma())  # sigma^k(s) by the parity of k
    q_rows = {}
    # One step per y-degree.  Each step writes only the row just below
    # top, and that row is nonzero unless it cancels exactly (S is a
    # domain).  After a cancellation only a row of f can be nonzero below,
    # so the walk jumps to the next key of f and skips the gap.
    while top > d:
        c = rows.pop(top)
        top -= 1
        q_rows[top] = c
        row = rows.get(top, RPoly.zero()) - s_pow[top % 2] * c
        if row:
            rows[top] = row
        else:
            rows.pop(top, None)
            if top > d:
                while keys[i] >= top:
                    i -= 1
                top = keys[i]
    return DivisionResult(SPoly(q_rows), d, rows.get(d, RPoly.zero()))


def in_right_ideal(f: SPoly, s: RPoly) -> bool:
    """Membership of f in the right ideal (y + s) * S."""
    return divide(f, s).remainder.is_zero()


def in_V(v: SPoly, inst: StaffordInstance) -> bool:
    """Membership in V: r * v lies in (y + s) * S."""
    return in_right_ideal(SPoly.from_rpoly(inst.r) * v, inst.s)


def lift_kernel(v: SPoly, inst: StaffordInstance) -> SPoly:
    """The partner u with (y + s) * u = -r * v, defined exactly on V.

    The pair (u, v) then lies in the kernel of
    (u, v) -> (y + s) * u + r * v.
    """
    res = divide(SPoly.from_rpoly(inst.r) * v, inst.s)
    if not res.remainder.is_zero():
        raise ValueError("element is not in V; no kernel lift exists")
    return -res.quotient


def _reduction_scalars(inst: StaffordInstance, top: int) -> list[RPoly]:
    # t_i = (-1)^i (prod_{j<i} sigma^j(s)) sigma^i(r): the coefficient that
    # y^i sigma^i(r) contributes after full reduction to y-degree 0.
    ts: list[RPoly] = []
    prod = RPoly.one()
    for i in range(top + 1):
        t = prod * _sigma_pow(inst.r, i)
        ts.append(t if i % 2 == 0 else -t)
        prod = prod * _sigma_pow(inst.s, i)
    return ts


def no_monic_degree_one(inst: StaffordInstance) -> bool:
    """True iff V contains no element y*a1 + a0 with a1 a unit.

    Such an element forces r*a0 = s*sigma(r)*a1, hence s*sigma(r) in r*R
    up to a unit; divisibility in the Laurent ring absorbs units already.
    """
    return not divides(inst.r, inst.s * inst.r.sigma())


_MONIC_MAX_DEGREE = 4


def monic_witness(inst: StaffordInstance) -> SPoly | None:
    """A monic-in-y element of V of top degree <= _MONIC_MAX_DEGREE, or None.

    An element y^d + sum_{i<d} y^i a_i lies in V iff
    sum t_i a_i + t_d = 0 with the reduction scalars t_i, one linear
    condition over the coefficient ring per degree bound.  Single
    nonzero-coefficient solutions a_i = -t_d / t_i are tried in order.
    The scalars for every degree bound are prefixes of one table, built
    once.  Each candidate is checked with in_V, so a returned element
    lies in V; callers need not check it again.
    """
    ts = _reduction_scalars(inst, _MONIC_MAX_DEGREE)
    for d in range(1, _MONIC_MAX_DEGREE + 1):
        for i in range(d):
            c = quotient(ts[i], ts[d])
            if c is None:
                continue
            v = SPoly({d: RPoly.one(), i: -c})
            if in_V(v, inst):
                return v
    return None


def witnesses(inst: StaffordInstance) -> tuple[SPoly, SPoly]:
    """A degree-1 element of V and a monic-in-y element of V.

    The degree-1 element is y*r + s*sigma(r); membership follows from
    r * (s*sigma(r)) = s*sigma(r) * r in the commutative coefficient ring,
    and is checked here with in_V.  The monic element comes from
    monic_witness, which has checked it with in_V already.  Raises
    ValueError when either element is missing or fails membership, so
    each returned element has passed in_V exactly once.
    """
    degree_one = SPoly({1: inst.r, 0: inst.s * inst.r.sigma()})
    if not in_V(degree_one, inst):
        raise ValueError("degree-1 construction failed membership; convention bug")
    monic = monic_witness(inst)
    if monic is None:
        raise ValueError("no monic element found within the degree bound")
    return degree_one, monic
