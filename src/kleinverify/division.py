"""The kernel module V of division by y + s, and its Stafford instance.

StaffordInstance.from_factors reads (r, s) from a complex's row factors
y + s and r, so V = {v : r*v in (y+s)*S} is the second homotopy module
of the complex those factors were checked on.

Division by y + s itself, divide with its two row walks and in_V, lives
in the walks module, which loads at the first use of divide, in_V or
DivisionResult: this module resolves those names by a module __getattr__
(PEP 562), so division.divide is walks.divide.  verify-paper checks its
elements of V by products, divides nothing, and never compiles a walk.

V holds two elements in closed form, each with the quotient q that puts
r*v in the ideal, so one product r*v == (y + s)*q checks its membership,
with no division:

  degree-1   y*r + s*sigma(r)    q = r*sigma(r)
  monic      y + c               q = sigma(r)              if c = s*sigma(r)/r exists
             y^2 - s*sigma(s)    q = (y - sigma(s))*r      otherwise

The first holds because r*y = y*sigma(r) and the coefficient ring is
commutative; the last because y^2 is central and
(y + s)*(y - sigma(s)) = y^2 - s*sigma(s).  Condition (ii) asks whether
c exists, that is whether r divides s*sigma(r).  _cofactor asks it once
and returns sigma(r) and s*sigma(r) with c; no_monic_degree_one reads c
alone.  _witness_pairs builds both elements and their quotients on
those, and returns c with both (element, quotient) pairs:
stafford_verdict checks the pairs in one loop, and monic_witness reads
the monic element.

Each element and its quotient are built by SPoly._of_rows from the
dicts of RPolys, with no row checked or filtered again: every row is 1,
r, s (which StaffordInstance checks are nonzero RPolys), a sigma of one,
the nonzero cofactor c, or a product of these, and the coefficient ring
is a domain.  The signs of -s*sigma(s) and -sigma(s)*r are carried by
the one factor -sigma(s), so no product is negated.  The two sides of
the check, y + s and r, are built by y_plus_s and SPoly.from_rpoly.
"""

from __future__ import annotations

from collections.abc import Sequence

from .klein import SPoly, _check_row
from .laurent import RPoly, quotient


class StaffordInstance:
    """The pair (r, s) defining V = {v : r*v in (y+s)*S}."""

    __slots__ = ("r", "s")

    def __init__(self, r: RPoly, s: RPoly):
        if not (isinstance(r, RPoly) and isinstance(s, RPoly)):
            raise ValueError("instance requires r and s to be RPolys")
        if r.is_zero() or s.is_zero():
            raise ValueError("instance requires nonzero r and s")
        self.r, self.s = r, s

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StaffordInstance) and (self.r, self.s) == (other.r, other.s)

    @classmethod
    def from_factors(cls, factors: Sequence[SPoly]) -> StaffordInstance:
        """(r, s) from the two row factors y + s, rows {1: 1, 0: s}, and r,
        one row at y-degree 0, in either order: f1*u + f2*v has the same
        kernel either way.  Raises ValueError for any other shape."""
        if len(factors) == 2 and all(isinstance(f, SPoly) for f in factors):
            for ys, r in (factors, factors[::-1]):
                ys_rows, r_rows = ys._rows, r._rows
                if ys_rows.keys() == {0, 1} and ys_rows[1] == _ONE and r_rows.keys() == {0}:
                    return cls(RPoly._of_nonzero(r_rows[0]), RPoly._of_nonzero(ys_rows[0]))
        raise ValueError("row factors are not y + s and r")


# The constant 1 of Z[x, x^-1] as a row, the y-row of every y + s: shared
# by each of them, and never written, as no row is.
_ONE = {0: 1}


def y_plus_s(s: RPoly) -> SPoly:
    """y + s, with s checked as SPoly(...) checks a row; a zero s is dropped."""
    _check_row(0, s)
    return SPoly._of_rows({1: _ONE, 0: s._coeffs} if s._coeffs else {1: _ONE})


def _cofactor(inst: StaffordInstance) -> tuple[RPoly, RPoly, RPoly | None]:
    """sigma(r), s*sigma(r), and condition (ii)'s cofactor s*sigma(r)/r,
    or None when r does not divide s*sigma(r).

    An element y*a1 + a0 of V with a1 a unit forces r*a0 = s*sigma(r)*a1,
    so one exists iff r divides s*sigma(r) (divisibility in the Laurent
    ring absorbs units), and y + s*sigma(r)/r is then one.
    """
    r_bar = inst.r.sigma()
    s_r_bar = inst.s * r_bar
    return r_bar, s_r_bar, quotient(inst.r, s_r_bar)


def _witness_pairs(inst: StaffordInstance) -> tuple[RPoly | None, tuple[tuple[SPoly, SPoly], ...]]:
    """Condition (ii)'s cofactor, as _cofactor gives it, and the degree-1
    and the monic element of V, each as the pair (element, quotient) of
    the module docstring.

    sigma(r) and s*sigma(r) come from _cofactor, built once for the
    quotient and for the elements.  The pairs are not checked here;
    stafford_verdict checks them.
    """
    r = inst.r
    r_bar, s_r_bar, cofactor = _cofactor(inst)
    degree_one = (
        SPoly._of_rows({1: r._coeffs, 0: s_r_bar._coeffs}),
        SPoly._of_rows({0: (r * r_bar)._coeffs}),
    )
    if cofactor is not None:
        monic = SPoly._of_rows({1: _ONE, 0: cofactor._coeffs}), SPoly._of_rows({0: r_bar._coeffs})
    else:
        minus_s_bar = -inst.s.sigma()
        monic = (
            SPoly._of_rows({2: _ONE, 0: (inst.s * minus_s_bar)._coeffs}),
            SPoly._of_rows({1: r._coeffs, 0: (minus_s_bar * r)._coeffs}),
        )
    return cofactor, (degree_one, monic)


def no_monic_degree_one(inst: StaffordInstance) -> bool:
    """True iff V contains no element y*a1 + a0 with a1 a unit: condition
    (ii)'s quotient alone, with no witness built."""
    return _cofactor(inst)[2] is None


def monic_witness(inst: StaffordInstance) -> SPoly:
    """The monic element of V: y + s*sigma(r)/r, of y-degree 1, when r
    divides s*sigma(r), else y^2 - s*sigma(s)."""
    return _witness_pairs(inst)[1][1][0]


def __getattr__(name: str):
    """divide, in_V and DivisionResult, from walks, which loads at the
    first read of one of them."""
    if name in ("DivisionResult", "divide", "in_V"):
        from . import walks

        return getattr(walks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
