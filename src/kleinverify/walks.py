"""Division by y + s in the twisted ring: divide, its two row walks, and
membership in V.

division loads this module at the first use of divide, in_V or
DivisionResult, which it resolves by a module __getattr__ (PEP 562), as
the package does for every public name.  verify-paper divides nothing,
so it never compiles the walks.

Because y + s is monic in y, every f splits uniquely as
f = (y + s) * q + y^d * rem with rem a plain coefficient and d the minimal
y-degree of f.  Reduction runs from the top y-degree down, eliminating one
row per step:  y^M c  is replaced by  -y^(M-1) sigma^(M-1)(s) c.

Soundness of the membership test rests on the single-degree fact: for
nonzero q the product (y + s) * q occupies at least two y-degrees (top and
bottom coefficients survive because the coefficient ring is a domain), so
a nonzero single-row remainder can never be absorbed into the ideal.

Write f_k for f's row at y-degree k and row_k for the walk's row there:
row_top = f_top, row_k = f_k - sigma^k(s) * row_(k+1), and the quotient's
row q_k is row_(k+1).  _walk takes one step per y-degree and writes
-sigma^k(s) * row_(k+1) plus f_k into a fresh dict.  When s has one
term, the step does it inline: one loop writes -sigma^k(s) * row_(k+1),
a second adds f_k and deletes each coefficient that cancels, so no
kernel is called and no zero is left to scan for.  Otherwise the kernel
laurent._mul_into, which returns no zero, adds the product by -s,
negated once per division, into a copy of f_k; the coefficient domain
is Z[x, x^-1].

A unit s = u*x^e, u = +-1, takes _unit_walk, which may fold two steps
into one.  sigma^k(s) * sigma^(k+1)(s) = u^2 = 1, so

  row_k = row_(k+2) + f_k - sigma^k(s) * f_(k+1):

one C-level copy of row_(k+2) and a loop over f's own two rows, where
the one-step form loops over the whole of row_(k+1).  A step takes the
two-step form when row_(k+2) is nonzero and f_(k+1) has fewer than half
the terms of row_(k+1), else the one-step form.  The copy costs a few
per cent of a loop per term, so the rule weighs the two loops alone; a
rule that also weighed the copy and the two-step form's fixed cost took
fewer two-step steps on long sparse f and was no faster where rows of f
share one support.  Both forms are exact, so the choice, which has no
option, affects only the cost: rows of f that share one support keep
the one-step form, and the sparse rows of a long f the two-step one.
The identity needs a unit: for s = c*x^e the product is c^2, and the
two-step form would have to write a scaled copy of row_(k+2), no
cheaper than the step it replaces.  When row_(k+1) is zero, row_k is
f_k itself, shared and not copied, as is the top row.

Both walks hold the rows as SPoly keeps them, plain coefficient dicts:
they read f's rows and never write them (they may be shared with RPolys
and other SPolys), and write only the dicts their steps create.  A row
becomes a quotient row as it is, so no row is wrapped; the one RPoly
built is the remainder.
"""

from __future__ import annotations

from collections import namedtuple

from .klein import SPoly
from .laurent import RPoly, _mul_into

# StaffordInstance appears only in an annotation, which is never
# evaluated, so this module imports nothing of division.

# What divide returns: quotient (SPoly), rem_degree (int), remainder (RPoly).
DivisionResult = namedtuple("DivisionResult", "quotient rem_degree remainder")


def divide(f: SPoly, s: RPoly) -> DivisionResult:
    """Split f as (y + s) * q + y^rem_degree * rem, exactly.

    For f = 0 all three parts are zero; otherwise rem_degree is the
    minimal y-degree of f.  A unit s takes _unit_walk, which may do two
    steps in one; any other s takes _walk, one step per y-degree.  Both
    walks hold raw coefficient dicts, f's own, which they only read, and
    the fresh rows their steps write (see the module docstring).
    """
    if f.is_zero():
        return DivisionResult(SPoly.zero(), 0, RPoly.zero())
    keys = sorted(f._rows)
    walk = _unit_walk if s.is_unit() else _walk
    q_rows, rem = walk(f._rows, keys, s._coeffs)
    return DivisionResult(
        SPoly._of_rows(q_rows),
        keys[0],
        RPoly._of_nonzero(rem) if rem else RPoly.zero(),
    )


def _walk(
    f_rows: dict[int, dict[int, int]], keys: list[int], s_terms: dict[int, int]
) -> tuple[dict[int, dict[int, int]], dict[int, int] | None]:
    """divide's walk for an s that is not a unit, one step per y-degree:
    the quotient's rows, and the remainder's row at y-degree keys[0] (the
    sorted keys of f_rows) or None."""
    rows = dict(f_rows)
    d, top, i = keys[0], keys[-1], len(keys) - 1
    q_rows = {}
    one_term = len(s_terms) == 1
    if one_term:
        [(s_exp, s_coeff)] = s_terms.items()
        minus_c = -s_coeff
    else:
        minus_s = {e: -c for e, c in s_terms.items()}
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
            # -sigma^top(s) * c into a fresh dict, then f's row below added
            # into it, each coefficient that cancels deleted; below is
            # only read.
            x = -s_exp if top % 2 else s_exp
            row = {}
            for e, v in c.items():
                row[x + e] = minus_c * v
            if below:
                get = row.get
                for e, v in below.items():
                    v += get(e, 0)
                    if v:
                        row[e] = v
                    else:
                        del row[e]
        else:
            row = _mul_into(dict(below or {}), minus_s, c, -1 if top % 2 else 1)
        if row:
            rows[top] = row
        else:
            rows.pop(top, None)
            if top > d:
                while keys[i] >= top:
                    i -= 1
                top = keys[i]
    return q_rows, rows.get(d)


def _unit_walk(
    f_rows: dict[int, dict[int, int]], keys: list[int], s_terms: dict[int, int]
) -> tuple[dict[int, dict[int, int]], dict[int, int] | None]:
    """divide's walk for a unit s = u*x^e, u = +-1, as _walk returns it.

    The walk keeps row_(k+1) and row_(k+2) as mid and hi, and q_k is
    row_(k+1).  A step writes row_k = f_k - sigma^k(s)*row_(k+1) in one
    step, or in two, as row_(k+2) + f_k - sigma^k(s)*f_(k+1): a C-level
    copy of hi and a loop over f's two rows alone.  It takes two when hi
    is nonzero and f_(k+1) has fewer than half the terms of mid.
    """
    [(s_exp, u)] = s_terms.items()
    minus_u = -u
    get = f_rows.get
    d, i = keys[0], len(keys) - 1
    top = keys[i]
    q_rows = {}
    hi, mid = None, f_rows[top]
    while top > d:
        k = top - 1
        q_rows[k] = mid
        x = -s_exp if k % 2 else s_exp
        above, below = get(top), get(k)
        if hi and 2 * len(above or ()) < len(mid):
            row = dict(hi)
            if above:
                rget = row.get
                for e, v in above.items():
                    e += x
                    v = rget(e, 0) + minus_u * v
                    if v:
                        row[e] = v
                    else:
                        del row[e]
        else:
            row = {}
            for e, v in mid.items():
                row[x + e] = minus_u * v
        if below:
            rget = row.get
            for e, v in below.items():
                v += rget(e, 0)
                if v:
                    row[e] = v
                else:
                    del row[e]
        if row or k == d:
            hi, mid, top = mid, row, k
        else:
            # row_k cancelled, so the next nonzero row is f's own, at the
            # next key of f below k; row_(k-1) = f_(k-1) is shared, not
            # copied, and the walk goes on from there as from the top.
            while keys[i] >= k:
                i -= 1
            hi, mid, top = None, f_rows[keys[i]], keys[i]
    return q_rows, mid


def in_V(v: SPoly, inst: StaffordInstance) -> bool:
    """Membership in V: r * v lies in the right ideal (y + s) * S."""
    return divide(SPoly.from_rpoly(inst.r) * v, inst.s).remainder.is_zero()
