"""Division by y + s in the twisted ring: divide, its row walk, and
membership in V.

division loads this module at the first use of divide, in_V or
DivisionResult, which it resolves by a module __getattr__ (PEP 562), as
the package does for every public name.  verify-paper divides nothing,
so it never compiles the walk.

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
row q_k is row_(k+1).  _walk keeps row_(k+2) and row_(k+1) and writes
row_k into a fresh dict, by a step form chosen from s:

- s of several terms: the kernel laurent._mul_into, which returns no
  zero, adds the product by -s, negated once per division, into a copy
  of f_k; the coefficient domain is Z[x, x^-1].
- s = c*x^e of one term: one loop writes -sigma^k(s) * row_(k+1), a
  second adds f_k and deletes each coefficient that cancels, so no
  kernel is called and no zero is left to scan for.
- s = c*x^e with c^2 = 1 may fold two steps into one.  The product
  sigma^k(s) * sigma^(k+1)(s) is c^2, so

    row_k = c^2 * row_(k+2) + f_k - sigma^k(s) * f_(k+1),

  and only for c^2 = 1 is the first term a C-level copy of row_(k+2);
  for any other c it is a scaled copy, a loop no cheaper than the step
  it replaces.  The two-step form then loops over f's own two rows,
  where the one-step form loops over the whole of row_(k+1).

A step by a unit s takes the two-step form when row_(k+2) is nonzero and
f_(k+1) has fewer than half the terms of row_(k+1), else the one-step
form.  The copy costs a few per cent of a loop per term, so the rule
weighs the two loops alone; a rule that also weighed the copy and the
two-step form's fixed cost took fewer two-step steps on long sparse f
and was no faster where rows of f share one support.  Both forms are
exact, so the choice, which has no option, affects only the cost: rows
of f that share one support keep the one-step form, and the sparse rows
of a long f the two-step one.  f_(k+1) is the row the step before read
as f_k, so the rule looks up no row of f.

When row_k cancels, row_(k-1) is f_(k-1), and so on down to f's next
row, so the walk jumps to that row of f, which it shares and does not
copy, and goes on from there as from the top.  The walk holds
the rows as SPoly keeps them, plain coefficient dicts: it reads f's rows
and never writes them (they may be shared with RPolys and other
SPolys), and writes only the dicts its steps create.  A row becomes a
quotient row as it is, so no row is wrapped; the one RPoly built is the
remainder.
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
    minimal y-degree of f.  One walk, _walk, takes a step per y-degree,
    through the multiply kernel for an s of several terms and inline for
    a one-term s, folding two steps into one where s is a unit.  It holds
    raw coefficient dicts, f's own, which it only reads, and the fresh
    rows its steps write (see the module docstring).
    """
    if f.is_zero():
        return DivisionResult(SPoly.zero(), 0, RPoly.zero())
    keys = sorted(f._rows)
    q_rows, rem = _walk(f._rows, keys, s._coeffs)
    return DivisionResult(
        SPoly._of_rows(q_rows),
        keys[0],
        RPoly._of_nonzero(rem) if rem else RPoly.zero(),
    )


def _walk(
    f_rows: dict[int, dict[int, int]], keys: list[int], s_terms: dict[int, int]
) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """divide's walk: the quotient's rows, and the remainder's row at
    y-degree keys[0] (the sorted keys of f_rows), empty when it is zero.

    hi and mid hold row_(k+2) and row_(k+1), and q_k is row_(k+1).  A
    step writes row_k = f_k - sigma^k(s)*row_(k+1) through the kernel
    for an s of several terms, in one inline loop for s = c*x^e, or, for
    c^2 = 1, as row_(k+2) + f_k - sigma^k(s)*f_(k+1) when hi is nonzero
    and f_(k+1) has fewer than half the terms of mid.
    """
    get = f_rows.get
    d, i = keys[0], len(keys) - 1
    top = keys[i]
    q_rows = {}
    hi, above, mid = None, (), f_rows[top]
    if len(s_terms) > 1:
        minus_s = {e: -c for e, c in s_terms.items()}
    else:
        minus_s = None
        [(s_exp, c)] = s_terms.items()
        minus_c, unit = -c, c * c == 1
    while top > d:
        k = top - 1
        q_rows[k] = mid
        # f_k, or () where f has no row; the next step reads it as f_(k+1).
        below = get(k, ())
        if minus_s:
            row = _mul_into(dict(below), minus_s, mid, -1 if k % 2 else 1)
        else:
            x = -s_exp if k % 2 else s_exp
            if unit and hi and 2 * len(above) < len(mid):
                row = dict(hi)
                if above:
                    rget = row.get
                    for e, v in above.items():
                        e += x
                        v = rget(e, 0) + minus_c * v
                        if v:
                            row[e] = v
                        else:
                            del row[e]
            else:
                row = {}
                for e, v in mid.items():
                    row[x + e] = minus_c * v
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
            above = below
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
