"""Integer long division in Z[x, x^-1], the quotient's last resort.

laurent.quotient calls _long_quotient when its two shortcuts do not
answer and the operands are not both dense, and kronecker's quotient when
its candidate fails the product check; each imports it at that call.  So
a start-up whose quotients are all settled by a shortcut or by Kronecker
digits, as verify-paper's one quotient is, compiles no long division and
loads no heapq.

Division runs from the top, down to the quotient's lowest exponent lo;
every quotient coefficient must be an exact integer and the remainder
must vanish.  The remainder's exponents wait in a heap, negated for
heapq's min-heap, so each step pops the next top with no scan of the
remainder and costs O(terms(den) * log(terms(rem))).  Zero gaps are
jumped over: x^100000000 - 1 over x^10000 - 1 takes 10^4 steps, not
10^8.  An exponent is pushed when it enters rem, and one whose
coefficient cancelled is skipped when popped; a step writes only below
its top, so a popped exponent never comes back.
"""

from __future__ import annotations

import heapq


def _long_quotient(num: dict[int, int], den: dict[int, int], lo: int) -> dict[int, int] | None:
    """The quotient num / den, lowest exponent lo, as a coefficient dict,
    or None when den does not divide num (see the module docstring)."""
    dmax = max(den)
    dlead = den[dmax]
    stop = dmax + lo
    lower = dict(den)
    del lower[dmax]
    rem = dict(num)
    tops = [-e for e in rem]
    heapq.heapify(tops)
    pop, push = heapq.heappop, heapq.heappush
    quot: dict[int, int] = {}
    while tops:
        rmax = -pop(tops)
        top = rem.pop(rmax, 0)
        if not top:
            continue
        if rmax < stop:
            return None
        c, leftover = divmod(top, dlead)
        if leftover:
            return None
        shift = rmax - dmax
        quot[shift] = c
        for e, dc in lower.items():
            e += shift
            v = rem.get(e)
            if v is None:
                rem[e] = -dc * c
                push(tops, -e)
            elif v := v - dc * c:
                rem[e] = v
            else:
                del rem[e]
    return quot
