"""The reference free differential calculus: Fox derivatives as integer
combinations of words, and their evaluation in the Klein bottle group ring.

A Fox derivative is returned as a FreeCombo, a value that prints and
compares and does no arithmetic.  Pushing it into a group ring is done
by an evaluation map supplied by the caller, so the chain-level boundary
data can be assembled for any quotient group; eval_combo is the map into
the Klein bottle group ring S.

fox_derivative serves the fox command.  Each of its terms is a slice of
the reduced word with at most one letter appended, built with no product
and no reduction, so its cost is linear in what it prints.  FreeCombo
orders terms by their letter count, summed rather than taken by len(),
which refuses a count over sys.maxsize.  boundary_matrices, with
eval_combo, is the reference the tests hold klein.boundary_data to;
verification does not use it, because boundary_data evaluates the same
Fox derivatives directly in S, in one pass per relator.  So no verdict
runs this module: presentations resolves FreeCombo, fox_derivative and
boundary_matrices, and klein resolves eval_combo, by a module __getattr__
(PEP 562) that loads it at the first read, and verify-paper never
compiles it.  It imports words alone at its top; eval_combo imports
klein when it runs, so the fox command loads no ring module.

Convention for right modules: the boundary entries handed to the evaluator
are the anti-involution (sum c*w -> sum c*w^-1) of the left Fox
derivatives, and the edge boundary sends the edge of g to the image of
g^-1 - 1.  Composites then pair edge entries on the LEFT of disk entries.
"""

from __future__ import annotations

from .words import Word

# Callable, Presentation and SPoly appear only in annotations, which are
# never evaluated.


def _order(w: Word) -> tuple[int, str]:
    """A term's place in print: fewer letters first, then by text."""
    return sum(abs(k) for _, k in w.letters), str(w)


class FreeCombo:
    """Finite integer combination of free-group words.

    This is the value of a Fox derivative before evaluation in a group
    ring.  Zero coefficients are dropped on construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c}

    def items(self) -> list[tuple[Word, int]]:
        return sorted(self._terms.items(), key=lambda t: _order(t[0]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeCombo) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # The order of items(), with each word formatted once.  Two words
        # never share their text, so the sort never compares coefficients.
        terms = sorted((_order(w), c) for w, c in self._terms.items())
        return " + ".join(f"{c}*({text})" for (_, text), c in terms)

    def __repr__(self) -> str:
        return f"FreeCombo({str(self)!r})"


def fox_derivative(w: Word, g: str) -> FreeCombo:
    """Left Fox derivative of w with respect to the generator g.

    Satisfies dg/dg = 1, dh/dg = 0 for h != g, d(g^-1)/dg = -g^-1 and the
    product rule d(uv)/dg = du/dg + u * dv/dg.
    """
    # By the product rule each run g^k adds prefix * d(g^k)/dg, where
    # d(g^k)/dg = 1 + g + ... + g^(k-1) for k > 0,
    #           = -(g^-1 + ... + g^k)   for k < 0.
    # w is reduced, so the prefix is the slice of w's letters before the
    # run, and its last letter is not on g: each term is that slice with
    # (g, i) appended, already reduced.  All runs add into one dict, so
    # the cost is that of the output.
    terms: dict[Word, int] = {}
    for at, (name, exp) in enumerate(w.letters):
        if name == g:
            prefix = w.letters[:at]
            sign = 1 if exp > 0 else -1
            for i in range(exp) if exp > 0 else range(-1, exp - 1, -1):
                key = Word._of_reduced(prefix + ((g, i),) if i else prefix)
                terms[key] = terms.get(key, 0) + sign
    return FreeCombo(terms)


def boundary_matrices(
    p: Presentation, eval_combo: Callable[[FreeCombo], object]
) -> tuple[list[list[object]], list[object]]:
    """Boundary data of the presentation complex in the right-module convention.

    Returns (d2, d1) where d2[j][i] is the evaluated, anti-involuted Fox
    derivative of relator j with respect to generator i, and d1[i] is the
    evaluated image of g_i^-1 - 1.  The composite that must vanish is
    sum_i d1[i] * d2[j][i], with d1 entries multiplying on the left.
    """
    d2 = [
        [
            eval_combo(FreeCombo({~w: c for w, c in fox_derivative(rel, g)._terms.items()}))
            for g in p.generators
        ]
        for rel in p.relators
    ]
    d1 = [eval_combo(FreeCombo({Word._of_reduced(((g, -1),)): 1, Word(): -1})) for g in p.generators]
    return d2, d1


def eval_combo(c: FreeCombo) -> SPoly:
    """Linear extension of klein.eval_word followed by the group-to-ring
    embedding into S."""
    from .klein import _spoly, eval_word

    rows: dict[int, dict[int, int]] = {}
    for w, coeff in c._terms.items():
        m, n = eval_word(w)
        row = rows.setdefault(m, {})
        row[n] = row.get(n, 0) + coeff
    return _spoly(rows)
