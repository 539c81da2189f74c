"""Finite group presentations and the free differential calculus.

This layer stays inside the free group: a Fox derivative is returned as an
integer combination of words (FreeCombo), a value that prints and compares
and does no arithmetic.  Pushing it into a group ring is done by an
evaluation map supplied by the caller, so the chain-level boundary data
can be assembled for any quotient group.

fox_derivative serves the fox command.  boundary_matrices, with
klein.eval_combo, is the reference the tests hold klein.boundary_data to;
verification does not use it, because boundary_data evaluates the same
Fox derivatives directly in the Klein bottle group ring, in one pass per
relator.

Convention for right modules: the boundary entries handed to the evaluator
are the anti-involution (sum c*w -> sum c*w^-1) of the left Fox
derivatives, and the edge boundary sends the edge of g to the image of
g^-1 - 1.  Composites then pair edge entries on the LEFT of disk entries.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from .words import _IS_NAME, Word, parse_word


class Presentation:
    """Ordered generators plus relator words over those generators."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Iterable[str], relators: Iterable[Word]):
        self.generators, self.relators = tuple(generators), tuple(relators)
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise ValueError("duplicate generator name")
        for g in self.generators:
            if not (isinstance(g, str) and _IS_NAME(g)):
                raise ValueError(f"generator name {g!r} is not a letter followed by letters, digits or _")
        for i, rel in enumerate(self.relators):
            foreign = rel.generators() - declared
            if foreign:
                raise ValueError(
                    f"relator {i} uses undeclared generator(s) {sorted(foreign)}"
                )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Presentation) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)

    @classmethod
    def from_strings(cls, generators: Iterable[str], relators: Iterable[str]) -> "Presentation":
        gens = tuple(generators)
        return cls(gens, tuple(parse_word(r, gens) for r in relators))

    @classmethod
    def from_dict(cls, data: Mapping) -> "Presentation":
        if not isinstance(data, Mapping) or "generators" not in data or "relators" not in data:
            raise ValueError("presentation JSON needs an object with 'generators' and 'relators'")
        gens, rels = data["generators"], data["relators"]
        if not (isinstance(gens, list) and isinstance(rels, list)) or any(
            not isinstance(g, str) for g in gens
        ):
            raise ValueError("presentation 'generators' and 'relators' must be lists of strings")
        return cls.from_strings(gens, rels)

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [str(r) for r in self.relators],
        }


def load_presentation(path) -> Presentation:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return Presentation.from_dict(json.load(fh))


def euler_characteristic(p: Presentation) -> int:
    """Disks minus loops plus the single vertex of the presentation complex."""
    return len(p.relators) - len(p.generators) + 1


class FreeCombo:
    """Finite integer combination of free-group words.

    This is the value of a Fox derivative before evaluation in a group
    ring.  Zero coefficients are dropped on construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c}

    def items(self) -> list[tuple[Word, int]]:
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), str(t[0])))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeCombo) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # The order of items(), with each word formatted once.  Two words
        # never share their text, so the sort never compares coefficients.
        terms = sorted((len(w), str(w), c) for w, c in self._terms.items())
        return " + ".join(f"{c}*({text})" for _, text, c in terms)

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
    # All runs add into one dict, so the cost is that of the output.  Each
    # letter is one of w's, so it skips Word's public check.
    terms: dict[Word, int] = {}
    prefix = Word()
    for name, exp in w.letters:
        if name == g:
            sign = 1 if exp > 0 else -1
            for i in range(exp) if exp > 0 else range(-1, exp - 1, -1):
                key = prefix * Word._of_reduced(((g, i),)) if i else prefix
                terms[key] = terms.get(key, 0) + sign
        prefix = prefix * Word._of_reduced(((name, exp),))
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
