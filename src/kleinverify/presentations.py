"""Finite group presentations and the free differential calculus.

This layer stays inside the free group: Fox derivatives are returned as
integer combinations of words (FreeCombo).  Pushing them into a group ring
is done by an evaluation map supplied by the caller, so the chain-level
boundary data can be assembled for any quotient group.

FreeCombo, fox_derivative and boundary_matrices serve the fox command and
are the reference the tests check against.  Verification does not use
them: klein.boundary_data evaluates the same Fox derivatives directly in
the Klein bottle group ring, in one pass per relator.

Convention for right modules: the boundary entries handed to the evaluator
are the anti-involution (sum c*w -> sum c*w^-1) of the left Fox
derivatives, and the edge boundary sends the edge of g to the image of
g^-1 - 1.  Composites then pair edge entries on the LEFT of disk entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from .words import Word, parse_word


@dataclass(frozen=True)
class Presentation:
    """Ordered generators plus relator words over those generators."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise ValueError("duplicate generator name")
        for i, rel in enumerate(self.relators):
            foreign = rel.generators() - declared
            if foreign:
                raise ValueError(
                    f"relator {i} uses undeclared generator(s) {sorted(foreign)}"
                )

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

    def to_dict(self) -> Dict:
        return {
            "generators": list(self.generators),
            "relators": [str(r) for r in self.relators],
        }


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return Presentation.from_dict(json.load(fh))


def euler_characteristic(p: Presentation) -> int:
    """Disks minus loops plus the single vertex of the presentation complex."""
    return len(p.relators) - len(p.generators) + 1


class FreeCombo:
    """Finite integer combination of free-group words.

    This is the value of a Fox derivative before evaluation in a group
    ring.  Terms with equal words are merged; zero coefficients vanish.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Word, int] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "FreeCombo":
        return cls()

    @classmethod
    def term(cls, word: Word, coeff: int = 1) -> "FreeCombo":
        return cls({word: coeff})

    def items(self) -> List[Tuple[Word, int]]:
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), str(t[0])))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeCombo) and self._terms == other._terms

    def __add__(self, other: "FreeCombo") -> "FreeCombo":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return FreeCombo(out)

    def __neg__(self) -> "FreeCombo":
        return FreeCombo({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "FreeCombo") -> "FreeCombo":
        return self + (-other)

    def lmul(self, u: Word) -> "FreeCombo":
        """Left-multiply every word by u."""
        out: Dict[Word, int] = {}
        for w, c in self._terms.items():
            key = u * w
            out[key] = out.get(key, 0) + c
        return FreeCombo(out)

    def rmul(self, u: Word) -> "FreeCombo":
        """Right-multiply every word by u."""
        out: Dict[Word, int] = {}
        for w, c in self._terms.items():
            key = w * u
            out[key] = out.get(key, 0) + c
        return FreeCombo(out)

    def star(self) -> "FreeCombo":
        """Linear anti-involution: each word is replaced by its inverse."""
        out: Dict[Word, int] = {}
        for w, c in self._terms.items():
            key = ~w
            out[key] = out.get(key, 0) + c
        return FreeCombo(out)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*({w})" for w, c in self.items())

    def __repr__(self) -> str:
        return f"FreeCombo({str(self)!r})"


def _run_derivative(g: str, exp: int) -> FreeCombo:
    # d(g^k)/dg = 1 + g + ... + g^(k-1) for k > 0,
    #           = -(g^-1 + ... + g^k)   for k < 0.
    terms: Dict[Word, int] = {}
    if exp > 0:
        for i in range(exp):
            terms[Word(((g, i),))] = 1
    else:
        for i in range(1, -exp + 1):
            terms[Word(((g, -i),))] = -1
    return FreeCombo(terms)


def fox_derivative(w: Word, g: str) -> FreeCombo:
    """Left Fox derivative of w with respect to the generator g.

    Satisfies dg/dg = 1, dh/dg = 0 for h != g, d(g^-1)/dg = -g^-1 and the
    product rule d(uv)/dg = du/dg + u * dv/dg.
    """
    result = FreeCombo.zero()
    prefix = Word()
    for name, exp in w.letters:
        if name == g:
            result = result + _run_derivative(g, exp).lmul(prefix)
        prefix = prefix * Word(((name, exp),))
    return result


def boundary_matrices(
    p: Presentation, eval_combo: Callable[[FreeCombo], object]
) -> Tuple[List[List[object]], List[object]]:
    """Boundary data of the presentation complex in the right-module convention.

    Returns (d2, d1) where d2[j][i] is the evaluated, anti-involuted Fox
    derivative of relator j with respect to generator i, and d1[i] is the
    evaluated image of g_i^-1 - 1.  The composite that must vanish is
    sum_i d1[i] * d2[j][i], with d1 entries multiplying on the left.
    """
    d2 = [
        [eval_combo(fox_derivative(rel, g).star()) for g in p.generators]
        for rel in p.relators
    ]
    one = FreeCombo.term(Word())
    d1 = [
        eval_combo(FreeCombo.term(~Word(((g, 1),))) - one) for g in p.generators
    ]
    return d2, d1
