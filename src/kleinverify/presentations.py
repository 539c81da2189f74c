"""Finite group presentations: generators, relator words, the Euler
characteristic and the JSON form.

The free differential calculus on them, FreeCombo, fox_derivative and
boundary_matrices, lives in the fox module, which no verdict runs: this
module resolves those names by a module __getattr__ (PEP 562) that
loads fox at the first read of one, so presentations.fox_derivative is
fox.fox_derivative and verify-paper never compiles it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

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


def __getattr__(name: str):
    """FreeCombo, fox_derivative and boundary_matrices, from fox, which
    loads at the first read of one of them."""
    if name in ("FreeCombo", "boundary_matrices", "fox_derivative"):
        from . import fox

        return getattr(fox, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
