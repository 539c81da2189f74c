"""Words in a free group on named generators.

A word is an immutable, freely reduced run-length sequence of
(generator, exponent) pairs.  Reduction happens on construction, so every
Word in the system is canonical: two words represent the same free-group
element exactly when they compare equal here.

Text syntax: whitespace-separated letters of the form ``g`` or ``g^k``
with integer ``k``; the bare token ``1`` denotes the identity.  Printing
uses the same syntax with exponent 1 omitted.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

Letter = tuple[str, int]

_TOKEN = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9_]*)(?:\^(?P<exp>[+-]?\d+))?$")


class WordSyntaxError(ValueError):
    """Raised when a word string cannot be parsed."""


def _reduced(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for name, exp in letters:
        if exp == 0:
            continue
        if stack and stack[-1][0] == name:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((name, merged))
        else:
            stack.append((name, exp))
    return tuple(stack)


class Word:
    """Freely reduced word; the empty word is the group identity."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self._letters = _reduced(letters)

    @classmethod
    def _of_reduced(cls, letters: tuple[Letter, ...]) -> "Word":
        """Wrap letters that are already freely reduced, skipping the pass."""
        w = object.__new__(cls)
        w._letters = letters
        return w

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self._letters

    def is_identity(self) -> bool:
        return not self._letters

    def generators(self) -> set:
        return {name for name, _ in self._letters}

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._letters)

    def __len__(self) -> int:
        """Letter length (sum of absolute exponents)."""
        return sum(abs(e) for _, e in self._letters)

    def __mul__(self, other: "Word") -> "Word":
        # Both operands are reduced, so letters can only cancel or merge
        # where they meet: the tail of self against the head of other.
        a, b = self._letters, other._letters
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            merged = a[i - 1][1] + b[j][1]
            if merged:
                return Word._of_reduced(a[: i - 1] + ((b[j][0], merged),) + b[j + 1 :])
            i -= 1
            j += 1
        return Word._of_reduced(a[:i] + b[j:])

    def __invert__(self) -> "Word":
        return Word._of_reduced(
            tuple((name, -exp) for name, exp in reversed(self._letters))
        )

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        return Word(self._letters * n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __str__(self) -> str:
        if not self._letters:
            return "1"
        return " ".join(
            name if exp == 1 else f"{name}^{exp}" for name, exp in self._letters
        )

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


IDENTITY = Word()


def parse_word(text: str, generators: Iterable[str] | None = None) -> Word:
    """Parse a word string, optionally validating generator names.

    >>> parse_word("y^-1 x y x").letters
    (('y', -1), ('x', 1), ('y', 1), ('x', 1))
    >>> parse_word("x x^-1").is_identity()
    True
    """
    if not isinstance(text, str):
        raise WordSyntaxError(f"a word must be a string, not {text!r}")
    declared = set(generators) if generators is not None else None
    tokens = text.split()
    if tokens == ["1"]:
        return Word()
    letters = []
    for i, tok in enumerate(tokens):
        m = _TOKEN.match(tok)
        if m is None:
            raise WordSyntaxError(f"malformed token {tok!r} at position {i}")
        name = m.group("name")
        if declared is not None and name not in declared:
            raise WordSyntaxError(f"undeclared generator {name!r} at position {i}")
        exp = int(m.group("exp")) if m.group("exp") else 1
        letters.append((name, exp))
    return Word(letters)


def conjugate(r: Word, w: Word) -> Word:
    """Conjugate of r by w, that is w * r * w^-1, freely reduced."""
    return w * r * ~w
