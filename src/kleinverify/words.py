"""Words in a free group on named generators.

A word is an immutable, freely reduced run-length sequence of
(generator, exponent) pairs.  Reduction happens on construction, so every
Word in the system is canonical: two words represent the same free-group
element exactly when they compare equal here.

Text syntax: whitespace-separated letters of the form ``g`` or ``g^k``
with integer ``k``, written in ASCII digits 0-9, at most 4300 of them
(CPython's default int() limit); the bare token ``1`` denotes the
identity.  Printing uses the same syntax with exponent 1 omitted.

The public Word(...) rejects a letter whose name is not such a generator
name or whose exponent is not an int, so every word prints as text that
parses back to it.  Code that already holds valid letters (parse_word,
powers, certificate expansion) wraps them through Word._of_reduced and
skips that check.

This module is the bottom of the free-group layer: it imports only the
shared parser limits of syntax, never the ring modules.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .syntax import _MAX_DIGITS, _quote

Letter = tuple[str, int]

# "[0-9]", as "\d" would also take other scripts' digits.  A token is valid
# when the match takes all of it; else it is quoted around the match's end.
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"(?P<name>{_NAME})(?:\^(?P<exp>[+-]?[0-9]+))?")
_IS_NAME = re.compile(_NAME).fullmatch
# An over-long exponent is quoted by its token's first _QUOTE_CHARS characters.
_QUOTE_CHARS = 20


class WordSyntaxError(ValueError):
    """Raised when a word string cannot be parsed."""


def _reduced(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    # One stack pass.  top is the generator of stack[-1] (None on an empty
    # stack), so a letter costs one comparison and a push: a tuple letter
    # is pushed as it is, and only a merge or a list-shaped letter builds
    # a tuple.  A zero exponent is dropped, or merges as a no-op.
    stack: list[Letter] = []
    top = None
    for letter in letters:
        name, exp = letter
        if name == top:
            merged = stack.pop()[1] + exp
            if merged:
                stack.append((name, merged))
            else:
                top = stack[-1][0] if stack else None
        elif exp:
            stack.append(letter if type(letter) is tuple else (name, exp))
            top = name
    return tuple(stack)


class Word:
    """Freely reduced word; the empty word is the group identity."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for name, exp in letters:
            # isinstance, not type(): True and False pass, as in RPoly.
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an int")
            if not (isinstance(name, str) and _IS_NAME(name)):
                raise ValueError(f"generator name {name!r} is not a letter followed by letters, digits or _")
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
        return Word._of_reduced(_reduced(self._letters * n))

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
        if m is None or m.end() < len(tok):
            raise WordSyntaxError(f"malformed token {_quote(tok, m.end() if m else 0)} at position {i}")
        name, exp = m.group("name", "exp")
        if declared is not None and name not in declared:
            raise WordSyntaxError(f"undeclared generator {name!r} at position {i}")
        if exp and len(exp.lstrip("+-")) > _MAX_DIGITS:
            raise WordSyntaxError(
                f"exponent longer than {_MAX_DIGITS} digits in token"
                f" {tok[:_QUOTE_CHARS]!r}... at position {i}"
            )
        letters.append((name, int(exp) if exp else 1))
    return Word._of_reduced(_reduced(letters))
