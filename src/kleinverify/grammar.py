"""The text grammar of Laurent polynomials and of klein's twisted ring elements.

laurent.parse_rpoly and klein.parse_spoly import this module when they
are first called, so the ring modules import no re and a command that
parses no polynomial text, such as verify-paper, compiles no grammar.

The patterns stay strings, compiled on first use through re's cache.
Tabs read as spaces and "−" as "-", which keeps every position.  Blanks
may stand between tokens; a number is one token, so "x^1 0" is an error,
not x^10.  A number has at most _MAX_DIGITS digits (see syntax); digits
are ASCII 0-9 only, as "\\d" would also take other scripts' digits.
"""

from __future__ import annotations

import re

from .laurent import PolySyntaxError
from .syntax import _MAX_DIGITS, _quote

_NUM = rf"[0-9]{{1,{_MAX_DIGITS}}}"
# c, x^k or c*x^k: a "*" stands only before x.
_MONO = rf"(?:(?:{_NUM} *(?:\* *)?)?x(?: *\^ *(?:- *)?{_NUM})?|{_NUM})"
_MONO_PREFIX = rf"(?:{_NUM}(?: *(?:\* *)?)?)?(?:x(?: *(?:\^ *(?:- *)?(?:{_NUM})?)?)?)?"


def _tiling(term: str, term_prefix: str) -> tuple[str, str]:
    """A tile, one term with the sign before it (optional at the start or
    after "(") and the blanks after it, and the pattern of its starts."""
    return (
        rf"(?:(?<![^(]) *(?:[+-] *)?|(?<=[^(]) *[+-] *){term} *",
        rf"(?:(?<![^(]) *(?:[+-] *)?{term_prefix}|(?<=[^(]) *(?:[+-] *{term_prefix})?)",
    )


_RPOLY = (_tiling(_MONO, _MONO_PREFIX),)
# A twisted ring element is tiled by its terms, y^m*(coefficient), a bare
# y^m, a coefficient in parentheses or a monomial, each coefficient read as
# any text free of parentheses; and by the monomials inside parentheses,
# everything else read as any text.  No blank stands inside y^m.
_Y = rf"y(?:\^-?{_NUM})?"
_SPOLY = (
    _tiling(
        rf"(?:(?:{_Y} *\* *)?\([^()]*\)|{_Y}|{_MONO})",
        rf"(?:(?:{_Y} *\* *)?\([^()]*(?:\) *)?"
        rf"|y(?:\^-?{_NUM}(?: *(?:\* *)?)?|\^-?| *(?:\* *)?)|{_MONO_PREFIX})",
    ),
    (rf"(?<![^)])[^(]*\(?|{_RPOLY[0][0]}\)?", _RPOLY[0][1]),
)
# One match per monomial of a valid text with its blanks removed: a row
# opener (sign, y-degree, "(" and the sign after it) if any, the sign,
# coefficient, x and exponent, and a ")" if any.  (?=.) keeps the scan from
# an empty match at the end.
_SCAN = r"(?=.)([+-]?)(?:(y)(?:\^(-?[0-9]+))?)?(?:\*?(\()([+-]?))?([0-9]*)\*?(x?)(?:\^(-?[0-9]+))?(\)?)"


def _parse(text: str, tilings: tuple[tuple[str, str], ...]) -> dict[int, dict[int, int]]:
    """One coefficient dict per y-degree for a text that every tile of
    tilings covers, in one scan.  Matching a tile at a time, rather than
    the whole grammar, keeps the regex engine's stack small on long texts."""
    s = text.replace("\t", " ").replace("−", "-")
    if not s.strip(" "):
        raise PolySyntaxError("empty polynomial string")
    if any(re.sub(tile, "", s) for tile, _ in tilings):
        raise _syntax_error(text, s, tilings)
    # The next monomial goes into row, negated inside "-(...)" or "-y^m*(...)".
    top: dict[int, int] = {}
    rows = {0: top}
    row, negated = top, False
    # No blank stands inside a token, so dropping them keeps the meaning.
    for sign, y, degree, paren, first, digits, x, exp, close in re.findall(_SCAN, s.replace(" ", "")):
        if y or paren:
            opened = rows.setdefault((int(degree) if degree else 1) if y else 0, {})
            if not paren:
                opened[0] = opened.get(0, 0) + (-1 if sign == "-" else 1)
                continue
            row, negated, sign = opened, sign == "-", first
        c = int(digits) if digits else 1
        if (sign == "-") != negated:
            c = -c
        e = (int(exp) if exp else 1) if x else 0
        row[e] = row.get(e, 0) + c
        if close:
            row, negated = top, False
    return rows


def _syntax_error(text: str, s: str, tilings: tuple[tuple[str, str], ...]) -> PolySyntaxError:
    """The error at the end of the longest start of s that a valid text
    shares: per tiling, the complete tiles, then the start of one more."""
    at = len(s)
    for tile, tile_prefix in tilings:
        last = end = 0
        for m in re.finditer(tile, s):
            if m.start() != end:
                break
            last, end = end, m.end()
        viable = re.compile(tile_prefix)
        at = min(at, max(viable.match(s, last).end(), viable.match(s, end).end()))
    if at == len(s):
        return PolySyntaxError(f"unexpected end of input in {_quote(text, at)}")
    # A valid start stops inside a run of ASCII digits only at a number too long.
    start = at - _MAX_DIGITS
    if start >= 0 and s[start:at + 1].isascii() and s[start:at + 1].isdecimal():
        return PolySyntaxError(
            f"number longer than {_MAX_DIGITS} digits at position {start} in {_quote(text, start)}"
        )
    return PolySyntaxError(f"unexpected character {text[at]!r} at position {at} in {_quote(text, at)}")
