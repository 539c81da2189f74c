"""Exact arithmetic in Z[x, x^-1], integer Laurent polynomials in one variable.

Coefficients are plain Python ints (arbitrary precision).  Values are
immutable once constructed.  sigma is the ring involution x -> x^-1.

Products and quotients pick their method by operand size.  Small or sparse
operands use the schoolbook double loop and integer long division.  Dense
operands with at least _KRONECKER_TERMS terms use Kronecker substitution:
each polynomial is read as one integer p(N), N = 2^(8*width), with balanced
digits wide enough that no digit carries, and Python's exact big-int
product or division does the work.  Widths round up to 1, 2, 4 or 8
bytes, so the digits pass through one array.array of signed items, put in
little-endian order whatever sys.byteorder is; wider digits take one
int.to_bytes or int.from_bytes call each.

Every product runs through one kernel, _mul_into(out, a, b, flip, sign),
which adds sign * a(x^flip) * b into the coefficient dict out, and its
signed-shift multiply _scaled(b, e, c, add), which writes c * x^e * b +
add into a fresh dict in one pass over b, with no lookup per term; the
constant 1 times b is one C-level dict(b).  RPoly.__mul__ calls the
kernel with an empty out, klein.SPoly.__mul__ with flip -1 for sigma.
A one-term factor, most products on the verify path (a row of y + s, or
a unit s), goes to _scaled: the kernel sends it there when out has fewer
terms than b, SPoly.__mul__ calls _scaled directly where a product
starts a y-degree, and division.divide on every step, so those rows make
no kernel call.  No product, negation or sum is built only to be added.

The kernel writes only out, a dict its caller built: a dict reachable
from an RPoly is never passed as out, because values share their dicts
and never copy them.  Each value is built once from a dict the library
owns: _nonzero drops its zeros, filtering in Python only when a C-level
scan finds one, and RPoly._of_nonzero wraps it with no copy.  The public
RPoly(...) copies its argument and rejects any exponent or coefficient
that is not an int.

Divisibility is decided exactly, with no rational arithmetic: units x^k are
divided out first.  On the Kronecker path a None is sound, because a | b in
Z[x] implies a(N) | b(N), and a(N) != 0 since its top digit outweighs the
rest.  A quotient is returned only after a * q == b has been checked;
when that check fails (a digit width too narrow for q, or a(N) | b(N) by
coincidence), long division decides.
"""

from __future__ import annotations

import re
import sys

from .syntax import _MAX_DIGITS, _quote


class PolySyntaxError(ValueError):
    """Raised when a polynomial string cannot be parsed."""


class RPoly:
    """Sparse Laurent polynomial: map from exponent to nonzero int coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        # A copy, so the caller keeps its dict; zeros are dropped.
        coeffs = dict(coeffs) if coeffs else {}
        for e, c in coeffs.items():
            if not isinstance(e, int):
                raise ValueError(f"exponent {e!r} is not an int")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an int")
        self._coeffs = _nonzero(coeffs)

    @classmethod
    def _of_nonzero(cls, coeffs: dict[int, int]) -> "RPoly":
        """Wrap coeffs without copying it: a zero-free dict that the
        library built and that nothing writes again."""
        p = object.__new__(cls)
        p._coeffs = coeffs
        return p

    @classmethod
    def zero(cls) -> "RPoly":
        return cls._of_nonzero({})

    @classmethod
    def one(cls) -> "RPoly":
        return cls._of_nonzero({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "RPoly":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_unit(self) -> bool:
        """Units of Z[x, x^-1] are exactly +-x^k."""
        if len(self._coeffs) != 1:
            return False
        return next(iter(self._coeffs.values())) in (1, -1)

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in descending exponent order."""
        return sorted(self._coeffs.items(), reverse=True)

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def sigma(self) -> "RPoly":
        """The involution x -> x^-1 (negates every exponent)."""
        return RPoly._of_nonzero({-e: c for e, c in self._coeffs.items()})

    def shift(self, k: int) -> "RPoly":
        """Multiply by the unit x^k."""
        return RPoly._of_nonzero({e + k: c for e, c in self._coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RPoly) and self._coeffs == other._coeffs

    def __add__(self, other: "RPoly") -> "RPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return RPoly._of_nonzero(_nonzero(out))

    def __neg__(self) -> "RPoly":
        return RPoly._of_nonzero({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "RPoly") -> "RPoly":
        return self + (-other)

    def __mul__(self, other: "RPoly") -> "RPoly":
        return RPoly._of_nonzero(_nonzero(_mul_into({}, self._coeffs, other._coeffs)))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp, c in self.items():
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "x" if exp == 1 else f"x^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RPoly({str(self)!r})"


# The text grammar of Laurent polynomials and of klein's twisted ring
# elements.  The patterns stay strings, compiled on first use through re's
# cache, so importing the package compiles none of them.  Tabs read as
# spaces and "−" as "-", which keeps every position.  Blanks may stand
# between tokens; a number is one token, so "x^1 0" is an error, not x^10.
# A number has at most _MAX_DIGITS digits (see syntax); digits are
# ASCII 0-9 only, as "\d" would also take other scripts' digits.
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


def parse_rpoly(text: str) -> RPoly:
    """Parse text such as "x^3 - x - 1", "-x^-1" or "2*x^2 + 5".

    Terms are c, x^k or c*x^k, with "2x" for "2*x"; the first may carry a
    sign, the others must.  One regex pass checks the text, one more adds
    every monomial into one coefficient dict.  An error gives the position
    in text and quotes the text, or a window around the position when the
    text is over syntax._QUOTE_LIMIT characters.
    """
    return RPoly._of_nonzero(_nonzero(_parse(text, _RPOLY)[0]))


# Kronecker substitution pays off once both operands have about this many
# terms: on perfbench's laurent.mul and laurent.quotient series, products
# break even at 15-17 terms and quotients at 17-19.  An operand is dense
# when its exponent span is under _DENSE_FILL times its term count, so a
# sparse x^100000000 - 1 is never packed into an integer.
_KRONECKER_TERMS = 18
_DENSE_FILL = 4


def _dense(coeffs: dict[int, int]) -> bool:
    return max(coeffs) - min(coeffs) < _DENSE_FILL * len(coeffs)


def _max_abs(coeffs: dict[int, int]) -> int:
    return max(map(abs, coeffs.values()))


def _width(bound: int) -> int:
    """Bytes per balanced digit holding every integer of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


# Signed array item codes by size in bytes: C's char, short, int and long
# long, 1, 2, 4 and 8 bytes wherever CPython builds.
_ITEM_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_BIG_ENDIAN = sys.byteorder == "big"


def _item_width(width: int) -> int:
    """width rounded up to the next array item size: 1, 2, 4 or 8 bytes;
    a width over 8 bytes stays as it is."""
    return next((size for size in _ITEM_CODES if width <= size), width)


def _array(code: str, data: list[int] | bytes):
    """array(code, data), byte-swapped on a big-endian host: ints become
    little-endian bytes and little-endian bytes become ints.  The module
    loads at the first call, so a start-up that packs no digits skips it."""
    from array import array

    items = array(code, data)
    if _BIG_ENDIAN:
        items.byteswap()
    return items


def _bias(width: int, n: int) -> int:
    """2^(8*width - 1) in each of n digits: the offset that makes balanced digits nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(coeffs: dict[int, int], start: int, n: int, width: int, step: int = 1) -> int:
    """sum coeffs[start + step*i] * 2^(8*width*i) over 0 <= i < n, in linear time.

    Each coefficient must fit a balanced digit of width bytes.  The digits
    are written in two's complement, by one array of signed items at an
    item width, else one int.to_bytes call each.  XOR with the bias flips
    each digit's top bit, adding 2^(8*width - 1) to it with no carry.
    """
    get = coeffs.get
    exps = range(start, start + step * n, step)
    code = _ITEM_CODES.get(width)
    if code is None:
        raw = b"".join(get(e, 0).to_bytes(width, "little", signed=True) for e in exps)
    else:
        raw = _array(code, [get(e, 0) for e in exps]).tobytes()
    bias = _bias(width, n)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(value: int, width: int, n: int) -> list[int] | None:
    """The n balanced digits of value, lowest first, or None when it has none.

    The inverse of _pack: XOR with the bias gives two's complement digits,
    read by one array of signed items at an item width.
    """
    bias = _bias(width, n)
    value += bias
    if value < 0 or value.bit_length() > 8 * width * n:
        return None
    raw = (value ^ bias).to_bytes(width * n, "little")
    code = _ITEM_CODES.get(width)
    if code is None:
        return [int.from_bytes(raw[i:i + width], "little", signed=True) for i in range(0, width * n, width)]
    return _array(code, raw).tolist()


def _nonzero(coeffs: dict[int, int]) -> dict[int, int]:
    """coeffs without its zero coefficients: coeffs itself when a C-level
    scan finds none, else a filtered copy."""
    return {e: c for e, c in coeffs.items() if c} if 0 in coeffs.values() else coeffs


def _mul_into(
    out: dict[int, int], a: dict[int, int], b: dict[int, int], flip: int = 1, sign: int = 1
) -> dict[int, int]:
    """Add sign * a(x^flip) * b into out and return the sum, for flip and
    sign in {1, -1}.

    The one multiply kernel: RPoly products, SPoly row products (flip -1
    is sigma), quotient checks and division's steps by a several-term s
    run through it.  out may be updated in place or replaced, so callers
    keep the returned dict.  a and b are only read, hold no zero
    coefficient, and are never returned.

    Invariant: a dict reachable from an RPoly is never passed as out.
    RPolys share their dicts and never copy them, so out is a dict the
    caller built, or one that this kernel or _scaled returned.

    A one-term a (a unit s, or a row of y + s) goes to _scaled when out
    has fewer terms than b.  The in-place loop deletes a coefficient that
    cancels, so a product that cancels down to a few terms, as (y + s) * q
    does when it recomposes f, leaves no zeros to filter; Kronecker digits
    and _scaled keep theirs, and _nonzero drops them.
    """
    if len(a) == 1:
        if len(out) < len(b):
            [(e1, c1)] = a.items()
            return _scaled(b, e1 * flip, c1 * sign, out)
    elif len(a) >= _KRONECKER_TERMS and len(b) >= _KRONECKER_TERMS and _dense(a) and _dense(b):
        lo, digits = _kronecker_mul(a, b, flip, sign)
        if not out:
            return dict(enumerate(digits, lo))
        get = out.get
        for e, c in enumerate(digits, lo):
            out[e] = get(e, 0) + c
        return out
    get = out.get
    for e1, c1 in a.items():
        e1 *= flip
        c1 *= sign
        for e2, c2 in b.items():
            e = e1 + e2
            v = get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _scaled(b: dict[int, int], e1: int, c1: int, add: dict[int, int] | None = None) -> dict[int, int]:
    """c1 * x^e1 * b + add as a fresh dict, reading b and add only.

    The signed-shift multiply of _mul_into's one-term path, of
    SPoly.__mul__ where a one-term row starts a y-degree, and of
    division's steps by a one-term s.  For c1 * x^e1 = 1 (the y row of
    y + s, or SPoly.one()) b is copied by one C-level dict(b).  Plain
    loops, not comprehensions: on CPython 3.11 a comprehension is a
    function call, which costs more than it saves on the one- to
    three-term rows of the paper's instance.
    """
    if e1 or c1 != 1:
        res = {}
        for e2, c2 in b.items():
            res[e1 + e2] = c1 * c2
    else:
        res = dict(b)
    if add:
        get = res.get
        for e, c in add.items():
            res[e] = get(e, 0) + c
    return res


def _kronecker_mul(
    a: dict[int, int], b: dict[int, int], flip: int, sign: int
) -> tuple[int, list[int]]:
    """The lowest exponent and the coefficients of sign * a(x^flip) * b."""
    # No product coefficient exceeds max|a| * max|b| * min(terms), since
    # each exponent pairs at most that many terms; so no digit carries.
    # a(x^-1) is packed by reading a from its top exponent down.
    a_lo, a_hi, b_lo = min(a), max(a), min(b)
    a_n, b_n = a_hi - a_lo + 1, max(b) - b_lo + 1
    a_start = a_lo if flip > 0 else a_hi
    width = _item_width(_width(_max_abs(a) * _max_abs(b) * min(len(a), len(b))))
    product = _pack(a, a_start, a_n, width, flip) * _pack(b, b_lo, b_n, width)
    if sign < 0:
        product = -product
    return flip * a_start + b_lo, _unpack(product, width, a_n + b_n - 1)


def _exact_poly_quotient(num: dict[int, int], den: dict[int, int]) -> dict[int, int] | None:
    # Ordinary polynomials (min exponent 0, nonzero constant term for den).
    if (
        len(den) >= _KRONECKER_TERMS
        and max(num) - max(den) + 1 >= _KRONECKER_TERMS
        and _dense(num)
        and _dense(den)
    ):
        return _kronecker_quotient(num, den)
    return _long_quotient(num, den)


def _long_quotient(num: dict[int, int], den: dict[int, int]) -> dict[int, int] | None:
    # Long division from the top; every quotient coefficient must be an
    # exact integer and the remainder must vanish.  Zeros are dropped from
    # rem and max(rem) finds the next top, so the loop jumps over zero gaps:
    # x^100000000 - 1 over x^10000 - 1 takes 10^4 steps, a dense walk 10^8.
    dmax = max(den)
    dlead = den[dmax]
    rem = dict(num)
    quot: dict[int, int] = {}
    while rem:
        rmax = max(rem)
        if rmax < dmax:
            return None
        c, leftover = divmod(rem[rmax], dlead)
        if leftover:
            return None
        shift = rmax - dmax
        quot[shift] = c
        for e, dc in den.items():
            ne = e + shift
            v = rem.get(ne, 0) - dc * c
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return quot


def _kronecker_quotient(num: dict[int, int], den: dict[int, int]) -> dict[int, int] | None:
    # None when den(N) does not divide num(N), which is exact (see the
    # module docstring).  Otherwise the integer quotient is unpacked to a
    # candidate, returned only if den * candidate == num.  The width fits
    # both operands; that it also fits the quotient is a guess, and a
    # candidate that fails the check goes to long division.
    num_n, den_n = max(num) + 1, max(den) + 1
    width = _item_width(_width(max(_max_abs(num) * len(num), _max_abs(den))))
    big_q, big_rem = divmod(_pack(num, 0, num_n, width), _pack(den, 0, den_n, width))
    if big_rem:
        return None
    digits = _unpack(big_q, width, num_n - den_n + 1)
    if digits is not None:
        quot = _nonzero(dict(enumerate(digits)))
        if _nonzero(_mul_into({}, den, quot)) == num:
            return quot
    return _long_quotient(num, den)


def quotient(a: RPoly, b: RPoly) -> RPoly | None:
    """Exact quotient c with b = a * c, or None when a does not divide b.

    Requires a nonzero.  Units x^k are absorbed by shifting both operands
    to ordinary polynomials with nonzero constant term first.
    """
    if a.is_zero():
        raise ValueError("division by the zero polynomial")
    if b.is_zero():
        return RPoly.zero()
    a_shift = a.min_exp
    b_shift = b.min_exp
    a0 = {e - a_shift: c for e, c in a._coeffs.items()}
    b0 = {e - b_shift: c for e, c in b._coeffs.items()}
    q = _exact_poly_quotient(b0, a0)
    if q is None:
        return None
    k = b_shift - a_shift
    return RPoly._of_nonzero({e + k: c for e, c in q.items()} if k else q)


def divides(a: RPoly, b: RPoly) -> bool:
    """True iff there is c in Z[x, x^-1] with b = a * c.

    divides(0, 0) is True; divides(0, b) for nonzero b is an invalid query.
    """
    if a.is_zero():
        if b.is_zero():
            return True
        raise ValueError("invalid query: zero divides only zero")
    return quotient(a, b) is not None
