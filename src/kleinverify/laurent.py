"""Exact arithmetic in Z[x, x^-1], integer Laurent polynomials in one variable.

Coefficients are plain Python ints (arbitrary precision).  Values are
immutable once constructed.  sigma is the ring involution x -> x^-1.

Products and quotients pick their method by operand size.  Small or sparse
operands use the schoolbook double loop and integer long division, which
finds each step's top in a heap of the remainder's exponents.  Dense
operands with at least _KRONECKER_TERMS terms use Kronecker substitution:
each polynomial is read as one integer p(N), N = 2^(8*width), with balanced
digits wide enough that no digit carries, and Python's exact big-int
product or division does the work.  Widths round up to 1, 2, 4 or 8
bytes, so the digits pass through one array.array of signed items, put in
little-endian order whatever sys.byteorder is; wider digits take one
int.to_bytes or int.from_bytes call each.

One kernel, _mul_into(out, a, b, flip), adds a(x^flip) * b into the
coefficient dict out, by Kronecker substitution or the schoolbook double
loop.  RPoly.__mul__ calls it with an empty out, klein.SPoly.__mul__
with flip -1 for sigma.  A one-term row, most products on the verify
path (a row of y + s, or a unit s), makes no kernel call: klein's row
walk and division.divide's steps multiply such a row inline, one loop
per row.  No product is built only to be added.  One pass, _sum, adds
or subtracts: RPoly sums and differences and the rows klein's sums
share, with no negated copy of the subtrahend.

The kernel writes only out, a dict its caller built: a dict reachable
from an RPoly is never passed as out, because values share their dicts
and never copy them.  klein.SPoly keeps its rows as such dicts, with no
RPoly per row, and may share them with RPolys, so the same holds for
every row: the row walks of klein and division hand the kernel only
dicts they created.  Each value is built once from a dict the library
owns: _nonzero drops its zeros, filtering in Python only when a C-level
scan finds one, and RPoly._of_nonzero wraps it with no copy.  The public
RPoly(...) copies its argument and rejects any exponent or coefficient
that is not an int.

Divisibility is decided exactly, with no rational arithmetic, on the
operands' own dicts: units x^k need no shifted copy, because the
quotient's lowest exponent is min(b) - min(a).  Long division stops
below it, and the Kronecker path packs each operand from its lowest
exponent and reads the quotient's digits from it.  On the Kronecker path
a None is sound, because a | b in Z[x] implies a(N) | b(N), and
a(N) != 0 since its top digit outweighs the rest.  A quotient is
returned only after a * q == b has been checked; when that check fails
(a digit width too narrow for q, or a(N) | b(N) by coincidence), long
division decides.
"""

from __future__ import annotations

import sys


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
        return RPoly._of_nonzero(_sum(self._coeffs, other._coeffs, 1))

    def __neg__(self) -> "RPoly":
        return RPoly._of_nonzero({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "RPoly") -> "RPoly":
        return RPoly._of_nonzero(_sum(self._coeffs, other._coeffs, -1))

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


def parse_rpoly(text: str) -> RPoly:
    """Parse text such as "x^3 - x - 1", "-x^-1" or "2*x^2 + 5".

    Terms are c, x^k or c*x^k, with "2x" for "2*x"; the first may carry a
    sign, the others must.  One regex pass checks the text, one more adds
    every monomial into one coefficient dict.  An error gives the position
    in text and quotes the text, or a window around the position when the
    text is over syntax._QUOTE_LIMIT characters.  The grammar module
    loads at the first call, so the ring alone imports no re.
    """
    from .grammar import _RPOLY, _parse

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


def _sum(a: dict[int, int], b: dict[int, int], sign: int) -> dict[int, int]:
    """a + sign*b, for sign 1 or -1, in one pass over b into a copy of a,
    each coefficient that cancels deleted: no negated copy of b is built.
    The one sum of the ring layer: RPoly sums and differences, and the
    rows that klein's sums share.  a and b are only read."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        v = get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _mul_into(out: dict[int, int], a: dict[int, int], b: dict[int, int], flip: int = 1) -> dict[int, int]:
    """Add a(x^flip) * b into out and return the sum, for flip in {1, -1}.

    The one multiply kernel: RPoly products, SPoly row products by a
    several-term row (flip -1 is sigma), quotient checks and division's
    steps by a several-term s run through it.  out may be updated in place
    or replaced, so callers keep the returned dict.  a and b are only
    read, hold no zero coefficient, and are never returned.

    Invariant: a dict reachable from an RPoly is never passed as out.
    RPolys share their dicts and never copy them, so out is a dict the
    caller built, or one that this kernel returned.

    Dense operands of at least _KRONECKER_TERMS terms each take Kronecker
    substitution, any other pair the schoolbook double loop.  The
    in-place loop deletes a coefficient that cancels, so a product that
    cancels down to a few terms leaves no zeros to filter; Kronecker
    digits keep theirs, and _nonzero drops them.
    """
    if len(a) >= _KRONECKER_TERMS and len(b) >= _KRONECKER_TERMS and _dense(a) and _dense(b):
        lo, digits = _kronecker_mul(a, b, flip)
        if not out:
            return dict(enumerate(digits, lo))
        get = out.get
        for e, c in enumerate(digits, lo):
            out[e] = get(e, 0) + c
        return out
    get = out.get
    for e1, c1 in a.items():
        e1 *= flip
        for e2, c2 in b.items():
            e = e1 + e2
            v = get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _kronecker_mul(a: dict[int, int], b: dict[int, int], flip: int) -> tuple[int, list[int]]:
    """The lowest exponent and the coefficients of a(x^flip) * b."""
    # No product coefficient exceeds max|a| * max|b| * min(terms), since
    # each exponent pairs at most that many terms; so no digit carries.
    # a(x^-1) is packed by reading a from its top exponent down.
    a_lo, a_hi, b_lo = min(a), max(a), min(b)
    a_n, b_n = a_hi - a_lo + 1, max(b) - b_lo + 1
    a_start = a_lo if flip > 0 else a_hi
    width = _item_width(_width(_max_abs(a) * _max_abs(b) * min(len(a), len(b))))
    product = _pack(a, a_start, a_n, width, flip) * _pack(b, b_lo, b_n, width)
    return flip * a_start + b_lo, _unpack(product, width, a_n + b_n - 1)


def _long_quotient(num: dict[int, int], den: dict[int, int], lo: int) -> dict[int, int] | None:
    # Long division from the top, down to the quotient's lowest exponent
    # lo; every quotient coefficient must be an exact integer and the
    # remainder must vanish.  The remainder's exponents wait in a heap,
    # negated for heapq's min-heap, so each step pops the next top with
    # no scan of the remainder and costs O(terms(den) * log(terms(rem))).
    # Zero gaps are jumped over: x^100000000 - 1 over x^10000 - 1 takes
    # 10^4 steps, not 10^8.  An exponent is pushed when it enters rem, and
    # one whose coefficient cancelled is skipped when popped; a step
    # writes only below its top, so a popped exponent never comes back.
    # heapq loads at the first call, and a plain import costs less per
    # call than a from-import.
    import heapq

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


def _kronecker_quotient(num: dict[int, int], den: dict[int, int], lo: int) -> dict[int, int] | None:
    # None when den(N) does not divide num(N), which is exact (see the
    # module docstring).  Each operand is packed from its lowest exponent,
    # and the digits of the integer quotient are the candidate's
    # coefficients from lo up, returned only if den * candidate == num.
    # The width fits both operands; that it also fits the quotient is a
    # guess, and a candidate that fails the check goes to long division.
    den_lo = min(den)
    num_lo = den_lo + lo
    num_n, den_n = max(num) - num_lo + 1, max(den) - den_lo + 1
    width = _item_width(_width(max(_max_abs(num) * len(num), _max_abs(den))))
    big_q, big_rem = divmod(_pack(num, num_lo, num_n, width), _pack(den, den_lo, den_n, width))
    if big_rem:
        return None
    digits = _unpack(big_q, width, num_n - den_n + 1)
    if digits is not None:
        quot = _nonzero(dict(enumerate(digits, lo)))
        if _nonzero(_mul_into({}, den, quot)) == num:
            return quot
    return _long_quotient(num, den, lo)


def quotient(a: RPoly, b: RPoly) -> RPoly | None:
    """Exact quotient c with b = a * c, or None when a does not divide b.

    Requires a nonzero.  Units x^k are absorbed with no shifted copy: both
    paths divide the operands' own dicts, down to the quotient's lowest
    exponent min(b) - min(a).
    """
    if a.is_zero():
        raise ValueError("division by the zero polynomial")
    if b.is_zero():
        return RPoly.zero()
    num, den = b._coeffs, a._coeffs
    lo = min(num) - min(den)
    if (
        len(den) >= _KRONECKER_TERMS
        and max(num) - max(den) - lo + 1 >= _KRONECKER_TERMS
        and _dense(num)
        and _dense(den)
    ):
        q = _kronecker_quotient(num, den, lo)
    else:
        q = _long_quotient(num, den, lo)
    return None if q is None else RPoly._of_nonzero(q)


def divides(a: RPoly, b: RPoly) -> bool:
    """True iff there is c in Z[x, x^-1] with b = a * c.

    divides(0, 0) is True; divides(0, b) for nonzero b is an invalid query.
    """
    if a.is_zero():
        if b.is_zero():
            return True
        raise ValueError("invalid query: zero divides only zero")
    return quotient(a, b) is not None
