"""Kronecker substitution for dense products and quotients in Z[x, x^-1].

laurent loads this module only when both operands of a product or
quotient are dense with at least _KRONECKER_TERMS terms, so a start-up
that multiplies only small or sparse polynomials, as verify-paper does,
never compiles it.

Each polynomial is read as one integer p(N), N = 2^(8*width), with
balanced digits wide enough that no digit carries, and Python's exact
big-int product or division does the work.  Widths round up to 1, 2, 4
or 8 bytes, so the digits pass through one struct format of signed
little-endian items, the same bytes on every host; wider digits take one
int.to_bytes or int.from_bytes call each.

A quotient packs each operand from its lowest exponent and reads the
candidate's digits from the quotient's lowest exponent.  A None is
sound, because a | b in Z[x] implies a(N) | b(N), and a(N) != 0 since
its top digit outweighs the rest.  A candidate q is exact with no
product when max|a| * max|q| * min(terms) is under the digit's
half-range: then no digit of a(N) * q(N) = b(N) carries, so its digits
are the coefficients of a * q, and balanced digits are unique, so they
are b's.  That is the bound every product here meets.  Any other
candidate is returned only after a * q == b has been checked; when that
check fails (a digit width too narrow for q, or a(N) | b(N) by
coincidence), long division decides: the longdiv module, which this
fallback imports, so a dense product compiles no long division.

The lowest and highest exponent of each operand come from laurent's
dense test, found once.
"""

from __future__ import annotations

from struct import pack, unpack

from .laurent import _mul_into, _nonzero


def _max_abs(coeffs: dict[int, int]) -> int:
    return max(map(abs, coeffs.values()))


def _width(bound: int) -> int:
    """Bytes per balanced digit holding every integer of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


# Signed struct item codes by size in bytes, the standard sizes of a
# format that starts with "<".
_ITEM_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _item_width(width: int) -> int:
    """width rounded up to the next struct item size: 1, 2, 4 or 8 bytes;
    a width over 8 bytes stays as it is."""
    return next((size for size in _ITEM_CODES if width <= size), width)


def _bias(width: int, n: int) -> int:
    """2^(8*width - 1) in each of n digits: the offset that makes balanced digits nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(coeffs: dict[int, int], start: int, n: int, width: int, step: int = 1) -> int:
    """sum coeffs[start + step*i] * 2^(8*width*i) over 0 <= i < n, in linear time.

    Each coefficient must fit a balanced digit of width bytes.  The digits
    are written in two's complement, by one struct format of signed
    little-endian items at an item width, else one int.to_bytes call
    each.  XOR with the bias flips each digit's top bit, adding
    2^(8*width - 1) to it with no carry.
    """
    get = coeffs.get
    exps = range(start, start + step * n, step)
    code = _ITEM_CODES.get(width)
    if code is None:
        raw = b"".join(get(e, 0).to_bytes(width, "little", signed=True) for e in exps)
    else:
        raw = pack(f"<{n}{code}", *[get(e, 0) for e in exps])
    bias = _bias(width, n)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(value: int, width: int, n: int) -> list[int] | None:
    """The n balanced digits of value, lowest first, or None when it has none.

    The inverse of _pack: XOR with the bias gives two's complement digits,
    read by one struct format of signed little-endian items at an item width.
    """
    bias = _bias(width, n)
    value += bias
    if value < 0 or value.bit_length() > 8 * width * n:
        return None
    raw = (value ^ bias).to_bytes(width * n, "little")
    code = _ITEM_CODES.get(width)
    if code is None:
        return [int.from_bytes(raw[i:i + width], "little", signed=True) for i in range(0, width * n, width)]
    return list(unpack(f"<{n}{code}", raw))


def _kronecker_mul(
    a: dict[int, int], a_lo: int, a_hi: int, b: dict[int, int], b_lo: int, b_hi: int, flip: int
) -> tuple[int, list[int]]:
    """The lowest exponent and the coefficients of a(x^flip) * b, given
    the lowest and highest exponent of a and of b."""
    # No product coefficient exceeds max|a| * max|b| * min(terms), since
    # each exponent pairs at most that many terms; so no digit carries.
    # a(x^-1) is packed by reading a from its top exponent down.
    a_n, b_n = a_hi - a_lo + 1, b_hi - b_lo + 1
    a_start = a_lo if flip > 0 else a_hi
    width = _item_width(_width(_max_abs(a) * _max_abs(b) * min(len(a), len(b))))
    product = _pack(a, a_start, a_n, width, flip) * _pack(b, b_lo, b_n, width)
    return flip * a_start + b_lo, _unpack(product, width, a_n + b_n - 1)


def _kronecker_quotient(
    num: dict[int, int], num_lo: int, num_hi: int, den: dict[int, int], den_lo: int, den_hi: int
) -> dict[int, int] | None:
    # None when den(N) does not divide num(N), which is exact (see the
    # module docstring).  Each operand is packed from its lowest exponent,
    # and the digits of the integer quotient are the candidate's
    # coefficients from num_lo - den_lo up.  The width fits both operands;
    # that it also fits the quotient is a guess.  A candidate under the
    # no-carry bound is exact as it is; any other is multiplied back, and
    # one that fails goes to long division.
    lo = num_lo - den_lo
    num_n, den_n = num_hi - num_lo + 1, den_hi - den_lo + 1
    den_max = _max_abs(den)
    width = _item_width(_width(max(_max_abs(num) * len(num), den_max)))
    big_q, big_rem = divmod(_pack(num, num_lo, num_n, width), _pack(den, den_lo, den_n, width))
    if big_rem:
        return None
    digits = _unpack(big_q, width, num_n - den_n + 1)
    if digits is not None:
        quot = _nonzero(dict(enumerate(digits, lo)))
        if (
            den_max * _max_abs(quot) * min(len(den), len(quot)) < 1 << (8 * width - 1)
            or _mul_into({}, den, quot) == num
        ):
            return quot
    from .longdiv import _long_quotient

    return _long_quotient(num, den, lo)
