"""Exact arithmetic in Z[x, x^-1], integer Laurent polynomials in one variable.

Coefficients are plain Python ints (arbitrary precision).  Values are
immutable once constructed.  sigma is the ring involution x -> x^-1.

Products and quotients pick their method by operand size.  Small or sparse
operands use the schoolbook double loop and integer long division.  Dense
operands with at least _KRONECKER_TERMS terms use Kronecker substitution:
each polynomial is read as one integer p(N), N = 2^(8*width), with balanced
digits wide enough that no digit carries, and Python's exact big-int
product or division does the work.

Every product runs through one kernel, _mul_into(out, a, b, flip, sign),
which adds sign * a(x^flip) * b into the coefficient dict out with either
method.  RPoly.__mul__ calls it with an empty out, klein.SPoly.__mul__
with flip -1 for sigma, and division.divide with sign -1 for each row
update, so no product, negation or sum is built only to be added.  The
kernel keeps zero coefficients; the RPoly and SPoly constructors drop them.

Divisibility is decided exactly, with no rational arithmetic: units x^k are
divided out first.  On the Kronecker path a None is sound, because a | b in
Z[x] implies a(N) | b(N), and a(N) != 0 since its top digit outweighs the
rest.  A quotient is returned only after a * q == b has been checked;
when that check fails (a digit width too narrow for q, or a(N) | b(N) by
coincidence), long division decides.
"""

from __future__ import annotations

import re


class PolySyntaxError(ValueError):
    """Raised when a polynomial string cannot be parsed."""


class RPoly:
    """Sparse Laurent polynomial: map from exponent to nonzero int coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self._coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls) -> "RPoly":
        return cls()

    @classmethod
    def one(cls) -> "RPoly":
        return cls({0: 1})

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
        return RPoly({-e: c for e, c in self._coeffs.items()})

    def shift(self, k: int) -> "RPoly":
        """Multiply by the unit x^k."""
        return RPoly({e + k: c for e, c in self._coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RPoly) and self._coeffs == other._coeffs

    def __add__(self, other: "RPoly") -> "RPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return RPoly(out)

    def __neg__(self) -> "RPoly":
        return RPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "RPoly") -> "RPoly":
        return self + (-other)

    def __mul__(self, other: "RPoly") -> "RPoly":
        return RPoly(_mul_into({}, self._coeffs, other._coeffs))

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


_MONO = re.compile(r"(?:(?P<coeff>\d+)\*?)?(?P<var>x(?:\^(?P<exp>-?\d+))?)?")
# Blanks are dropped before the scan, which would join "x^1 0" into x^10.
_SPLIT_DIGITS = re.compile(r"\d[ \t]+\d")


def parse_rpoly(text: str) -> RPoly:
    """Parse text such as "x^3 - x - 1", "-x^-1", "2*x^2 + 5"."""
    s = text.replace("−", "-")
    split = _SPLIT_DIGITS.search(s)
    if split:
        raise PolySyntaxError(f"digits split by whitespace at position {split.start()} in {text!r}")
    s = s.replace(" ", "").replace("\t", "")
    if not s:
        raise PolySyntaxError("empty polynomial string")
    coeffs: dict[int, int] = {}
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        if i >= n:
            raise PolySyntaxError(f"dangling sign at position {i - 1} in {text!r}")
        m = _MONO.match(s, i)
        if m is None or m.end() == i:
            raise PolySyntaxError(f"unexpected character {s[i]!r} at position {i} in {text!r}")
        if m.group("coeff") is None and m.group("var") is None:
            raise PolySyntaxError(f"expected a monomial at position {i} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        i = m.end()
        if i < n and s[i] not in "+-":
            raise PolySyntaxError(f"unexpected character {s[i]!r} at position {i} in {text!r}")
    return RPoly(coeffs)


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


def _bias(width: int, n: int) -> int:
    """2^(8*width - 1) in each of n digits: the offset that makes balanced digits nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(coeffs: dict[int, int], start: int, n: int, width: int, step: int = 1) -> int:
    """sum coeffs[start + step*i] * 2^(8*width*i) over 0 <= i < n, in linear time."""
    half = 1 << (8 * width - 1)
    get = coeffs.get
    exps = range(start, start + step * n, step)
    raw = b"".join((get(e, 0) + half).to_bytes(width, "little") for e in exps)
    return int.from_bytes(raw, "little") - _bias(width, n)


def _unpack(value: int, width: int, n: int) -> list[int] | None:
    """The n balanced digits of value, lowest first, or None when it has none."""
    half = 1 << (8 * width - 1)
    value += _bias(width, n)
    if value < 0 or value.bit_length() > 8 * width * n:
        return None
    raw = value.to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * n, width)]


def _mul_into(
    out: dict[int, int], a: dict[int, int], b: dict[int, int], flip: int = 1, sign: int = 1
) -> dict[int, int]:
    """Add sign * a(x^flip) * b into out and return the sum, for flip and
    sign in {1, -1}.

    The one multiply kernel: RPoly products, SPoly row products (flip -1
    is sigma) and division's row updates all run through it.  out may be
    updated in place or replaced, so callers keep the returned dict.
    Zeros are kept; the RPoly constructor drops them.
    """
    if len(a) >= _KRONECKER_TERMS and len(b) >= _KRONECKER_TERMS and _dense(a) and _dense(b):
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
            out[e] = get(e, 0) + c1 * c2
    return out


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
    width = _width(_max_abs(a) * _max_abs(b) * min(len(a), len(b)))
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
    width = _width(max(_max_abs(num) * len(num), _max_abs(den)))
    big_q, big_rem = divmod(_pack(num, 0, num_n, width), _pack(den, 0, den_n, width))
    if big_rem:
        return None
    digits = _unpack(big_q, width, num_n - den_n + 1)
    if digits is not None:
        quot = RPoly(dict(enumerate(digits)))
        if (RPoly(den) * quot)._coeffs == num:
            return quot._coeffs
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
    return RPoly(q).shift(b_shift - a_shift)


def divides(a: RPoly, b: RPoly) -> bool:
    """True iff there is c in Z[x, x^-1] with b = a * c.

    divides(0, 0) is True; divides(0, b) for nonzero b is an invalid query.
    """
    if a.is_zero():
        if b.is_zero():
            return True
        raise ValueError("invalid query: zero divides only zero")
    return quotient(a, b) is not None
