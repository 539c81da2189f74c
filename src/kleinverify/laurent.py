"""Exact arithmetic in Z[x, x^-1], integer Laurent polynomials in one variable.

Coefficients are plain Python ints (arbitrary precision).  Values are
immutable once constructed.  sigma is the ring involution x -> x^-1.

Products and quotients pick their method by operand size.  Small or sparse
operands use the schoolbook double loop and integer long division, which
finds each step's top in a heap of the remainder's exponents.  Dense
operands with at least _KRONECKER_TERMS terms use Kronecker substitution.
Neither lives here: Kronecker substitution is in the kronecker module,
which loads at the first dense product or quotient, and long division in
longdiv, which loads at the first quotient that reaches it, so a
start-up whose operands are small and whose quotients a shortcut
settles compiles neither.  A one-term factor needs neither method: its
product is one shift loop.

One kernel, _mul_into(out, a, b, flip), adds a(x^flip) * b into the
coefficient dict out, by Kronecker substitution or the schoolbook double
loop.  RPoly.__mul__ calls it with an empty out, klein.SPoly.__mul__
with flip -1 for sigma.  A one-term row, most products on the verify
path (a row of y + s, or a unit s), makes no kernel call: klein's row
walk and the steps of walks.divide multiply such a row inline, one loop
per row.  No product is built only to be added.  One pass, _sum, adds
or subtracts: RPoly sums and differences and the rows klein's sums
share, with no negated copy of the subtrahend.

The kernel writes only out, a dict its caller built: a dict reachable
from an RPoly is never passed as out, because values share their dicts
and never copy them.  klein.SPoly keeps its rows as such dicts, with no
RPoly per row, and may share them with RPolys, so the same holds for
every row: the row walks of klein and walks hand the kernel only
dicts they created.  Each value is built once from a dict the library
owns, and RPoly._of_nonzero wraps it with no copy.  Zeros are dropped
where they can arise, so no product is scanned for them afterwards: the
schoolbook loop and _sum delete a coefficient that cancels, a one-term
factor cannot make one, and only Kronecker digits can come out 0, which
_mul_into passes through _nonzero.  _nonzero filters in Python only when
a C-level scan finds a zero; parse_rpoly and the public RPoly(...) use it
too, and RPoly(...) copies its argument and rejects any exponent or
coefficient that is not an int.

Divisibility is decided exactly, with no rational arithmetic, on the
operands' own dicts: units x^k need no shifted copy, because the
quotient's lowest exponent is min(b) - min(a).  Two shortcuts come
before any division, each a proof: operands of equal span are settled
by one comparison, and a(1) != 0 not dividing b(1) refutes.  Long
division stops below the lowest exponent; the Kronecker path reads the
quotient's digits from it and accepts a candidate under the no-carry
bound that makes every Kronecker product exact, multiplying back any
other.  So verify-paper, whose one quotient has operands of equal span,
never divides, and never loads longdiv or heapq.
"""

from __future__ import annotations


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
        return RPoly._of_nonzero(_mul_into({}, self._coeffs, other._coeffs))

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


def _dense(lo: int, hi: int, terms: int) -> bool:
    """Whether an operand of terms terms, from exponent lo to hi, is dense."""
    return hi - lo < _DENSE_FILL * terms


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
    read and never returned; a, b and out hold no zero coefficient, and
    neither does the returned dict, so no caller scans it.

    Invariant: a dict reachable from an RPoly is never passed as out.
    RPolys share their dicts and never copy them, so out is a dict the
    caller built, or one that this kernel returned.

    Into an empty out, a one-term factor sends each term of the other to
    an exponent of its own, so one shift loop writes the product with no
    lookup and nothing to cancel: a plain loop, since on CPython 3.11 a
    comprehension is a function call, which costs more than it saves on
    the paper's one- to three-term operands.  Dense operands of at least
    _KRONECKER_TERMS terms each take Kronecker substitution, from the
    kronecker module, which this branch imports; the lowest and highest
    exponent of each operand, found once, serve the dense test and the
    packer.  Any other pair takes the schoolbook double loop.  The
    in-place loop deletes a coefficient that cancels, so a product that
    cancels down to a few terms leaves no zeros to filter.  Kronecker
    digits can come out 0, where the product has no term or the sum
    cancels, so that branch passes its dict, into an empty out or a
    nonempty one, through _nonzero.
    """
    if not out and (len(a) == 1 or len(b) == 1):
        if len(a) == 1:
            [(e1, c1)] = a.items()
            e1 *= flip
            for e, c in b.items():
                out[e1 + e] = c1 * c
        else:
            [(e2, c2)] = b.items()
            for e, c in a.items():
                out[flip * e + e2] = c * c2
        return out
    if len(a) >= _KRONECKER_TERMS and len(b) >= _KRONECKER_TERMS:
        a_lo, a_hi, b_lo, b_hi = min(a), max(a), min(b), max(b)
        if _dense(a_lo, a_hi, len(a)) and _dense(b_lo, b_hi, len(b)):
            from .kronecker import _kronecker_mul

            lo, digits = _kronecker_mul(a, a_lo, a_hi, b, b_lo, b_hi, flip)
            if not out:
                out = dict(enumerate(digits, lo))
            else:
                get = out.get
                for e, c in enumerate(digits, lo):
                    out[e] = get(e, 0) + c
            return _nonzero(out)
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


def quotient(a: RPoly, b: RPoly) -> RPoly | None:
    """Exact quotient c with b = a * c, or None when a does not divide b.

    Requires a nonzero.  Units x^k are absorbed with no shifted copy:
    every path reads the operands' own dicts, and the quotient's lowest
    exponent is lo = min(b) - min(a).  Before any division, two exact
    shortcuts:

    - The spans.  A quotient spans span(b) - span(a), because the top and
      bottom terms of a product never cancel.  So b is no multiple of a
      when its span is smaller, and when the spans are equal the
      quotient can only be c*x^lo, c = lead(b)/lead(a): one dict
      comparison with c*x^lo * a settles it.  Condition (ii) with a unit
      s is such a case.
    - Evaluation at 1.  b = a*c gives b(1) = a(1)*c(1) in Z, so when
      a(1) is nonzero and does not divide b(1), there is no quotient.

    Then dense operands take the Kronecker quotient, whose candidate q
    is exact as it is when max|a| * max|q| * min(terms) is under the
    digit's half-range, so that no digit of a * q carries, and is
    multiplied back otherwise (see the kronecker module).  The others
    take integer long division, from longdiv, imported here.
    """
    if a.is_zero():
        raise ValueError("division by the zero polynomial")
    if b.is_zero():
        return RPoly.zero()
    num, den = b._coeffs, a._coeffs
    num_lo, num_hi, den_lo, den_hi = min(num), max(num), min(den), max(den)
    lo = num_lo - den_lo
    span = num_hi - num_lo - den_hi + den_lo
    if span <= 0:
        c, leftover = divmod(num[num_hi], den[den_hi])
        if span or leftover or num != {e + lo: c * v for e, v in den.items()}:
            return None
        return RPoly._of_nonzero({lo: c})
    den_at_1 = sum(den.values())
    if den_at_1 and sum(num.values()) % den_at_1:
        return None
    if (
        len(den) >= _KRONECKER_TERMS
        and span >= _KRONECKER_TERMS - 1
        and _dense(num_lo, num_hi, len(num))
        and _dense(den_lo, den_hi, len(den))
    ):
        from .kronecker import _kronecker_quotient

        q = _kronecker_quotient(num, num_lo, num_hi, den, den_lo, den_hi)
    else:
        from .longdiv import _long_quotient

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
