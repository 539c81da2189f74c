"""The Klein bottle group and its integral group ring.

Group elements have the unique normal form y^m x^n, stored as the integer
pair (m, n).  The group ring is the twisted Laurent ring S: finite sums
sum_m y^m * a_m(x) with a_m in Z[x, x^-1], coefficients kept on the right,
and multiplication twisted by  a * y^p = y^p * sigma^p(a)  where sigma
flips the sign of every x-exponent.  Moving y^-1 ... y around a
coefficient therefore applies sigma, which is exactly the group relation
y^-1 x y = x^-1.

The verification path gets its boundary data from boundary_data, which
evaluates Fox derivatives straight into S in one pass per relator.
eval_combo evaluates a FreeCombo term by term into one dict per y-degree;
with presentations.boundary_matrices it is the slower reference the tests
hold boundary_data to.  eval_word returns the normal form as the pair
(m, n), applying the group law letter by letter.  SPoly products sum every
row pair into one coefficient dict per y-degree, through laurent._scaled
for a one-term row and laurent._mul_into for any other, and wrap each row
once, with no copy.
"""

from __future__ import annotations

from .laurent import _SPOLY, RPoly, _mul_into, _nonzero, _parse, _scaled

# FreeCombo and Presentation appear only in annotations, which are never
# evaluated, and boundary_data imports Word itself, so the ring alone loads
# no word or presentation code.


def eval_word(w: Word) -> tuple[int, int]:
    """Image of a free word on x, y in the Klein bottle group, as the pair
    (m, n) of its normal form y^m x^n.

    The group law (m, n) * (p, q) = (m + p, (-1)^p n + q), letter by
    letter: x^k adds k to n, and y^k adds k to m and negates n when k is
    odd.
    """
    m = n = 0
    for name, exp in w.letters:
        if name == "x":
            n += exp
        elif name == "y":
            m += exp
            if exp % 2:
                n = -n
        else:
            raise ValueError(f"foreign generator {name!r}; only x and y are defined")
    return m, n


class SPoly:
    """Element of the twisted Laurent ring in normal form sum_m y^m * a_m(x)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[int, RPoly] | None = None):
        rows = rows or {}
        for m in rows:
            if not isinstance(m, int):
                raise ValueError(f"y-degree {m!r} is not an int")
        self._rows = {m: a for m, a in rows.items() if a._coeffs}

    @classmethod
    def _of_rows(cls, rows: dict[int, RPoly]) -> "SPoly":
        """Wrap rows, nonzero RPolys in a dict that the library built and
        that nothing writes again, without filtering or copying it."""
        f = object.__new__(cls)
        f._rows = rows
        return f

    @classmethod
    def zero(cls) -> "SPoly":
        return cls._of_rows({})

    @classmethod
    def one(cls) -> "SPoly":
        return cls._of_rows({0: RPoly.one()})

    @classmethod
    def from_rpoly(cls, a: RPoly, degree: int = 0) -> "SPoly":
        return cls({degree: a})

    @classmethod
    def from_group(cls, e: tuple[int, int], coeff: int = 1) -> "SPoly":
        """coeff * y^m x^n for the normal-form pair e = (m, n)."""
        return cls({e[0]: RPoly.monomial(e[1], coeff)})

    def rows(self) -> list[tuple[int, RPoly]]:
        """(y-degree, coefficient) pairs in descending degree order."""
        return sorted(self._rows.items(), reverse=True)

    def row(self, m: int) -> RPoly:
        return self._rows.get(m, RPoly.zero())

    def is_zero(self) -> bool:
        return not self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def min_degree(self) -> int:
        if not self._rows:
            raise ValueError("the zero element has no y-degree")
        return min(self._rows)

    @property
    def max_degree(self) -> int:
        if not self._rows:
            raise ValueError("the zero element has no y-degree")
        return max(self._rows)

    def span(self) -> int:
        return self.max_degree - self.min_degree

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SPoly) and self._rows == other._rows

    def __add__(self, other: "SPoly") -> "SPoly":
        out = dict(self._rows)
        for m, b in other._rows.items():
            if m not in out:
                out[m] = b
            elif total := out[m] + b:
                out[m] = total
            else:
                del out[m]
        return SPoly._of_rows(out)

    def __neg__(self) -> "SPoly":
        return SPoly._of_rows({m: -a for m, a in self._rows.items()})

    def __sub__(self, other: "SPoly") -> "SPoly":
        return self + (-other)

    def __mul__(self, other: "SPoly") -> "SPoly":
        """(y^m a)(y^p b) = y^(m+p) sigma^p(a) b, summed in one coefficient
        dict per y-degree; sigma is the flip x -> x^-1.  A one-term a (a
        row of y + s, say) scales b by laurent._scaled, with no kernel
        call, where the y-degree has no row yet; every other pair goes
        through laurent._mul_into."""
        out: dict[int, dict[int, int]] = {}
        for m, a in self._rows.items():
            a = a._coeffs
            one_term = len(a) == 1
            if one_term:
                [(e, c)] = a.items()
            for p, b in other._rows.items():
                key = m + p
                row = out.get(key)
                if row is None and one_term:
                    out[key] = _scaled(b._coeffs, -e if p % 2 else e, c)
                else:
                    out[key] = _mul_into(row or {}, a, b._coeffs, -1 if p % 2 else 1)
        return _spoly(out)

    def __str__(self) -> str:
        if not self._rows:
            return "0"
        parts = []
        for m, a in self.rows():
            if m == 0:
                parts.append(f"({a})")
            else:
                ym = "y" if m == 1 else f"y^{m}"
                parts.append(f"{ym}*({a})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SPoly({str(self)!r})"


def _spoly(rows: dict[int, dict[int, int]]) -> SPoly:
    """The element with these coefficient dicts, one per y-degree, which
    the caller built and hands over: each row's zeros are dropped by
    laurent's C-level scan, empty rows are dropped, and no row is copied."""
    out = {}
    for m, row in rows.items():
        row = _nonzero(row)
        if row:
            out[m] = RPoly._of_nonzero(row)
    return SPoly._of_rows(out)


def eval_combo(c: FreeCombo) -> SPoly:
    """Linear extension of eval_word followed by the group-to-ring embedding."""
    rows: dict[int, dict[int, int]] = {}
    for w, coeff in c._terms.items():
        m, n = eval_word(w)
        row = rows.setdefault(m, {})
        row[n] = row.get(n, 0) + coeff
    return _spoly(rows)


def boundary_data(p: Presentation) -> tuple[list[list[SPoly]], list[SPoly]]:
    """boundary_matrices(p, eval_combo), computed in one pass per relator.

    Same (d2, d1) shape and right-module convention, and the same
    ValueError for a generator other than x and y.  No FreeCombo is built:
    each relator is read left to right with its prefix kept as the normal
    form y^m x^n, and the letter g^k adds to the row of g the evaluated,
    anti-involuted Fox terms  +(prefix g^i)^-1 for 0 <= i < k, or
    -(prefix g^i)^-1 for k <= i < 0  (R. H. Fox, Free differential
    calculus I, Ann. of Math. 57, 1953).  Coefficients collect in one dict
    per row, keyed by y-degree and then x-exponent.
    """
    from .words import Word

    gens = p.generators
    one = SPoly.one()
    # eval_word raises the foreign-generator error, so d2 only meets x and y.
    d1 = [SPoly.from_group(eval_word(Word._of_reduced(((g, -1),)))) - one for g in gens]
    d2 = []
    for rel in p.relators:
        rows: dict[str, dict[int, dict[int, int]]] = {g: {} for g in gens}
        m = n = 0
        for name, k in rel.letters:
            acc = rows[name]
            c, steps = (1, range(k)) if k > 0 else (-1, range(k, 0))
            if name == "x":
                # (y^m x^(n+i))^-1 = y^-m x^-(n+i) for even m, y^-m x^(n+i) for odd m
                row = acc.setdefault(-m, {})
                sign = -1 if m % 2 == 0 else 1
                for i in steps:
                    e = sign * (n + i)
                    row[e] = row.get(e, 0) + c
                n += k
            else:
                # prefix y^i = y^(m+i) x^((-1)^i n); invert that normal form
                for i in steps:
                    d = m + i
                    e = n if i % 2 == 0 else -n
                    if d % 2 == 0:
                        e = -e
                    row = acc.setdefault(-d, {})
                    row[e] = row.get(e, 0) + c
                m += k
                if k % 2:
                    n = -n
        d2.append([
            _spoly(rows[g]) for g in gens
        ])
    return d2, d1


def parse_spoly(text: str) -> SPoly:
    """Parse the printed form, e.g. "y^2*(1) + (-1)" or "y - x^-1".

    Terms are y^m*(coefficient), a bare y^m (coefficient 1), a
    coefficient in parentheses or one monomial in x, the last two in the
    y-degree-0 row; they may come in any order and share a y-degree.
    Signs and blanks follow parse_rpoly, and laurent holds the grammar.
    Each row is wrapped once, without a copy.
    """
    return _spoly(_parse(text, _SPOLY))
