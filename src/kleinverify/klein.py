"""The Klein bottle group and its integral group ring.

Group elements have the unique normal form y^m x^n, stored as the integer
pair (m, n).  The group ring is the twisted Laurent ring S: finite sums
sum_m y^m * a_m(x) with a_m in Z[x, x^-1], coefficients kept on the right,
and multiplication twisted by  a * y^p = y^p * sigma^p(a)  where sigma
flips the sign of every x-exponent.  Moving y^-1 ... y around a
coefficient therefore applies sigma, which is exactly the group relation
y^-1 x y = x^-1.

The verification path gets its boundary data from boundary_data, which
evaluates Fox derivatives straight into S in one pass per relator, one
coefficient update per letter x^+-1 or y^+-1.  eval_combo evaluates a
FreeCombo term by term into one dict per y-degree; with
presentations.boundary_matrices it is the slower reference the tests
hold boundary_data to.  eval_word returns the normal form as the pair
(m, n), applying the group law letter by letter.

An SPoly keeps each row a_m as a plain zero-free coefficient dict,
exponent to int, the dict an RPoly holds, with no RPoly around it.  An
RPoly appears only at the public edges: SPoly(...) and SPoly.from_rpoly
check each y-degree and row and keep the RPoly's dict, row() and rows()
wrap a row on read, and division.StaffordInstance.from_factors wraps r
and s.  The library's own rows are taken by SPoly._of_rows with no check.

Rows are shared with RPolys and between SPolys, not copied, so the
invariant is: a row dict reachable from an RPoly or an SPoly is
never written; a walk writes only dicts it created.  SPoly products sum
every row pair into one coefficient dict per y-degree and keep each row
as it is, with no copy and no wrap; _mul_rows_into, their kernel, also
sums several products into one set of rows.  It multiplies a one-term
row (of y + s, say) inline, one loop over the other row and no call per
row, and hands every other pair to laurent._mul_into.  A product's rows
are zero-free and nonempty where they are made: the kernel returns no
zero, the inline loop deletes a coefficient that cancels, and
_mul_rows_into deletes a row the moment it cancels to empty, so
SPoly.__mul__ wraps its rows with no rescan.  Only the accumulators that
add terms one at a time (eval_combo, boundary_data, the certificate
shadows and parse_spoly) pass their rows through _spoly.  A sum or a
difference is built in one pass into fresh dicts, with no negated copy of
the subtrahend: a row both operands have goes through laurent._sum, as
RPoly sums do.  Equality is one C-level comparison of the dicts.
"""

from __future__ import annotations

from .laurent import RPoly, _mul_into, _sum

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
    for name, exp in w._letters:
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
    """Element of the twisted Laurent ring in normal form sum_m y^m * a_m(x).

    _rows maps each y-degree m to a_m as its zero-free coefficient dict,
    exponent to int, with no RPoly around it and no empty row.  A row dict
    may be shared with an RPoly or another SPoly, so it is never written
    once it is reachable from either (see the module docstring).
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[int, RPoly] | None = None):
        rows = rows or {}
        for m, a in rows.items():
            _check_row(m, a)
        self._rows = {m: a._coeffs for m, a in rows.items() if a._coeffs}

    @classmethod
    def _of_rows(cls, rows: dict[int, dict[int, int]]) -> "SPoly":
        """Wrap rows, zero-free nonempty coefficient dicts in a dict that
        the library built and that nothing writes again, without filtering
        or copying it."""
        f = object.__new__(cls)
        f._rows = rows
        return f

    @classmethod
    def zero(cls) -> "SPoly":
        return cls._of_rows({})

    @classmethod
    def one(cls) -> "SPoly":
        return cls._of_rows({0: {0: 1}})

    @classmethod
    def from_rpoly(cls, a: RPoly, degree: int = 0) -> "SPoly":
        """y^degree * a, checked as SPoly(...) checks a row, a zero a dropped."""
        _check_row(degree, a)
        return cls._of_rows({degree: a._coeffs} if a._coeffs else {})

    def rows(self) -> list[tuple[int, RPoly]]:
        """(y-degree, coefficient) pairs in descending degree order."""
        return [(m, RPoly._of_nonzero(a)) for m, a in sorted(self._rows.items(), reverse=True)]

    def row(self, m: int) -> RPoly:
        return RPoly._of_nonzero(self._rows.get(m) or {})

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
        return SPoly._of_rows(_sum_rows(self._rows, other._rows, 1))

    def __neg__(self) -> "SPoly":
        return SPoly._of_rows({m: {e: -c for e, c in a.items()} for m, a in self._rows.items()})

    def __sub__(self, other: "SPoly") -> "SPoly":
        """self - other in one pass over other's rows, as __add__ sums:
        only a row that self lacks is negated, and no negated copy of
        other is built."""
        return SPoly._of_rows(_sum_rows(self._rows, other._rows, -1))

    def __mul__(self, other: "SPoly") -> "SPoly":
        """(y^m a)(y^p b) = y^(m+p) sigma^p(a) b; see _mul_rows_into."""
        return SPoly._of_rows(_mul_rows_into({}, self._rows, other._rows))

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


def _sum_rows(
    f: dict[int, dict[int, int]], g: dict[int, dict[int, int]], sign: int
) -> dict[int, dict[int, int]]:
    """The rows of f + sign*g, for sign 1 or -1, in a copy of f's dict of
    rows.  A row only f has is kept as it is, and a row only g has is
    kept (sign 1) or negated into a fresh dict.  A row both have is summed
    by laurent._sum into a fresh dict, and dropped when it cancels whole.
    No row of f or g is written."""
    out = dict(f)
    for m, b in g.items():
        a = out.get(m)
        if a is None:
            out[m] = b if sign == 1 else {e: -c for e, c in b.items()}
            continue
        row = _sum(a, b, sign)
        if row:
            out[m] = row
        else:
            del out[m]
    return out


def _mul_rows_into(
    out: dict[int, dict[int, int]], f: dict[int, dict[int, int]], g: dict[int, dict[int, int]]
) -> dict[int, dict[int, int]]:
    """Add the product of the rows f and g into out, one coefficient dict
    per y-degree, and return out: (y^m a)(y^p b) = y^(m+p) sigma^p(a) b,
    where sigma is the flip x -> x^-1.

    The kernel of SPoly products, and of a sum of products built with no
    SPoly per term.  f and g are SPoly rows, read and never written; out
    holds only dicts this kernel wrote, never a row of an SPoly or an
    RPoly's dict.  A one-term a = c*x^e (a row of y + s, say) is
    multiplied here, with no call per row: where the y-degree has no row
    yet, c*x^(+-e)*b is written into a fresh dict (for the constant 1,
    one C-level dict(b)); otherwise it is added into the row in place,
    and a coefficient that cancels is deleted.  Every other pair goes
    through laurent._mul_into, which returns no zero.  A row that
    cancels to empty is deleted at once, so out comes back with no zero
    and no empty row when it had none.  Plain loops, not comprehensions: on
    CPython 3.11 a comprehension is a function call, which costs more
    than it saves on the one- to three-term rows of the paper's instance.
    """
    for m, a in f.items():
        if len(a) != 1:
            for p, b in g.items():
                key = m + p
                row = _mul_into(out.get(key) or {}, a, b, -1 if p % 2 else 1)
                if row:
                    out[key] = row
                else:
                    out.pop(key, None)
            continue
        [(e, c)] = a.items()
        for p, b in g.items():
            key = m + p
            row = out.get(key)
            x = -e if p % 2 else e
            if row is None:
                if x or c != 1:
                    out[key] = row = {}
                    for e2, c2 in b.items():
                        row[x + e2] = c * c2
                else:
                    out[key] = dict(b)
            else:
                get = row.get
                for e2, c2 in b.items():
                    e2 += x
                    v = get(e2, 0) + c * c2
                    if v:
                        row[e2] = v
                    else:
                        del row[e2]
                if not row:
                    del out[key]
    return out


def _check_row(m: object, a: object) -> None:
    """The checks of the public constructors: an int y-degree, an RPoly row."""
    if not isinstance(m, int):
        raise ValueError(f"y-degree {m!r} is not an int")
    if not isinstance(a, RPoly):
        raise ValueError(f"row {a!r} at y-degree {m} is not an RPoly")


def _spoly(rows: dict[int, dict[int, int]]) -> SPoly:
    """The element with these coefficient dicts, one per y-degree, which
    the caller built and hands over: rows becomes the element's own dict
    of rows.  In place, a row holding a zero (one C-level scan of its
    values) is replaced by a filtered copy and an empty row is dropped; a
    row is otherwise neither copied nor wrapped.  For the accumulators
    that add terms one at a time, whose rows may hold zeros; a product's
    rows need no scan (see _mul_rows_into)."""
    empty = []
    for m, row in rows.items():
        if 0 in row.values():
            row = rows[m] = {e: c for e, c in row.items() if c}
        if not row:
            empty.append(m)
    for m in empty:
        del rows[m]
    return SPoly._of_rows(rows)


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
    calculus I, Ann. of Math. 57, 1953).  With t = -(-1)^m and u = t*n,
    term i is y^-m x^(u + t*i) for g = x and y^-(m+i) x^u for g = y.
    Coefficients collect in one dict per row, keyed by y-degree and then
    x-exponent.  A letter g^+-1, most of a relator's letters, has the one
    term i = k >> 1 (0 or -1) and is one dict update; only a run g^k with
    |k| > 1 loops over its terms.
    """
    from .words import Word

    gens = p.generators
    d1 = []
    for g in gens:
        # eval_word raises the foreign-generator error, so d2 only meets x
        # and y.  The edge column g^-1 - 1 is written as coefficient dicts:
        # x^-1 - 1 in one row, y^-1 - 1 in two.
        m, n = eval_word(Word._of_reduced(((g, -1),)))
        edge = {m: {n: 1}}
        row = edge.setdefault(0, {})
        row[0] = row.get(0, 0) - 1
        d1.append(_spoly(edge))
    d2 = []
    for rel in p.relators:
        rows: dict[str, dict[int, dict[int, int]]] = {g: {} for g in gens}
        # The prefix y^m x^n is kept as m, t and u.  x^k adds t*k to u;
        # y^k adds k to m and, for odd k, negates t and n, so u stays.
        m, t, u = 0, -1, 0
        for name, k in rel._letters:
            acc = rows[name]
            if k == 1 or k == -1:
                i = k >> 1
                if name == "x":
                    d, e = m, u + t * i
                    u += t * k
                else:
                    d, e = m + i, u
                    m += k
                    t = -t
                row = acc.get(-d)
                if row is None:
                    acc[-d] = {e: k}
                else:
                    row[e] = row.get(e, 0) + k
                continue
            c, steps = (1, range(k)) if k > 0 else (-1, range(k, 0))
            if name == "x":
                row = acc.setdefault(-m, {})
                for i in steps:
                    e = u + t * i
                    row[e] = row.get(e, 0) + c
                u += t * k
            else:
                for i in steps:
                    row = acc.setdefault(-m - i, {})
                    row[u] = row.get(u, 0) + c
                m += k
                if k % 2:
                    t = -t
        d2.append([
            _spoly(rows[g]) for g in gens
        ])
    return d2, d1


def parse_spoly(text: str) -> SPoly:
    """Parse the printed form, e.g. "y^2*(1) + (-1)" or "y - x^-1".

    Terms are y^m*(coefficient), a bare y^m (coefficient 1), a
    coefficient in parentheses or one monomial in x, the last two in the
    y-degree-0 row; they may come in any order and share a y-degree.
    Signs and blanks follow parse_rpoly, and grammar holds both grammars;
    it loads at the first call.  Each row is wrapped once, without a copy.
    """
    from .grammar import _SPOLY, _parse

    return _spoly(_parse(text, _SPOLY))
