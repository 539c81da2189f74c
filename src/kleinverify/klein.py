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
eval_combo evaluates a FreeCombo; with presentations.boundary_matrices it
is the reference the tests hold boundary_data to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .laurent import PolySyntaxError, RPoly, parse_rpoly
from .presentations import FreeCombo, Presentation
from .words import Word


@dataclass(frozen=True)
class GroupElem:
    """Normal form y^m x^n of a Klein bottle group element."""

    m: int
    n: int

    def is_identity(self) -> bool:
        return self.m == 0 and self.n == 0

    def inverse(self) -> "GroupElem":
        return GroupElem(-self.m, -self.n if self.m % 2 == 0 else self.n)

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        """(m, n) * (p, q) = (m + p, (-1)^p n + q)."""
        n = self.n if other.m % 2 == 0 else -self.n
        return GroupElem(self.m + other.m, n + other.n)

    def to_word(self) -> Word:
        return Word((("y", self.m), ("x", self.n)))

    def __str__(self) -> str:
        return str(self.to_word())


def eval_word(w: Word) -> GroupElem:
    """Image of a free word on x, y in the Klein bottle group."""
    acc = GroupElem(0, 0)
    for name, exp in w.letters:
        if name == "x":
            step = GroupElem(0, exp)
        elif name == "y":
            step = GroupElem(exp, 0)
        else:
            raise ValueError(f"foreign generator {name!r}; only x and y are defined")
        acc = acc * step
    return acc


def _sigma_pow(a: RPoly, k: int) -> RPoly:
    return a if k % 2 == 0 else a.sigma()


class SPoly:
    """Element of the twisted Laurent ring in normal form sum_m y^m * a_m(x)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[int, RPoly] | None = None):
        self._rows = {m: a for m, a in (rows or {}).items() if not a.is_zero()}

    @classmethod
    def zero(cls) -> "SPoly":
        return cls()

    @classmethod
    def one(cls) -> "SPoly":
        return cls({0: RPoly.one()})

    @classmethod
    def y(cls, m: int = 1) -> "SPoly":
        return cls({m: RPoly.one()})

    @classmethod
    def from_rpoly(cls, a: RPoly, degree: int = 0) -> "SPoly":
        return cls({degree: a})

    @classmethod
    def from_group(cls, e: GroupElem, coeff: int = 1) -> "SPoly":
        return cls({e.m: RPoly.monomial(e.n, coeff)})

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
        for m, a in other._rows.items():
            out[m] = out[m] + a if m in out else a
        return SPoly(out)

    def __neg__(self) -> "SPoly":
        return SPoly({m: -a for m, a in self._rows.items()})

    def __sub__(self, other: "SPoly") -> "SPoly":
        return self + (-other)

    def __mul__(self, other: "SPoly") -> "SPoly":
        # (y^m a)(y^p b) = y^(m+p) sigma^p(a) b
        out: dict[int, RPoly] = {}
        for m, a in self._rows.items():
            for p, b in other._rows.items():
                piece = _sigma_pow(a, p) * b
                key = m + p
                out[key] = out[key] + piece if key in out else piece
        return SPoly(out)

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


def eval_combo(c: FreeCombo) -> SPoly:
    """Linear extension of eval_word followed by the group-to-ring embedding."""
    acc = SPoly.zero()
    for w, coeff in c.items():
        acc = acc + SPoly.from_group(eval_word(w), coeff)
    return acc


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
    gens = p.generators
    one = SPoly.one()
    # eval_word raises the foreign-generator error, so d2 only meets x and y.
    d1 = [SPoly.from_group(eval_word(Word(((g, -1),)))) - one for g in gens]
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
            SPoly({d: RPoly(coeffs) for d, coeffs in rows[g].items()}) for g in gens
        ])
    return d2, d1


_TERM = re.compile(r"^y(?:\^(?P<m>-?\d+))?\s*(?:\*\s*(?P<paren>\(.*\))\s*)?$", re.S)


def _split_terms(s: str) -> list[tuple[int, str]]:
    chunks: list[tuple[int, str]] = []
    cur: list[str] = []
    sign = 1
    depth = 0
    prev = ""
    i = 0
    if s and s[0] in "+-":
        sign = 1 if s[0] == "+" else -1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolySyntaxError(f"unbalanced ')' at position {i}")
        if ch in "+-" and depth == 0 and prev not in ("", "^", "*", "+", "-"):
            chunks.append((sign, "".join(cur).strip()))
            cur = []
            sign = 1 if ch == "+" else -1
        else:
            cur.append(ch)
        if not ch.isspace():
            prev = ch
        i += 1
    if depth != 0:
        raise PolySyntaxError("unbalanced '(' in input")
    chunks.append((sign, "".join(cur).strip()))
    return chunks


def parse_spoly(text: str) -> SPoly:
    """Parse the printed form, e.g. "y^2*(1) + (-1)" or "y - x^-1".

    Terms are y^m*(coefficient), a bare y^m (coefficient 1), a
    parenthesized coefficient, or a plain Laurent polynomial in x for the
    y-degree-0 row.
    """
    s = text.replace("−", "-").strip()
    if not s:
        raise PolySyntaxError("empty input")
    if "y" not in s and "(" not in s:
        return SPoly.from_rpoly(parse_rpoly(s))
    acc = SPoly.zero()
    for sign, chunk in _split_terms(s):
        if not chunk:
            raise PolySyntaxError(f"empty term in {text!r}")
        if chunk.startswith("y"):
            m = _TERM.match(chunk)
            if m is None:
                raise PolySyntaxError(f"malformed term {chunk!r} in {text!r}")
            degree = int(m.group("m")) if m.group("m") else 1
            if m.group("paren"):
                coeff = parse_rpoly(m.group("paren")[1:-1])
            else:
                coeff = RPoly.one()
        elif chunk.startswith("("):
            if not chunk.endswith(")"):
                raise PolySyntaxError(f"malformed term {chunk!r} in {text!r}")
            degree = 0
            coeff = parse_rpoly(chunk[1:-1])
        else:
            degree = 0
            coeff = parse_rpoly(chunk)
        acc = acc + SPoly.from_rpoly(coeff.scale(sign), degree)
    return acc
