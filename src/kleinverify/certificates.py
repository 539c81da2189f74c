"""Product-of-conjugates certificates.

A certificate asserts that its target word equals an explicit product
prod_i  w_i * R_{j_i}^{e_i} * w_i^-1  of conjugated relators of a source
presentation, hence lies in the relators' normal closure.  Checking is
pure free-group reduction, in one pass over all the factors.

Each factor also has a chain-level shadow: once the relators bound disks,
the factor (w, j, e) moves disk j by the group image of w^-1 with sign e,
which is where the boundary factorization identities come from.  When w
maps to y^m x^n, w^-1 maps to y^-m x^(-(-1)^m n), and the terms are summed
in one coefficient dict per (relator, y-degree), made by the first term
that reaches it: no per-factor Word, SPoly or empty dict.

Checking stays in the free-group layer, so importing this module loads
no ring code: boundary_factor and _row_factors import klein when they
run, and a command that only checks a certificate never compiles it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .presentations import Presentation
from .words import Word, _reduced, parse_word

# The annotations' SPoly is never evaluated, so only the functions that
# build one import klein.


class CertFactor:
    """The factor  conjugator * R_relator^sign * conjugator^-1."""

    __slots__ = ("conjugator", "relator", "sign")

    def __init__(self, conjugator: Word, relator: int, sign: int):
        # JSON may hold 0.9, "0" or true here; type() also rejects bool.
        if type(relator) is not int or type(sign) is not int:
            raise ValueError(f"rel and sign must be integers: {relator!r}, {sign!r}")
        if sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")
        self.conjugator, self.relator, self.sign = conjugator, relator, sign

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CertFactor) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)


class ConjugacyCertificate:
    """target = the product of factors, over the presentation named by source."""

    __slots__ = ("target", "factors", "source")

    def __init__(self, target: Word, factors: Iterable[CertFactor], source: str | None = None):
        self.target, self.factors, self.source = target, tuple(factors), source

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConjugacyCertificate) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__)


def expand_certificate(src: Presentation, cert: ConjugacyCertificate) -> Word:
    """The freely reduced product the certificate claims equals its target.

    Every factor's conjugator, relator piece and inverse conjugator go onto
    one free-reduction pass, so the cost is linear in the letter count.
    Each relator piece is range-checked and inverted at most once per call.
    """
    letters: list[tuple[str, int]] = []
    append = letters.append
    pieces: dict[tuple[int, int], tuple[tuple[str, int], ...]] = {}
    for f in cert.factors:
        key = (f.relator, f.sign)
        piece = pieces.get(key)
        if piece is None:
            if not 0 <= f.relator < len(src.relators):
                raise IndexError(f"relator index {f.relator} out of range")
            rel = src.relators[f.relator]
            piece = pieces[key] = (rel if f.sign == 1 else ~rel)._letters
        w = f.conjugator._letters
        letters += w
        letters += piece
        # A plain loop: conjugators are a few letters long, and on CPython
        # 3.11 a comprehension is a function call that costs more than that.
        for name, exp in reversed(w):
            append((name, -exp))
    return Word._of_reduced(_reduced(letters))


def check_certificate(src: Presentation, cert: ConjugacyCertificate) -> bool:
    return expand_certificate(src, cert) == cert.target


def boundary_factor(src: Presentation, cert: ConjugacyCertificate) -> dict[int, SPoly]:
    """Chain-level factor carried by each source relator.

    For a valid certificate, relator j maps to the group ring element
    sum over its factors of  sign * (group image of conjugator^-1);
    a relator with no factor is absent, one whose terms cancel maps to the
    zero SPoly.  The image of conjugator^-1 is (-m, -(-1)^m n) for the
    conjugator's image (m, n); the terms go into one coefficient dict per
    (relator, y-degree).  Raises ValueError for an invalid certificate or a
    generator other than x and y, and IndexError for an out-of-range relator.
    """
    from .klein import _spoly, eval_word

    if not check_certificate(src, cert):
        raise ValueError("invalid certificate: product does not reduce to target")
    shadow: dict[int, dict[int, dict[int, int]]] = {}
    for f in cert.factors:
        try:
            m, n = eval_word(f.conjugator)
        except ValueError:
            eval_word(~f.conjugator)  # raise naming the foreign letter ~w meets first
            raise
        e = n if m % 2 else -n
        rows = shadow.get(f.relator)
        if rows is None:
            shadow[f.relator] = {-m: {e: f.sign}}
        elif (row := rows.get(-m)) is None:
            rows[-m] = {e: f.sign}
        else:
            row[e] = row.get(e, 0) + f.sign
    return {j: _spoly(rows) for j, rows in shadow.items()}


def _row_factors(src: Presentation, certs: Iterable[ConjugacyCertificate]) -> list[SPoly]:
    """Each certificate's chain shadow on src's relator 0: by Fox calculus, its row factor."""
    from .klein import SPoly

    return [boundary_factor(src, c).get(0, SPoly.zero()) for c in certs]


def equivalence_verdict(
    p: Presentation,
    q: Presentation,
    certs_q_over_p: Iterable[ConjugacyCertificate],
    certs_p_over_q: Iterable[ConjugacyCertificate],
) -> bool:
    """True iff each presentation's relators are certified consequences
    of the other's, over the shared generator list."""
    if p.generators != q.generators:
        raise ValueError("generator mismatch between presentations")

    def covered(relators, src, certs) -> bool:
        certs = list(certs)
        for rel in relators:
            ok = False
            for c in certs:
                if c.target != rel:
                    continue
                try:
                    if check_certificate(src, c):
                        ok = True
                        break
                except IndexError:
                    continue
            if not ok:
                return False
        return True

    return covered(q.relators, p, certs_q_over_p) and covered(
        p.relators, q, certs_p_over_q
    )


def certificate_from_dict(data: Mapping) -> ConjugacyCertificate:
    if not isinstance(data, Mapping) or "target" not in data or "factors" not in data:
        raise ValueError("certificate JSON needs an object with 'target' and 'factors'")
    if not isinstance(data["factors"], list):
        raise ValueError(f"certificate 'factors' must be a list, not {data['factors']!r}")
    for f in data["factors"]:
        if not (isinstance(f, Mapping) and "w" in f and "rel" in f and "sign" in f):
            raise ValueError("each certificate factor must be an object with 'w', 'rel' and 'sign'")
    # A number would reach open() as a file descriptor: 0 reads stdin.
    source = data.get("source")
    if source is not None and not isinstance(source, str):
        raise ValueError(f"certificate source must be a string, not {source!r}")
    factors = tuple(
        CertFactor(parse_word(f["w"]), f["rel"], f["sign"])
        for f in data["factors"]
    )
    return ConjugacyCertificate(parse_word(data["target"]), factors, source)


def load_certificate(path) -> ConjugacyCertificate:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_dict(json.load(fh))
