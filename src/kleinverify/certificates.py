"""Product-of-conjugates certificates.

A certificate asserts that its target word equals an explicit product
prod_i  w_i * R_{j_i}^{e_i} * w_i^-1  of conjugated relators of a source
presentation, hence lies in the relators' normal closure.  Checking is
pure free-group reduction, in one pass over all the factors.

Each factor also has a chain-level shadow: once the relators bound disks,
the factor (w, j, e) moves disk j by the group image of w^-1 with sign e,
which is where the boundary factorization identities come from.  When w
maps to y^m x^n, w^-1 maps to y^-m x^(-(-1)^m n), and the terms are summed
in one coefficient dict per (relator, y-degree): no per-factor Word or SPoly.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping

from .klein import SPoly, eval_word
from .laurent import RPoly
from .presentations import Presentation
from .words import Word, parse_word


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
    pieces: dict[tuple[int, int], tuple[tuple[str, int], ...]] = {}
    for f in cert.factors:
        key = (f.relator, f.sign)
        if key not in pieces:
            if not 0 <= f.relator < len(src.relators):
                raise IndexError(f"relator index {f.relator} out of range")
            rel = src.relators[f.relator]
            pieces[key] = (rel if f.sign == 1 else ~rel).letters
        w = f.conjugator.letters
        letters += w
        letters += pieces[key]
        letters += [(name, -exp) for name, exp in reversed(w)]
    return Word(letters)


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
    if not check_certificate(src, cert):
        raise ValueError("invalid certificate: product does not reduce to target")
    shadow = defaultdict(lambda: defaultdict(Counter))
    for f in cert.factors:
        try:
            m, n = eval_word(f.conjugator)
        except ValueError:
            eval_word(~f.conjugator)  # raise naming the foreign letter ~w meets first
            raise
        shadow[f.relator][-m][n if m % 2 else -n] += f.sign
    return {j: SPoly({d: RPoly(row) for d, row in rows.items()}) for j, rows in shadow.items()}


def _row_factors(src: Presentation, certs: Iterable[ConjugacyCertificate]) -> list[SPoly]:
    """Each certificate's chain shadow on src's relator 0: by Fox calculus, its row factor."""
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
    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_dict(json.load(fh))
