"""Product-of-conjugates certificates.

A certificate asserts that its target word equals an explicit product
prod_i  w_i * R_{j_i}^{e_i} * w_i^-1  of conjugated relators of a source
presentation, hence lies in the relators' normal closure.  Checking is
pure free-group reduction.  Certificates compose: concatenation multiplies
targets, inversion reverses and flips signs, conjugation left-multiplies
every conjugator.

Each factor also has a chain-level shadow: once the relators bound disks,
the factor (w, j, e) moves disk j by the group image of w^-1 with sign e,
which is where the boundary factorization identities come from.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .klein import SPoly, eval_word
from .presentations import Presentation
from .words import Word, conjugate, parse_word


@dataclass(frozen=True)
class CertFactor:
    conjugator: Word
    relator: int
    sign: int

    def __post_init__(self):
        # JSON may hold 0.9, "0" or true here; type() also rejects bool.
        if type(self.relator) is not int or type(self.sign) is not int:
            raise ValueError(f"rel and sign must be integers: {self.relator!r}, {self.sign!r}")
        if self.sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")


@dataclass(frozen=True)
class ConjugacyCertificate:
    target: Word
    factors: tuple[CertFactor, ...]
    source: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


def expand_certificate(src: Presentation, cert: ConjugacyCertificate) -> Word:
    """The freely reduced product the certificate claims equals its target.

    Every factor's conjugator, relator piece and inverse conjugator go
    onto one free-reduction pass, so the cost is linear in the total
    letter count rather than reducing the accumulated product per factor.
    """
    letters: list[tuple[str, int]] = []
    for f in cert.factors:
        if not 0 <= f.relator < len(src.relators):
            raise IndexError(f"relator index {f.relator} out of range")
        rel = src.relators[f.relator]
        piece = rel if f.sign == 1 else ~rel
        letters += f.conjugator.letters
        letters += piece.letters
        letters += (~f.conjugator).letters
    return Word(letters)


def check_certificate(src: Presentation, cert: ConjugacyCertificate) -> bool:
    return expand_certificate(src, cert) == cert.target


def boundary_factor(src: Presentation, cert: ConjugacyCertificate) -> dict[int, SPoly]:
    """Chain-level factor carried by each source relator.

    For a valid certificate, relator j maps to
    sum over its factors of  sign * (group image of conjugator^-1),
    as an element of the group ring; a relator with no factor is absent.
    Raises ValueError for an invalid certificate.
    """
    if not check_certificate(src, cert):
        raise ValueError("invalid certificate: product does not reduce to target")
    out: dict[int, SPoly] = {}
    for f in cert.factors:
        term = SPoly.from_group(eval_word(~f.conjugator), f.sign)
        out[f.relator] = out.get(f.relator, SPoly.zero()) + term
    return out


def _merge_sources(a: str | None, b: str | None) -> str | None:
    if a is not None and b is not None and a != b:
        raise ValueError(f"incompatible certificate sources {a!r} and {b!r}")
    return a if a is not None else b


def cert_concat(*certs: ConjugacyCertificate) -> ConjugacyCertificate:
    """Certificate for the product of the targets."""
    target = Word()
    factors: list[CertFactor] = []
    source: str | None = None
    for c in certs:
        target = target * c.target
        factors.extend(c.factors)
        source = _merge_sources(source, c.source)
    return ConjugacyCertificate(target, tuple(factors), source)


def cert_invert(c: ConjugacyCertificate) -> ConjugacyCertificate:
    """Certificate for the inverse target: reversed factors, flipped signs."""
    factors = tuple(
        CertFactor(f.conjugator, f.relator, -f.sign) for f in reversed(c.factors)
    )
    return ConjugacyCertificate(~c.target, factors, c.source)


def cert_conjugate(c: ConjugacyCertificate, u: Word) -> ConjugacyCertificate:
    """Certificate for u * target * u^-1."""
    factors = tuple(
        CertFactor(u * f.conjugator, f.relator, f.sign) for f in c.factors
    )
    return ConjugacyCertificate(conjugate(c.target, u), factors, c.source)


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


def certificate_to_dict(cert: ConjugacyCertificate) -> dict:
    data: dict = {
        "target": str(cert.target),
        "factors": [
            {"w": str(f.conjugator), "rel": f.relator, "sign": f.sign}
            for f in cert.factors
        ],
    }
    if cert.source is not None:
        data["source"] = cert.source
    return data


def certificate_from_dict(data: Mapping) -> ConjugacyCertificate:
    if not isinstance(data, Mapping) or "target" not in data or "factors" not in data:
        raise ValueError("certificate JSON needs an object with 'target' and 'factors'")
    if not isinstance(data["factors"], list):
        raise ValueError(f"certificate 'factors' must be a list, not {data['factors']!r}")
    if any(not isinstance(f, Mapping) for f in data["factors"]):
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
