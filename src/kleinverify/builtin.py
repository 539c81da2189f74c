"""Built-in data: the two presentations, shipped certificates, the
module instance (r, s) and the explicit unit-combination witness.

Everything verify-paper needs is written here as code, so the full run
reads no files.  The certificates are dicts in the shape of the
certificate JSON and go through the same parser and input checks as a
user's certificate file.
"""

from __future__ import annotations

from functools import lru_cache

from .certificates import ConjugacyCertificate, certificate_from_dict
from .division import StaffordInstance
from .klein import SPoly, parse_spoly
from .laurent import parse_rpoly
from .presentations import Presentation

GENERATORS = ("x", "y")

P_RELATOR_STRINGS = ("y^-1 x y x",)
Q_RELATOR_STRINGS = ("y^-2 x y^2 x^-1", "x^-3 y^-1 x y x^2 y^-1 x^-2 y")

# Each relator of Q as a product of conjugates of P's relator.
_FORWARD_CERTIFICATES = (
    {
        "target": "y^-2 x y^2 x^-1",
        "source": "P",
        "factors": [
            {"w": "y^-1", "rel": 0, "sign": 1},
            {"w": "x", "rel": 0, "sign": -1},
        ],
    },
    {
        "target": "x^-3 y^-1 x y x^2 y^-1 x^-2 y",
        "source": "P",
        "factors": [
            {"w": "x^-3", "rel": 0, "sign": 1},
            {"w": "x^-1", "rel": 0, "sign": -1},
            {"w": "1", "rel": 0, "sign": -1},
        ],
    },
)

# P's relator as a product of conjugates of Q's relators.  Derived once by
# replaying the a = y^-1 x y, b = x manipulation with the certificate
# algebra; the test suite re-derives it and compares with this literal.
_REVERSE_CERTIFICATE = {
    "target": "y^-1 x y x",
    "source": "Q",
    "factors": [
        {"w": "y^-1 x y", "rel": 0, "sign": -1},
        {"w": "y^-1 x^4", "rel": 1, "sign": 1},
        {"w": "y^-1 x^4 y", "rel": 0, "sign": 1},
        {"w": "y^-1 x^4 y x", "rel": 0, "sign": 1},
        {"w": "y^-1 x^4 y x^3", "rel": 1, "sign": -1},
        {"w": "y^-1 x^5 y x", "rel": 0, "sign": -1},
        {"w": "y^-1 x^5 y", "rel": 0, "sign": -1},
        {"w": "y^-1 x^5", "rel": 1, "sign": -1},
        {"w": "y^-1 x^2 y", "rel": 0, "sign": 1},
    ],
}


@lru_cache(maxsize=None)
def presentation_p() -> Presentation:
    """One relator; its complex is the Klein bottle."""
    return Presentation.from_strings(GENERATORS, P_RELATOR_STRINGS)


@lru_cache(maxsize=None)
def presentation_q() -> Presentation:
    """Two relators; same group, Euler characteristic one higher."""
    return Presentation.from_strings(GENERATORS, Q_RELATOR_STRINGS)


PRESENTATIONS = {"P": presentation_p, "Q": presentation_q}


@lru_cache(maxsize=None)
def forward_certificates() -> tuple[ConjugacyCertificate, ConjugacyCertificate]:
    """Certificates writing each relator of Q as conjugates of P's relator."""
    return tuple(certificate_from_dict(d) for d in _FORWARD_CERTIFICATES)


@lru_cache(maxsize=None)
def reverse_certificates() -> tuple[ConjugacyCertificate]:
    """Certificate writing P's relator as conjugates of Q's relators."""
    return (certificate_from_dict(_REVERSE_CERTIFICATE),)


# The instance behind the membership module V = {v : r*v in (y+s)*S}.
R_STRING = "x^3 - x - 1"
S_STRING = "-x^-1"


@lru_cache(maxsize=None)
def stafford_instance() -> StaffordInstance:
    return StaffordInstance(parse_rpoly(R_STRING), parse_rpoly(S_STRING))


# Explicit witness that r*alpha + (y+s)*beta = 1 in the twisted ring.
# The reverse certificate's chain shadow, boundary_factor(Q, reverse),
# is {0: beta', 1: alpha'} for another witness (alpha', beta') of the same
# identity.  Both are kept on purpose, as independent witnesses, so that
# condition (i) does not rest on the certificate data.
BEZOUT_ALPHA_STRING = "(x^-3 - x^-4) + y^-1*(-1)"
BEZOUT_BETA_STRING = "y^-1*(x^-1 + x^-2 - x^-4)"


@lru_cache(maxsize=None)
def bezout_alpha() -> SPoly:
    return parse_spoly(BEZOUT_ALPHA_STRING)


@lru_cache(maxsize=None)
def bezout_beta() -> SPoly:
    return parse_spoly(BEZOUT_BETA_STRING)


# Row factors of the two-relator boundary over the one-relator boundary.
FIRST_FACTOR_STRING = "y - x^-1"
SECOND_FACTOR_STRING = "x^3 - x - 1"


@lru_cache(maxsize=None)
def boundary_row_factors() -> tuple[SPoly, SPoly]:
    return parse_spoly(FIRST_FACTOR_STRING), parse_spoly(SECOND_FACTOR_STRING)
