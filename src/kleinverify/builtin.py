"""Built-in data: the two presentations, shipped certificates and the
explicit unit-combination witness, and what is derived from them: Q's
row factors and the module instance (r, s).

Everything verify-paper needs is written here as code, so the full run
reads no files.  The certificates are dicts in the shape of the
certificate JSON and go through the same parser and input checks as a
user's certificate file.  The witness is coefficient dicts, with its
printed form beside it, so no polynomial text is parsed.  The instance
is not shipped: it is read from the forward certificates' row factors
y + s and r, so it is the instance of the complex Q names.

Each constructor imports the modules it builds from when it first runs,
and caches its value.  Importing this module loads no other module of the
package, so reading a presentation or a certificate loads only the
free-group layer (words, presentations, certificates) and reading the
witness only the ring layer (laurent, klein); the row factors and the
instance load both.
"""

from __future__ import annotations

from functools import lru_cache

# The annotations name classes of the modules the functions import; they
# are never evaluated.

GENERATORS = ("x", "y")

P_RELATOR_STRINGS = ("y^-1 x y x",)
Q_RELATOR_STRINGS = ("y^-2 x y^2 x^-1", "x^-3 y^-1 x y x^2 y^-1 x^-2 y")

# Each relator of Q as a product of conjugates of P's relator.
_FORWARD_CERTIFICATES = (
    {
        "target": Q_RELATOR_STRINGS[0],
        "source": "P",
        "factors": [
            {"w": "y^-1", "rel": 0, "sign": 1},
            {"w": "x", "rel": 0, "sign": -1},
        ],
    },
    {
        "target": Q_RELATOR_STRINGS[1],
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
    "target": P_RELATOR_STRINGS[0],
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
    from .presentations import Presentation

    return Presentation.from_strings(GENERATORS, P_RELATOR_STRINGS)


@lru_cache(maxsize=None)
def presentation_q() -> Presentation:
    """Two relators; same group, Euler characteristic one higher."""
    from .presentations import Presentation

    return Presentation.from_strings(GENERATORS, Q_RELATOR_STRINGS)


PRESENTATIONS = {"P": presentation_p, "Q": presentation_q}


@lru_cache(maxsize=None)
def forward_certificates() -> tuple[ConjugacyCertificate, ConjugacyCertificate]:
    """Certificates writing each relator of Q as conjugates of P's relator."""
    from .certificates import certificate_from_dict

    return tuple(certificate_from_dict(d) for d in _FORWARD_CERTIFICATES)


@lru_cache(maxsize=None)
def reverse_certificates() -> tuple[ConjugacyCertificate]:
    """Certificate writing P's relator as conjugates of Q's relators."""
    from .certificates import certificate_from_dict

    return (certificate_from_dict(_REVERSE_CERTIFICATE),)


# Explicit witness that r*alpha + (y+s)*beta = 1 in the twisted ring.
# The reverse certificate's chain shadow, boundary_factor(Q, reverse),
# is {0: beta', 1: alpha'} for another witness (alpha', beta') of the same
# identity.  Both are kept on purpose, as independent witnesses, so that
# condition (i) does not rest on the certificate data.
@lru_cache(maxsize=None)
def bezout_alpha() -> SPoly:
    """alpha = (x^-3 - x^-4) + y^-1*(-1)"""
    from .klein import SPoly
    from .laurent import RPoly

    return SPoly({0: RPoly({-3: 1, -4: -1}), -1: RPoly({0: -1})})


@lru_cache(maxsize=None)
def bezout_beta() -> SPoly:
    """beta = y^-1*(x^-1 + x^-2 - x^-4)"""
    from .klein import SPoly
    from .laurent import RPoly

    return SPoly({-1: RPoly({-1: 1, -2: 1, -4: -1})})


@lru_cache(maxsize=None)
def boundary_row_factors() -> tuple[SPoly, ...]:
    from .certificates import _row_factors

    return tuple(_row_factors(presentation_p(), forward_certificates()))


@lru_cache(maxsize=None)
def stafford_instance() -> StaffordInstance:
    """The instance behind the membership module V = {v : r*v in (y+s)*S},
    read from Q's row factors y + s and r."""
    from .division import StaffordInstance

    return StaffordInstance.from_factors(boundary_row_factors())
