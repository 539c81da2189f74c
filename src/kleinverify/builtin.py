"""Built-in data: the two presentations, shipped certificates, the
module instance (r, s) and the explicit unit-combination witness.

Everything verify-paper needs is here, so the full run takes no input
files.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import Dict, Tuple

from .certificates import ConjugacyCertificate, certificate_from_dict
from .division import StaffordInstance
from .klein import SPoly, parse_spoly
from .laurent import parse_rpoly
from .presentations import Presentation

GENERATORS = ("x", "y")

P_RELATOR_STRINGS = ("y^-1 x y x",)
Q_RELATOR_STRINGS = ("y^-2 x y^2 x^-1", "x^-3 y^-1 x y x^2 y^-1 x^-2 y")


@lru_cache(maxsize=None)
def presentation_p() -> Presentation:
    """One relator; its complex is the Klein bottle."""
    return Presentation.from_strings(GENERATORS, P_RELATOR_STRINGS)


@lru_cache(maxsize=None)
def presentation_q() -> Presentation:
    """Two relators; same group, Euler characteristic one higher."""
    return Presentation.from_strings(GENERATORS, Q_RELATOR_STRINGS)


PRESENTATIONS: Dict[str, callable] = {"P": presentation_p, "Q": presentation_q}


def _load_data(name: str) -> dict:
    text = resources.files("kleinverify").joinpath("data", name).read_text("utf-8")
    return json.loads(text)


@lru_cache(maxsize=None)
def forward_certificates() -> Tuple[ConjugacyCertificate, ConjugacyCertificate]:
    """Certificates writing each relator of Q as conjugates of P's relator."""
    return (
        certificate_from_dict(_load_data("cert_q1_over_p.json")),
        certificate_from_dict(_load_data("cert_q2_over_p.json")),
    )


@lru_cache(maxsize=None)
def reverse_certificates() -> Tuple[ConjugacyCertificate]:
    """Certificate writing P's relator as conjugates of Q's relators.

    Derived once by replaying the a = y^-1 x y, b = x manipulation with
    the certificate algebra; the test suite re-derives and re-checks it.
    """
    return (certificate_from_dict(_load_data("cert_p_over_q.json")),)


# The instance behind the membership module V = {v : r*v in (y+s)*S}.
R_STRING = "x^3 - x - 1"
S_STRING = "-x^-1"


@lru_cache(maxsize=None)
def stafford_instance() -> StaffordInstance:
    return StaffordInstance(parse_rpoly(R_STRING), parse_rpoly(S_STRING))


# Explicit witness that r*alpha + (y+s)*beta = 1 in the twisted ring.
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
def boundary_row_factors() -> Tuple[SPoly, SPoly]:
    return parse_spoly(FIRST_FACTOR_STRING), parse_spoly(SECOND_FACTOR_STRING)
