"""Exact verification toolkit for the Klein bottle group ring.

Layers, bottom up: free-group words, integer Laurent polynomials with the
exponent-flip involution, the twisted group ring, free differential
calculus and presentation boundaries, division by y + s with the kernel
module V, product-of-conjugates certificates, and the aggregate
non-freeness verdict.
"""

from .words import IDENTITY, Word, WordSyntaxError, parse_word
from .laurent import PolySyntaxError, RPoly, divides, parse_rpoly, quotient
from .presentations import (
    FreeCombo,
    Presentation,
    boundary_matrices,
    euler_characteristic,
    fox_derivative,
    load_presentation,
)
from .klein import (
    SPoly,
    boundary_data,
    eval_combo,
    eval_word,
    parse_spoly,
)
from .division import (
    DivisionResult,
    StaffordInstance,
    divide,
    in_V,
    monic_witness,
    no_monic_degree_one,
    witnesses,
    y_plus_s,
)
from .certificates import (
    CertFactor,
    ConjugacyCertificate,
    boundary_factor,
    certificate_from_dict,
    check_certificate,
    equivalence_verdict,
    expand_certificate,
    load_certificate,
)
from .verify import (
    BezoutWitness,
    ChainData,
    NonFreenessReport,
    StaffordVerdict,
    build_chain_data,
    chain_composites_vanish,
    default_witness,
    full_report,
    psi,
    splitting_check,
    splitting_projector,
    stafford_verdict,
    verify_bezout,
    verify_factorization,
)
from . import builtin

__version__ = "0.1.0"

__all__ = [
    "IDENTITY",
    "Word",
    "WordSyntaxError",
    "parse_word",
    "PolySyntaxError",
    "RPoly",
    "divides",
    "parse_rpoly",
    "quotient",
    "FreeCombo",
    "Presentation",
    "boundary_matrices",
    "euler_characteristic",
    "fox_derivative",
    "load_presentation",
    "SPoly",
    "boundary_data",
    "eval_combo",
    "eval_word",
    "parse_spoly",
    "DivisionResult",
    "StaffordInstance",
    "divide",
    "in_V",
    "monic_witness",
    "no_monic_degree_one",
    "witnesses",
    "y_plus_s",
    "CertFactor",
    "ConjugacyCertificate",
    "boundary_factor",
    "certificate_from_dict",
    "check_certificate",
    "equivalence_verdict",
    "expand_certificate",
    "load_certificate",
    "BezoutWitness",
    "ChainData",
    "NonFreenessReport",
    "StaffordVerdict",
    "build_chain_data",
    "chain_composites_vanish",
    "default_witness",
    "full_report",
    "psi",
    "splitting_check",
    "splitting_projector",
    "stafford_verdict",
    "verify_bezout",
    "verify_factorization",
    "builtin",
]
