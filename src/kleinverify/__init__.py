"""Exact verification toolkit for the Klein bottle group ring.

Layers, bottom up: free-group words, integer Laurent polynomials with the
exponent-flip involution, the twisted group ring, presentations and the
reference free differential calculus (fox), division by y + s (walks)
with the kernel module V, product-of-conjugates certificates, and the
aggregate non-freeness verdict.

A submodule loads on first use of one of its names (PEP 562), so a
program that needs only polynomials compiles no word or certificate code.
The first access binds the name here, and later ones are plain lookups.
Each name maps to the module that defines it; division, presentations
and klein also resolve the names that moved out of them into walks and
fox, by a module __getattr__ of their own.
"""

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "words": ("IDENTITY", "Word", "WordSyntaxError", "parse_word"),
    "laurent": ("PolySyntaxError", "RPoly", "divides", "parse_rpoly", "quotient"),
    "presentations": ("Presentation", "euler_characteristic", "load_presentation"),
    "fox": ("FreeCombo", "boundary_matrices", "eval_combo", "fox_derivative"),
    "klein": ("SPoly", "boundary_data", "eval_word", "parse_spoly"),
    "division": ("StaffordInstance", "monic_witness", "no_monic_degree_one", "y_plus_s"),
    "walks": ("DivisionResult", "divide", "in_V"),
    "certificates": (
        "CertFactor", "ConjugacyCertificate", "boundary_factor", "certificate_from_dict",
        "check_certificate", "equivalence_verdict", "expand_certificate", "load_certificate",
    ),
    "verify": (
        "BezoutWitness", "ChainData", "NonFreenessReport", "StaffordVerdict",
        "build_chain_data", "chain_composites_vanish", "default_witness", "full_report",
        "psi", "splitting_check", "stafford_verdict", "verify_bezout", "verify_factorization",
    ),
    "builtin": (),
    "cli": (),
}
__all__ = [name for names in _EXPORTS.values() for name in names] + ["builtin"]
# Each public name, and each submodule's own name, to the submodule it lives in.
_HOMES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
