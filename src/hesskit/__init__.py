"""Exact verification toolkit for recovering ternary forms from Hessians.

The package mechanizes a family of computable statements around the Hessian
of homogeneous forms near the hyperbolic quadric: closed-form Hessians of
power products, first-order perturbation constants, injectivity ranks of the
Hessian differential at special points, integer-condition scans tied to two
auxiliary affine curves, divisibility of Hessian limits along one-parameter
families, and degree-level certificates bundling all of it.  Everything is
computed over the rationals with exact arithmetic; modular probes only ever
shortcut full-rank confirmations, never replace exact answers.
"""

from ._version import __version__
from .errors import InputError, VerificationError
from .forms import Form, dim_sym, monomials_of_degree, random_form
from .linalg import rank_with_certificate
from .hessians import (TParameterForm, h3, h12, hess, hess_t,
                       hess_t_leading, hessian_expansion, lowest_t_order)
from .harmonic import (QuadraticForm, bombieri_weyl, dim_harmonic,
                       harmonic_basis, harmonic_decompose, recompose)
from .orbit_checks import (closed_form_constant, verify_closed_form,
                           verify_pair, verify_pairs)
from .rank_certificates import (SpecialPoint, block_structure_check,
                                pijk_injectivity, verify_special_point_rank)
from .curves import (CURVE_ONE, CURVE_TWO, OMEGA1, OMEGA2, fiber_recover,
                     scan_condition, verify_family)
from .indeterminacy import (ConeNormalForm, limit_divisibility_check,
                            normal_form_check, pair_divisibility_check,
                            sample_gated_pair, sample_gated_triple,
                            triple_divisibility_check)
from .reports import Certificate, SuiteResult, canonical_json, certify, \
    run_suite

__all__ = [
    "__version__", "InputError", "VerificationError",
    "Form", "dim_sym", "monomials_of_degree", "random_form",
    "rank_with_certificate",
    "TParameterForm", "h3", "h12", "hess", "hess_t", "hess_t_leading",
    "hessian_expansion", "lowest_t_order",
    "QuadraticForm", "bombieri_weyl", "dim_harmonic", "harmonic_basis",
    "harmonic_decompose", "recompose",
    "closed_form_constant", "verify_closed_form", "verify_pair",
    "verify_pairs",
    "SpecialPoint", "block_structure_check", "pijk_injectivity",
    "verify_special_point_rank",
    "CURVE_ONE", "CURVE_TWO", "OMEGA1", "OMEGA2", "fiber_recover",
    "scan_condition", "verify_family",
    "ConeNormalForm", "limit_divisibility_check", "normal_form_check",
    "pair_divisibility_check", "sample_gated_pair", "sample_gated_triple",
    "triple_divisibility_check",
    "Certificate", "SuiteResult", "canonical_json", "certify", "run_suite",
]
