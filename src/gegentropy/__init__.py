"""Exact Shannon information entropy of Gegenbauer polynomials.

Computes E(C_n^(lam)) for integer lam >= 1 (and the Chebyshev-T limit lam = 0
in normalized form) as closed symbolic values pi*(sum c_i log r_i + q) with
exact rational constants, cross-validated by three independent exact routes
and a numerical quadrature oracle.
"""

from .exact import (DEFAULT_PRECISION, MIN_PRECISION, ExactEntropy, LogLinear,
                    dumps_json, entropy_from_json_dict, entropy_to_json_dict,
                    log_linear_from)
from .gegenbauer import (GegenbauerSpec, gegenbauer_value, standard_coeffs,
                         standard_representation, szego_coeffs,
                         szego_representation, zero_angles)
from .entropy import (IntegralTable, ROUTE_FAA_DI_BRUNO,
                      ROUTE_SERIES_LOG, ROUTE_STANDARD_REP, assemble_entropy,
                      beta_vector, entropy_closed_form, entropy_exact,
                      integrals_faa_di_bruno, integrals_series_log,
                      integrals_standard_rep, normalize_entropy,
                      normalized_entropy_exact)
from .quadrature import (QuadratureConfig, ToleranceNotMet, entropy_quadrature,
                         integral_I_quadrature, normalized_entropy_quadrature,
                         orthonormality_quadrature)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRECISION",
    "ExactEntropy",
    "GegenbauerSpec",
    "IntegralTable",
    "LogLinear",
    "MIN_PRECISION",
    "QuadratureConfig",
    "ROUTE_FAA_DI_BRUNO",
    "ROUTE_SERIES_LOG",
    "ROUTE_STANDARD_REP",
    "ToleranceNotMet",
    "assemble_entropy",
    "beta_vector",
    "dumps_json",
    "entropy_closed_form",
    "entropy_exact",
    "entropy_from_json_dict",
    "entropy_quadrature",
    "entropy_to_json_dict",
    "gegenbauer_value",
    "integral_I_quadrature",
    "integrals_faa_di_bruno",
    "integrals_series_log",
    "integrals_standard_rep",
    "log_linear_from",
    "normalize_entropy",
    "normalized_entropy_exact",
    "normalized_entropy_quadrature",
    "orthonormality_quadrature",
    "standard_coeffs",
    "standard_representation",
    "szego_coeffs",
    "szego_representation",
    "zero_angles",
]
