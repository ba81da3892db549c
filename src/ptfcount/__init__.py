"""Deterministic approximate counting for degree-d polynomial threshold functions.

Given a degree-d polynomial p over n variables, the toolkit computes
Pr[p(x) >= 0] to within an additive eps, deterministically, under either
the standard Gaussian measure N(0,1)^n or the uniform measure on the
hypercube {-1,1}^n.
"""

from .polynomials import Polynomial
from .tensors import SymTensor, lambda_max, eigenregularity
from .chaos import (
    ChaosDecomposition,
    to_chaos,
    from_chaos,
    ito_multiply,
    covariance,
    malliavin_inner,
    malliavin_second_moment,
    clt_error_certificate,
)
from .multilinear import linearize
from .decomposition import regularize_poly
from .gaussian import count_gaussian
from .boolean import count_boolean
from .moments import exact_raw_moment, absolute_moment

__all__ = [
    "Polynomial",
    "SymTensor",
    "lambda_max",
    "eigenregularity",
    "ChaosDecomposition",
    "to_chaos",
    "from_chaos",
    "ito_multiply",
    "covariance",
    "malliavin_inner",
    "malliavin_second_moment",
    "clt_error_certificate",
    "linearize",
    "regularize_poly",
    "count_gaussian",
    "count_boolean",
    "exact_raw_moment",
    "absolute_moment",
]

__version__ = "0.1.0"
