"""Reference oracles used to validate the deterministic engine.

These deliberately avoid the engine's code paths: enumeration evaluates
monomials directly with numpy, the Monte Carlo counter drives a seeded
generator, and the brute-force flattening norm takes a dense eigvalsh of
M M^T for each flattening M of the fully expanded tensor, where the engine's
lambda_max takes an SVD of the orbit-compressed sparse flattening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import Polynomial
from .tensors import SymTensor

ENUM_VAR_CAP = 24
_CHUNK = 1 << 16


def _eval_chunk(coeffs: dict, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0])
    for mono, c in coeffs.items():
        term = np.full(x.shape[0], float(c))
        for i in mono:
            term = term * x[:, i - 1]
        out += term
    return out


def enumerate_boolean(p: Polynomial, n: int | None = None) -> Fraction:
    """Exact Pr_{x ~ uniform {-1,1}^n}[p(x) >= 0] by enumeration."""
    if n is None:
        n = max(p.support_vars(), default=0)
    if n > ENUM_VAR_CAP:
        raise ValueError(f"enumeration supports at most {ENUM_VAR_CAP} "
                         f"variables, got {n}")
    total = 1 << n
    count = 0
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n)) & 1
        x = 1.0 - 2.0 * bits  # bit 0 -> +1, bit 1 -> -1
        vals = _eval_chunk(p.coeffs, x)
        count += int(np.count_nonzero(vals >= 0.0))
    return Fraction(count, total)


@dataclass
class MCEstimate:
    value: float
    stderr: float


def mc_gaussian(p: Polynomial, n_samples: int = 10 ** 6,
                seed: int = 0) -> MCEstimate:
    """Monte Carlo estimate of Pr_{x ~ N(0,1)^n}[p(x) >= 0]."""
    n = max(p.support_vars(), default=1)
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_CHUNK * 4, n_samples - done)
        x = rng.standard_normal((m, n))
        vals = _eval_chunk(p.coeffs, x)
        hits += int(np.count_nonzero(vals >= 0.0))
        done += m
    phat = hits / n_samples
    stderr = math.sqrt(max(phat * (1.0 - phat), 1.0 / n_samples) / n_samples)
    return MCEstimate(phat, stderr)


def brute_lambda_max(f: SymTensor) -> float:
    """Top flattening singular value of the dense tensor: for every split
    k = 1..q-1, the square root of the largest eigenvalue of M M^T for the
    n^k x n^(q-k) flattening M, and the largest over k."""
    q, n = f.order, f.dim
    if q <= 1:
        return 0.0
    dense = f.to_dense()
    best = 0.0
    for k in range(1, q):
        m = dense.reshape(n ** k, n ** (q - k))
        if m.shape[0] > m.shape[1]:
            m = m.T
        best = max(best, math.sqrt(float(np.linalg.eigvalsh(m @ m.T)[-1])))
    return best
