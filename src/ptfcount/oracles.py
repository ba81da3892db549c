"""Reference oracles used to validate the deterministic engine.

These deliberately avoid the engine's code paths: enumeration evaluates
monomials directly with numpy, the Monte Carlo counter drives a seeded
generator, and the brute-force flattening norm runs power iteration on the
fully expanded dense tensor.
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
    n_samples: int
    seed: int


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
    return MCEstimate(phat, stderr, n_samples, seed)


def brute_lambda_max(f: SymTensor, iters: int = 2000,
                     tol: float = 1e-12) -> float:
    """Top flattening singular value by power iteration on the dense tensor.

    Runs alternating power iteration for every split k = 1..q-1 from several
    deterministic starting vectors and returns the best value found.
    """
    q, n = f.order, f.dim
    if q <= 1:
        return 0.0
    dense = f.to_dense()
    best = 0.0
    for k in range(1, q):
        m = dense.reshape(n ** k, n ** (q - k))
        if m.shape[0] > m.shape[1]:
            m = m.T
        gram = m @ m.T
        total = np.linalg.norm(gram)
        if total == 0.0:
            continue
        # accelerated power iteration: squaring boosts the spectral gap,
        # (sigma_2/sigma_1)^(2^60) underflows for any actual gap
        proj = gram / total
        for _ in range(60):
            proj = proj @ proj
            s = np.linalg.norm(proj)
            if s == 0.0 or not np.isfinite(s):
                break
            proj /= s
        starts = [np.ones(gram.shape[0])]
        e = np.zeros(gram.shape[0])
        e[int(np.argmax(np.diag(gram)))] = 1.0
        starts.append(e)
        rng = np.random.Generator(np.random.PCG64(12345))
        starts.extend(rng.standard_normal(gram.shape[0]) for _ in range(3))
        for v in starts:
            w = proj @ v
            nw = np.linalg.norm(w)
            if nw <= tol:
                continue
            w /= nw
            for _ in range(iters):
                u = gram @ w
                nu = np.linalg.norm(u)
                if nu == 0.0:
                    break
                wn = u / nu
                if np.linalg.norm(wn - w) <= tol:
                    w = wn
                    break
                w = wn
            best = max(best, math.sqrt(float(w @ gram @ w)))
    return best
