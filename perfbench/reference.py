"""Reference answers, computed apart from ptfcount.

Nothing here imports the package: polynomials are evaluated by this file's
own code.  Each reference comes with the tolerance an answer must meet.

* ``mc``: Pr[p(x) >= 0] for x ~ N(0,1)^n by seeded Monte Carlo with
  MC_SAMPLES samples.  The tolerance is eps + MC_SIGMAS standard errors.
  The Monte Carlo seed is a digest of the polynomial, so a fixed input
  always gets the same reference.
* ``enumerate``: the exact Pr[p(x) >= 0] over {-1,1}^n.  The values of a
  multilinear p on all 2^n points are the unnormalised Walsh-Hadamard
  transform of its coefficient vector.  Tolerance eps.
* ``binomial``: the exact Pr[x_1 + ... + x_n >= t] over {-1,1}^n as a
  binomial tail.  Tolerance eps.
* ``moment``: the exact E|p(x)|^k over {-1,1}^n by the same transform.
  Tolerance eps times the exact value.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

MC_SAMPLES = 1 << 16
MC_SIGMAS = 4.0
_CHUNK = 1 << 16


def evaluate(terms: list, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0])
    for key, c in terms:
        term = np.full(x.shape[0], float(c))
        for i in key:
            term = term * x[:, i - 1]
        out += term
    return out


def gaussian_probability(op: dict) -> tuple[float, float]:
    """(estimate, standard error) of Pr[p >= 0] under N(0,1)^n."""
    digest = hashlib.sha256(json.dumps(op["terms"]).encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    hits = 0
    for start in range(0, MC_SAMPLES, _CHUNK):
        m = min(_CHUNK, MC_SAMPLES - start)
        x = rng.standard_normal((m, op["dim"]))
        hits += int(np.count_nonzero(evaluate(op["terms"], x) >= 0.0))
    p = hits / MC_SAMPLES
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / MC_SAMPLES) / MC_SAMPLES)


def hypercube_values(op: dict) -> np.ndarray:
    """p on every point of the subcube of the variables it touches.

    Bit j of an index set means the j-th touched variable is -1; variables
    p does not touch do not change its distribution.
    """
    support = sorted({i for key, _ in op["terms"] for i in key})
    bit = {var: j for j, var in enumerate(support)}
    v = np.zeros(1 << len(support))
    for key, c in op["terms"]:
        if len(set(key)) != len(key):
            raise ValueError("hypercube references need multilinear input")
        v[sum(1 << bit[i] for i in key)] += c
    h = 1
    while h < v.size:
        blocks = v.reshape(-1, 2, h)
        low = blocks[:, 0, :].copy()
        blocks[:, 0, :] += blocks[:, 1, :]
        blocks[:, 1, :] = low - blocks[:, 1, :]
        h *= 2
    return v


def threshold_probability(n: int, t: int) -> float:
    """Pr[x_1 + ... + x_n >= t]: at most (n - t) / 2 coordinates are -1."""
    top = math.floor((n - t) / 2)
    if top < 0:
        return 0.0
    count = sum(math.comb(n, j) for j in range(min(top, n) + 1))
    return float(Fraction(count, 1 << n))


def reference(op: dict) -> dict:
    """{"value", "tol"} for one operation."""
    eps = op["eps"]
    kind = op["ref"]
    if kind == "mc":
        p, se = gaussian_probability(op)
        return {"value": p, "tol": eps + MC_SIGMAS * se}
    if kind == "enumerate":
        vals = hypercube_values(op)
        return {"value": float(np.count_nonzero(vals >= 0.0)) / vals.size,
                "tol": eps}
    if kind == "binomial":
        return {"value": threshold_probability(op["dim"], op["threshold"]),
                "tol": eps}
    if kind == "moment":
        exact = float(np.mean(np.abs(hypercube_values(op)) ** op["k"]))
        return {"value": exact, "tol": eps * exact}
    raise ValueError(f"unknown reference kind {kind!r}")
