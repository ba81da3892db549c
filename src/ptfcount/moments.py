"""Moments of polynomials over the uniform hypercube.

exact_raw_moment expands p^k symbolically with the reduction x_i^2 = 1 and
reads off the constant term.  absolute_moment reads E|p|^k exactly off the
hypercube transform boolean.hypercube_values when p touches at most
ENUM_VARS variables; the transform is the one kernel that the Boolean
leaves' count also reads.  Wider supports get E p^2 exactly from Parseval,
and other k a (1 +- eps) multiplicative bracket by integrating the
threshold-count curve t -> Pr[|p| >= t] (a Riemann-Stieltjes bracket over
a geometric grid of thresholds, each evaluated with the deterministic
hypercube counter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial
from .boolean import ENUM_VARS, count_boolean, hypercube_values

RAW_TERM_CAP = 2_000_000


def exact_raw_moment(p: Polynomial, k: int) -> float:
    """E[p(x)^k] for x uniform on {-1,1}^n, exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = p.hypercube_reduce()
    base = acc
    for _ in range(k - 1):
        acc = acc.mul(base).hypercube_reduce()
        if len(acc.coeffs) > RAW_TERM_CAP:
            raise RuntimeError(f"expansion exceeds {RAW_TERM_CAP} terms")
    return acc.constant_term()


@dataclass
class MomentEstimate:
    value: float
    lower: float          # Riemann-Stieltjes lower bound
    upper: float          # Riemann-Stieltjes upper bound
    thresholds: int       # 0 when the value is exact


def absolute_moment(p: Polynomial, k: int,
                    eps: float = 0.05) -> MomentEstimate:
    """E|p(x)|^k over the hypercube to multiplicative accuracy 1 +- eps.

    When p touches at most ENUM_VARS variables, E|p|^k is the mean of
    |values|^k over the 2^m values of one hypercube transform: exact, with
    value == lower == upper and no thresholds.  So is E p^2 at any width:
    the reduced p is multilinear, so by Parseval it is sum of c_S^2.

    Wider supports and k != 2 take the threshold sweep: write
    E|q|^k = int t^k dF(t) for the normalized q = p / sqrt(E[p^2]) and
    bracket the integral between the lower and upper Stieltjes sums on a
    geometric threshold grid of ratio 1 + eps/(2k); each F increment comes
    from two deterministic threshold counts.  |q| <= l1(q) exactly, so the grid is
    finite with no tail error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    work = p.hypercube_reduce()
    if len(work.support_vars()) <= ENUM_VARS:
        exact = float(np.mean(np.abs(hypercube_values(work)) ** k))
        return MomentEstimate(exact, exact, exact, 0)
    # Parseval: the multilinear work has E[work^2] = sum of c_S^2
    second = sum(c * c for c in work.coeffs.values())
    if k == 2 or second <= 0.0:
        return MomentEstimate(second, second, second, 0)
    norm = math.sqrt(second)
    q = work.scale(1.0 / norm)
    top = q.l1_norm()
    # E|q|^k >= (E q^2)^{k/2} / top^{max(2-k,0)} gives an instance floor,
    # used only to place the lowest threshold
    floor = min(1.0, 1.0 / top) ** max(2 - k, 0)
    t_min = (0.25 * eps * floor) ** (1.0 / k)
    t_min = min(t_min, 0.5 * top)
    ratio = 1.0 + eps / (2.0 * k)
    ts = [t_min]
    while ts[-1] < top:
        ts.append(min(ts[-1] * ratio, top))

    def prob_ge(t: float) -> float:
        # Pr[|q| >= t] via two one-sided counts
        hi = count_boolean(q.add(Polynomial.constant(-t, q.dim)),
                           eps / 4.0).value
        lo = count_boolean(q.scale(-1.0).add(
            Polynomial.constant(-t, q.dim)), eps / 4.0).value
        return min(1.0, hi + lo)

    probs = [prob_ge(t) for t in ts]
    lower = 0.0
    upper = ts[0] ** k * probs[0]   # mass below t_min placed at 0 vs t_min
    for j in range(len(ts) - 1):
        df = max(0.0, probs[j] - probs[j + 1])
        lower += ts[j] ** k * df
        upper += ts[j + 1] ** k * df
    lower += ts[-1] ** k * probs[-1]
    upper += ts[-1] ** k * probs[-1]
    mid = 0.5 * (lower + upper)
    scale = norm ** k
    return MomentEstimate(scale * mid, scale * lower, scale * upper, len(ts))
