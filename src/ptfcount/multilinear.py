"""Reduction from arbitrary to multilinear Gaussian polynomials.

Each variable x_i is replaced by an average of K fresh variables,
x_i <- (y_{i,1} + ... + y_{i,K}) / sqrt(K), and the chaos tensors of the
substituted polynomial have their diagonals zeroed.  Concretely each Hermite
factor He_a(x_i) maps to a!/K^{a/2} times the elementary symmetric
polynomial e_a of the replicas of x_i, which is exactly the multilinear part
of He_a((y_{i,1}+...+y_{i,K})/sqrt(K)).  The result q~ is multilinear,
distributed close to q: Var[q~ - q] <= (d^2 / K) Var[q~].
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .polynomials import Polynomial, merge_terms
from .tensors import orbit_size

# With replication K the substituted polynomial has up to ~K^d/prod(alpha!)
# monomials per input monomial; the default cap keeps that expansion sane.
DEFAULT_K_CAP = 1_000_000
DEFAULT_TERM_CAP = 4000


def replication_count(d: int, delta: float) -> int:
    """K = ceil(d^2 (d/delta)^{3d})."""
    return math.ceil(d * d * (d / delta) ** (3 * d))


def flat_index(i: int, j: int, K: int) -> int:
    """Replica j of original variable i (both 1-based) in the output space."""
    return (i - 1) * K + j


@dataclass
class LinearizeResult:
    poly: Polynomial          # multilinear polynomial over n*K variables
    K: int
    var_bound: float          # certified bound on Var[q~ - q] / Var[q~]


def _monomial_expansion_size(counts: dict[int, int], K: int) -> float:
    size = 1.0
    for a in counts.values():
        size *= math.comb(K, a)
    return size


def linearize(p: Polynomial, delta: float,
              k_cap: int = DEFAULT_K_CAP,
              term_cap: int = DEFAULT_TERM_CAP) -> LinearizeResult:
    from .chaos import to_chaos

    d = p.degree()
    if d == 0:
        return LinearizeResult(Polynomial(p.dim, dict(p.coeffs)), 1, 0.0)
    K = min(replication_count(d, delta), k_cap)

    # substitution acts on the Hermite expansion: the constant mean term is
    # kept, and each Hermite monomial key carries weight orbit * entry
    chaos = to_chaos(p)
    hermite: dict[tuple[int, ...], float] = {(): chaos.mean()}
    for q in range(1, chaos.degree() + 1):
        f = chaos.level(q)
        for key, v in f.coeffs.items():
            hermite[key] = hermite.get(key, 0.0) + orbit_size(key) * v

    # shrink K further if the expansion would blow past the term cap
    def total_terms(K: int) -> float:
        tot = 0.0
        for mono in hermite:
            if mono:
                tot += _monomial_expansion_size(Counter(mono), K)
        return tot

    while K > 2 and total_terms(K) > term_cap:
        K = max(2, K // 2)

    out: dict[tuple[int, ...], float] = {}
    for mono, c in hermite.items():
        counts = Counter(mono)
        vars_ = sorted(counts)
        # He_a(x_i) expands to a!/K^{a/2} * e_a(y_{i,*}), the sum over
        # size-a replica subsets; the constant is its own one term.
        scale = c
        for i in vars_:
            a = counts[i]
            scale *= math.factorial(a) / K ** (a / 2.0)
        per_var = [itertools.combinations(range(1, K + 1), counts[i])
                   for i in vars_]
        replicas = (tuple(sorted(flat_index(i, j, K)
                                 for i, subset in zip(vars_, combo)
                                 for j in subset))
                    for combo in itertools.product(*per_var))
        merge_terms(out, ((key, scale) for key in replicas))

    return LinearizeResult(Polynomial(p.dim * K, out), K, d * d / K)
