"""Seeded input corpora for the four workloads.

Every workload is one *round*: a fixed list of operations that a run repeats
whole.  An operation is a dict holding the entry point to call, the
polynomial (``dim`` and a list of ``[monomial, coefficient]`` terms, with
1-based variable indices and repetition for powers), the accuracy ``eps``,
``k`` for moments, and ``ref``, which names how the benchmark's own reference
is computed.  Nothing here imports ptfcount.

Part of each round is drawn from ``--seed``; the rest is fixed, so that it
does not depend on the seed:

* inputs that the program gets wrong every time (the decomposition fault
  described in README.md), kept so that ``failed`` shows it;
* degree-3/4 Gaussian inputs and the non-multilinear Gaussian inputs, which
  hit that fault on a seed-dependent share of random draws.  Drawing them
  from the seed would make the failed share differ from seed to seed.

Seeded inputs keep their monomials fixed per slot (drawn once from
STRUCTURE_SEED) and draw every coefficient from the seed.  Which monomials
an input has sets most of its cost (how many inner polynomials, how large a
tree), so a round does about the same work whatever the seed, while the
program still sees new polynomials.
"""

from __future__ import annotations

import itertools

import numpy as np

EPS = 0.05

# The criterion-5 generator stream of the acceptance tests: seed 1005, n=8,
# six random terms, d = [2, 3, 4][i % 3], multilinear for even i, from i=0.
CRIT5_SEED = 1005
CRIT5_LEN = 30
# Multilinear degree-3/4 members; i=8 is the input the decomposition fault
# gets wrong by ~0.07 at any eps.
CRIT5_MULTILINEAR = (2, 4, 8, 10, 14, 16, 20, 22, 26, 28)
# Non-multilinear members that linearize replicates (odd i whose monomials
# repeat a variable), with K = 15, 7, 7, 3, 30 and r = 9, 9, 33, 19, 3.
# i=5 misses its reference by ~0.1 every time.  The other five (i=11, 17,
# 21, 25, 29; 1-16 s each) are left out so that a run holds five or more
# rounds: the median latency of a round this small is one input's time.
CRIT5_REPLICATED = (1, 5, 7, 23, 27)

STRUCTURE_SEED = 20131128
GAUSS_D2_SLOTS = 72
MOMENT_SLOTS = 54
BOOLEAN_MIDDLE_SLOTS = 7

WORKLOADS = ("gauss-multilinear", "gauss-replicated", "boolean-tree",
             "moments")


def random_poly(rng: np.random.Generator, d: int, n: int, terms: int,
                multilinear: bool) -> dict[tuple[int, ...], float]:
    """The test suite's random_polynomial, draw for draw."""
    coeffs: dict[tuple[int, ...], float] = {(): float(rng.normal()) * 0.3}
    for _ in range(terms):
        q = int(rng.integers(1, d + 1))
        if multilinear:
            q = min(q, n)
            key = tuple(sorted(rng.choice(np.arange(1, n + 1), size=q,
                                          replace=False).tolist()))
        else:
            key = tuple(sorted(rng.integers(1, n + 1, size=q).tolist()))
        coeffs[key] = coeffs.get(key, 0.0) + float(rng.normal())
    coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
    if not any(k for k in coeffs):
        coeffs[(1,)] = 1.0
    return coeffs


def dense_poly(rng: np.random.Generator, d: int, n: int
               ) -> dict[tuple[int, ...], float]:
    """Every multilinear monomial of degree <= d, N(0,1) coefficients."""
    coeffs: dict[tuple[int, ...], float] = {(): float(rng.normal()) * 0.3}
    for q in range(1, d + 1):
        for key in itertools.combinations(range(1, n + 1), q):
            coeffs[key] = float(rng.normal())
    return coeffs


def _op(call: str, ref: str, dim: int, coeffs: dict, label: str,
        **extra) -> dict:
    terms = [[list(k), float(v)] for k, v in coeffs.items()]
    return {"call": call, "ref": ref, "dim": dim, "terms": terms,
            "eps": EPS, "label": label, **extra}


def _crit5_stream() -> list[dict[tuple[int, ...], float]]:
    rng = np.random.default_rng(CRIT5_SEED)
    return [random_poly(rng, [2, 3, 4][i % 3], 8, 6, i % 2 == 0)
            for i in range(CRIT5_LEN)]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def reseeded(coeffs: dict[tuple[int, ...], float],
             rng: np.random.Generator) -> dict[tuple[int, ...], float]:
    """The same monomials with fresh coefficients, drawn as random_poly
    draws them."""
    return {k: float(rng.normal()) * (0.3 if not k else 1.0)
            for k in coeffs}


def gauss_multilinear(seed: int) -> list[dict]:
    stream = _crit5_stream()
    ops = [_op("count_gaussian", "mc", 8, stream[i], f"crit5-{i}")
           for i in CRIT5_MULTILINEAR]
    shape = _rng(STRUCTURE_SEED, "gauss-multilinear")
    rng = _rng(seed, "gauss-multilinear")
    for j in range(GAUSS_D2_SLOTS):
        n, terms = 8 + j % 9, 6 + j % 7
        ops.append(_op("count_gaussian", "mc", n,
                       reseeded(random_poly(shape, 2, n, terms, True), rng),
                       f"d2-{j}-n{n}-t{terms}"))
    return ops


def gauss_replicated(seed: int) -> list[dict]:
    # Non-multilinear draws of this family hit the decomposition fault on a
    # seed-dependent share, so the round is fixed and the seed only rotates
    # its order.
    stream = _crit5_stream()
    ops = [_op("count_gaussian", "mc", 8, stream[i], f"crit5-{i}")
           for i in CRIT5_REPLICATED]
    shift = seed % len(ops)
    return ops[shift:] + ops[:shift]


def boolean_tree(seed: int) -> list[dict]:
    shape = _rng(STRUCTURE_SEED, "boolean-tree")
    rng = _rng(seed, "boolean-tree")
    ops = []
    # The median latency of a round is that of its middle operations.  Seven
    # dense n = 18 quadratics of about the same cost sit in the middle of
    # the cost order, with seven cheaper and eight dearer inputs around
    # them, so the median is taken within that block and not across a gap
    # between two inputs of different cost.
    for d, n in ((2, 22), (2, 20), (2, 20), (3, 18), (1, 22), (1, 18)):
        ops.append(_op("count_boolean", "enumerate", n, dense_poly(rng, d, n),
                       f"dense-d{d}-n{n}"))
    for j in range(BOOLEAN_MIDDLE_SLOTS):
        ops.append(_op("count_boolean", "enumerate", 18,
                       dense_poly(rng, 2, 18), f"dense-d2-n18-{j}"))
    for d, n in ((3, 18), (1, 20), (2, 20), (3, 20), (1, 22), (2, 22),
                 (3, 22)):
        ops.append(_op("count_boolean", "enumerate", n,
                       reseeded(random_poly(shape, d, n, n, True), rng),
                       f"sparse-d{d}-n{n}"))
    for _ in range(2):
        # sum x_i - t settles at one regular leaf once 1/n <= tau
        n = int(rng.integers(1600, 2401))
        t = int(round(float(rng.uniform(-1.0, 1.0)) * n ** 0.5))
        coeffs = {(i,): 1.0 for i in range(1, n + 1)}
        if t:
            coeffs[()] = float(-t)
        ops.append(_op("count_boolean", "binomial", n, coeffs,
                       f"majority-n{n}", threshold=t))
    return ops


def moments(seed: int) -> list[dict]:
    # the criterion-7 family: seven random multilinear terms
    shape = _rng(STRUCTURE_SEED, "moments")
    rng = _rng(seed, "moments")
    ops = []
    for j in range(MOMENT_SLOTS):
        d, k, n = 1 + j % 3, 1 + (j // 3) % 3, 8 + j % 11
        ops.append(_op("absolute_moment", "moment", n,
                       reseeded(random_poly(shape, d, n, 7, True), rng),
                       f"d{d}-k{k}-n{n}", k=k))
    return ops


BUILDERS = {
    "gauss-multilinear": gauss_multilinear,
    "gauss-replicated": gauss_replicated,
    "boolean-tree": boolean_tree,
    "moments": moments,
}


def build(workload: str, seed: int) -> list[dict]:
    return BUILDERS[workload](seed)
