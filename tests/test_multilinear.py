import itertools
import math

import numpy as np
import pytest

from ptfcount.polynomials import Polynomial
from ptfcount.chaos import to_chaos
from ptfcount.multilinear import linearize, replication_count

from conftest import random_polynomial


def substitute_replicas(p: Polynomial, K: int) -> Polynomial:
    """q(y) = p evaluated at x_i = (y_{i,1}+...+y_{i,K})/sqrt(K), expanded."""
    out: dict[tuple[int, ...], float] = {}
    s = K ** -0.5
    for mono, c in p.coeffs.items():
        for reps in itertools.product(range(1, K + 1), repeat=len(mono)):
            key = tuple(sorted((i - 1) * K + j for i, j in zip(mono, reps)))
            w = c * s ** len(mono)
            out[key] = out.get(key, 0.0) + w
    return Polynomial(p.dim * K, {k: v for k, v in out.items() if v != 0.0})


def test_replication_count_anchor():
    assert replication_count(2, 0.5) == 16384


def test_output_is_multilinear(rng):
    for _ in range(10):
        p = random_polynomial(rng, d=3, n=3)
        res = linearize(p, delta=0.5, k_cap=8)
        assert all(len(set(k)) == len(k) for k in res.poly.coeffs)


def test_already_multilinear_no_gap(rng):
    p = random_polynomial(rng, d=3, n=4, multilinear=True)
    K = 4
    res = linearize(p, delta=0.5, k_cap=K)
    diff = substitute_replicas(p, K).add(res.poly, -1.0)
    assert to_chaos(diff).variance() == pytest.approx(0.0, abs=1e-10)
    assert to_chaos(diff).mean() == pytest.approx(0.0, abs=1e-12)


def test_square_gap_anchor():
    # p = x1^2: the removed diagonal is (1/K) sum (y_j^2 - 1), variance 2/K
    K = 8
    p = Polynomial(1, {(1, 1): 1.0})
    res = linearize(p, delta=0.5, k_cap=K)
    diff = substitute_replicas(p, K).add(res.poly, -1.0)
    assert to_chaos(diff).variance() == pytest.approx(2.0 / K, rel=1e-10)


def test_var_gap_bound(rng):
    for _ in range(20):
        p = random_polynomial(rng, d=3, n=3, terms=4)
        K = 4
        res = linearize(p, delta=0.5, k_cap=K)
        gap = to_chaos(substitute_replicas(p, K).add(res.poly, -1.0)
                       ).variance()
        qvar = to_chaos(res.poly).variance()
        d = max(p.degree(), 1)
        assert gap <= d * d / K * qvar + 1e-9


def test_distribution_preserved(rng):
    # mean and variance of the substituted polynomial match the original
    for _ in range(10):
        p = random_polynomial(rng, d=3, n=3, terms=4)
        res = linearize(p, delta=0.5, k_cap=4)
        orig = to_chaos(p)
        sub = to_chaos(substitute_replicas(p, 4))
        assert sub.mean() == pytest.approx(orig.mean(), abs=1e-10)
        assert sub.variance() == pytest.approx(orig.variance(), rel=1e-10)


def test_term_cap_halves_K():
    p = Polynomial(1, {(1, 1): 1.0})
    res = linearize(p, delta=0.5, term_cap=100)
    # C(K,2) <= 100 forces K down
    assert res.K * (res.K - 1) // 2 <= 100


def test_var_bound_field():
    p = Polynomial(1, {(1, 1, 1): 1.0})
    res = linearize(p, delta=0.5, k_cap=16)
    assert res.var_bound == pytest.approx(9.0 / res.K)


def test_constant_input_is_copied():
    # d = 0 skips the replication, whose variance bound divides by K
    p = Polynomial(3, {(): 2.0})
    res = linearize(p, 0.5)
    assert res.K == 1
    assert res.var_bound == 0.0
    assert res.poly.coeffs == {(): 2.0}
    res.poly.coeffs[()] = 5.0
    res.poly.coeffs[(1,)] = 1.0
    assert p.coeffs == {(): 2.0}
