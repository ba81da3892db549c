import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0
from scipy.stats import norm

from ptfcount.polynomials import Polynomial
from ptfcount.gaussian import (
    CountConfig,
    build_covariance,
    coefficient_grid,
    count_gaussian,
    integrate_gaussian,
    round_coefficients,
    round_psd,
    univariate_probability,
)
from ptfcount.decomposition import InnerPoly
from ptfcount.tensors import SymTensor
from ptfcount.boolean import count_boolean
from ptfcount.oracles import mc_gaussian

from conftest import random_polynomial


def test_constant_polynomials():
    assert count_gaussian(Polynomial(1, {(): 2.0})).value == 1.0
    assert count_gaussian(Polynomial(1, {(): -2.0})).value == 0.0


def test_linear_anchor():
    p = Polynomial(2, {(): 0.5, (1,): 1.0})
    res = count_gaussian(p, 0.05)
    assert res.value == pytest.approx(norm.cdf(0.5), abs=0.01)


def test_product_anchor():
    res = count_gaussian(Polynomial(2, {(1, 2): 1.0}), 0.05)
    assert res.value == pytest.approx(0.5, abs=0.01)


def test_square_anchor():
    # Pr[x^2 >= 1] = 2 (1 - Phi(1))
    p = Polynomial(1, {(): -1.0, (1, 1): 1.0})
    res = count_gaussian(p, 0.05)
    assert res.value == pytest.approx(0.3173, abs=0.05)
    assert "linearize_var_ratio" in res.budget


def test_budget_keys_present():
    res = count_gaussian(Polynomial(2, {(1, 2): 1.0, (): 0.3}), 0.05)
    assert "total" in res.budget
    assert "decomposition_var_gap" in res.budget
    assert res.budget["total"] >= 0.0


def test_round_psd_properties(rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T
        rounded, info = round_psd(sigma, 1e-12)
        w = np.linalg.eigvalsh(rounded)
        assert w[0] >= -1e-12
        assert np.max(np.abs(rounded - sigma)) <= 1e-11 + info["diag_shift"]


def test_round_coefficients_small_grid():
    h = Polynomial(2, {(1,): 0.123456789, (1, 2): -0.5})
    out, grid = round_coefficients(h, 0.05, 2, 2)
    assert grid == pytest.approx(coefficient_grid(0.05, 2, 2))
    for k, v in out.coeffs.items():
        assert abs(v - h.coeffs[k]) <= grid / 2 + 1e-15


def test_build_covariance_levels():
    a = InnerPoly(1, SymTensor(1, 2, {(1,): 1.0}))
    b = InnerPoly(1, SymTensor(1, 2, {(2,): 1.0}))
    c = InnerPoly(2, SymTensor(2, 2, {(1, 2): 0.5}))
    sig = build_covariance([a, b, c])
    assert sig[0, 0] == pytest.approx(1.0)
    assert sig[0, 1] == pytest.approx(0.0)
    assert sig[0, 2] == pytest.approx(0.0)   # different levels
    assert sig[2, 2] == pytest.approx(1.0)


def test_integrate_gaussian_halves_symmetric():
    phi = Polynomial(1, {(1,): 1.0})
    val, info = integrate_gaussian(phi, np.array([[1.0]]), 17, 0)
    assert val == pytest.approx(0.5, abs=0.005)


def test_integrate_gaussian_rank_one_closed_form():
    # y1 + y2 - 1 with y1 = y2 ~ N(0, 1) is 2 t - 1: Pr = Phi(-1/2)
    h = Polynomial(2, {(1,): 1.0, (2,): 1.0, (): -1.0})
    val, info = integrate_gaussian(h, np.array([[1.0, 1.0], [1.0, 1.0]]),
                                   17, 0)
    assert info["rank"] == 1
    assert val == pytest.approx(norm.cdf(-0.5), abs=1e-12)
    # y1 y2 + y2 - 1 with y2 = 2 y1 = 2 t is 2 t^2 + 2 t - 1, whose roots
    # are (-1 -+ sqrt 3) / 2
    h = Polynomial(2, {(1, 2): 1.0, (2,): 1.0, (): -1.0})
    val, info = integrate_gaussian(h, np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   17, 0)
    s3 = math.sqrt(3.0)
    want = norm.cdf((-1.0 - s3) / 2.0) + norm.sf((-1.0 + s3) / 2.0)
    assert info["rank"] == 1
    assert val == pytest.approx(want, abs=1e-12)


def test_two_inner_polynomials_sobol():
    # x1 x2 has the density K_0(|s|) / pi, so
    # Pr[x1 x2 + 0.3 >= 0] = 1/2 + (1/pi) int_0^0.3 K_0
    want = 0.5 + quad(k0, 0.0, 0.3)[0] / math.pi
    res = count_gaussian(Polynomial(2, {(1, 2): 1.0, (): 0.3}), 0.05)
    assert res.method == "qmc"
    assert res.diagnostics["r"] == 2
    assert res.value == pytest.approx(want, abs=1e-4)


def test_univariate_probability_square():
    # Pr[Y^2 >= 1] = 2 Phi(-1)
    h = Polynomial(1, {(1, 1): 1.0, (): -1.0})
    assert univariate_probability(h, 1.0) == pytest.approx(
        2.0 * norm.cdf(-1.0), abs=1e-12)


def test_one_inner_polynomial_closed_form():
    # x_1 + ... + x_n - t decomposes to one Gaussian inner polynomial
    n, t = 1700, 17
    p = Polynomial(n, {(i,): 1.0 for i in range(1, n + 1)})
    p.coeffs[()] = -float(t)
    want = norm.cdf(-t / math.sqrt(n))
    res = count_gaussian(p, 0.05)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(want, abs=1e-9)
    # h and Sigma are rounded only from two inner polynomials up
    assert "coefficient_rounding" not in res.budget
    assert "covariance_rounding" not in res.budget
    # the boolean counter hands the same polynomial over as one regular leaf
    res = count_boolean(p, 0.05)
    assert res.diagnostics["leaf_kinds"]["regular"] == 1
    assert res.value == pytest.approx(want, abs=1e-9)


def test_qmc_fallback_deterministic():
    for p in [Polynomial(4, {(1, 2, 3): 0.7, (1, 4): 1.0, (2,): 0.5}),
              Polynomial(2, {(1, 2): 1.0, (): 0.3})]:
        r1 = count_gaussian(p, 0.05)
        r2 = count_gaussian(p, 0.05)
        assert r1.value == r2.value
        assert r1.method == "qmc"


def test_random_corpus_vs_mc(rng):
    for i in range(6):
        d = [2, 3, 4][i % 3]
        p = random_polynomial(rng, d=d, n=6, multilinear=(i % 2 == 0))
        res = count_gaussian(p, 0.05)
        mc = mc_gaussian(p, 300_000, seed=50 + i)
        assert abs(res.value - mc.value) <= 0.05 + 4 * mc.stderr
