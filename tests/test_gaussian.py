import math

import numpy as np
import pytest
from scipy.stats import norm

from ptfcount.polynomials import Polynomial
from ptfcount.gaussian import (
    CountConfig,
    MollifiedIndicator,
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


def test_mollifier_is_a_cdf_like_average():
    # values lie in [0,1] and increase through a linear threshold
    phi = Polynomial(1, {(1,): 1.0})
    m = MollifiedIndicator(phi, 1, 16.0)
    xs = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    vals = m(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert vals[0] < 0.05 and vals[-1] > 0.95
    assert np.all(np.diff(vals) >= -1e-12)


def test_integrate_gaussian_halves_symmetric():
    phi = Polynomial(1, {(1,): 1.0})
    m = MollifiedIndicator(phi, 1, 16.0)
    val, info = integrate_gaussian(m, np.array([[1.0]]), 0.05)
    assert val == pytest.approx(0.5, abs=0.005)


def test_grid_cap_reports_requirement():
    phi = Polynomial(2, {(1, 2): 1.0})
    m = MollifiedIndicator(phi, 2, 32.0)
    with pytest.raises(RuntimeError):
        integrate_gaussian(m, np.eye(2), 0.05, max_grid=100)


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
    assert "mollification" not in res.budget
    assert "mollifier_tail" not in res.budget
    # the boolean counter hands the same polynomial over as one regular leaf
    res = count_boolean(p, 0.05)
    assert res.diagnostics["leaf_kinds"]["regular"] == 1
    assert res.value == pytest.approx(want, abs=1e-9)


def test_qmc_fallback_deterministic():
    p = Polynomial(4, {(1, 2, 3): 0.7, (1, 4): 1.0, (2,): 0.5})
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
