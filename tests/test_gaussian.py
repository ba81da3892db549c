import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0
from scipy.stats import chi2, ncx2, norm

import ptfcount
from ptfcount.polynomials import Polynomial
from ptfcount.gaussian import (
    QMC_LOG2_N,
    QMC_SEED,
    _sobol_normals,
    build_covariance,
    count_gaussian,
    integrate_gaussian,
    quadratic_form,
    round_psd,
    univariate_probability,
)
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
    # Pr[x^2 >= 1] = 2 Phi(-1), exact at rank 1
    p = Polynomial(1, {(): -1.0, (1, 1): 1.0})
    res = count_gaussian(p, 0.05)
    assert res.method == "quadratic_form"
    assert res.value == pytest.approx(2.0 * norm.cdf(-1.0), abs=1e-9)
    # from degree 3 up a repeated variable is integrated as it stands, over
    # the two variables p touches
    res = count_gaussian(Polynomial(2, {(1, 1, 2): 1.0, (): 0.2}), 0.05)
    assert res.diagnostics["quadrature"]["m"] == 2


def test_budget_keys_present():
    res = count_gaussian(Polynomial(3, {(1, 2, 3): 1.0, (): 0.3}), 0.05)
    assert set(res.budget) == {"qmc_resolution", "total"}
    assert res.budget["total"] >= 0.0


def test_round_psd_properties(rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        sigma = a @ a.T
        rounded, info = round_psd(sigma, 1e-12)
        w = np.linalg.eigvalsh(rounded)
        assert w[0] >= -1e-12
        assert np.max(np.abs(rounded - sigma)) <= 1e-11 + info["diag_shift"]


def test_build_covariance_levels():
    a = SymTensor(1, 2, {(1,): 1.0})
    b = SymTensor(1, 2, {(2,): 1.0})
    c = SymTensor(2, 2, {(1, 2): 0.5})
    sig = build_covariance([a, b, c])
    assert sig[0, 0] == pytest.approx(1.0)
    assert sig[0, 1] == pytest.approx(0.0)
    assert sig[0, 2] == pytest.approx(0.0)   # different levels
    assert sig[2, 2] == pytest.approx(1.0)


def test_integrate_gaussian_halves_symmetric():
    phi = Polynomial(1, {(1,): 1.0})
    val, info = integrate_gaussian(phi)
    assert val == pytest.approx(0.5, abs=0.005)


def test_integrate_gaussian_rank_one_closed_form():
    # a polynomial in x2 alone is relabelled to one variable and read off
    # its roots: 2 t^2 + 2 t - 1 has roots (-1 -+ sqrt 3) / 2
    h = Polynomial(2, {(2, 2): 2.0, (2,): 2.0, (): -1.0})
    val, info = integrate_gaussian(h)
    s3 = math.sqrt(3.0)
    want = norm.cdf((-1.0 - s3) / 2.0) + norm.sf((-1.0 + s3) / 2.0)
    assert info["m"] == 1
    assert val == pytest.approx(want, abs=1e-12)
    # x2^3 >= 1 exactly when x2 >= 1
    res = count_gaussian(Polynomial(3, {(2, 2, 2): 1.0, (): -1.0}), 0.05)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(norm.cdf(-1.0), abs=1e-12)


def test_two_inner_polynomials_sobol():
    # y1 y2 has the density K_0(|s|) / pi, so
    # Pr[y1 y2 + 0.3 >= 0] = 1/2 + (1/pi) int_0^0.3 K_0
    want = 0.5 + quad(k0, 0.0, 0.3)[0] / math.pi
    h = Polynomial(2, {(1, 2): 1.0, (): 0.3})
    val, info = integrate_gaussian(h)
    assert info["m"] == 2
    assert val == pytest.approx(want, abs=1e-4)


def test_univariate_probability_square():
    # Pr[Y^2 >= 1] = 2 Phi(-1)
    h = Polynomial(1, {(1, 1): 1.0, (): -1.0})
    assert univariate_probability(h, 1.0) == pytest.approx(
        2.0 * norm.cdf(-1.0), abs=1e-12)


def test_one_inner_polynomial_closed_form():
    # x_1 + ... + x_n - t is a rank-1 quadratic form: Phi(-t / sqrt n)
    n, t = 1700, 17
    p = Polynomial(n, {(i,): 1.0 for i in range(1, n + 1)})
    p.coeffs[()] = -float(t)
    want = norm.cdf(-t / math.sqrt(n))
    res = count_gaussian(p, 0.05)
    assert res.method == "quadratic_form"
    assert res.value == pytest.approx(want, abs=1e-9)
    # the boolean counter hands the same polynomial over as one regular leaf
    res = count_boolean(p, 0.05)
    assert res.diagnostics["leaf_kinds"]["regular"] == 1
    assert res.value == pytest.approx(want, abs=1e-9)
    # 30 disjoint triple products minus 1: the CLT limit Phi(-1/sqrt 30) =
    # 0.4276 is 0.007 off the probability, which Monte Carlo measures
    k = 30
    p = Polynomial(3 * k, {(3 * i + 1, 3 * i + 2, 3 * i + 3): 1.0
                           for i in range(k)})
    p.coeffs[()] = -1.0
    res = count_gaussian(p, 0.05)
    mc = mc_gaussian(p, 10 ** 6)
    assert abs(res.value - mc.value) <= 0.05


def test_qmc_fallback_deterministic():
    for p in [Polynomial(4, {(1, 2, 3): 0.7, (1, 4): 1.0, (2,): 0.5}),
              Polynomial(3, {(1, 2, 3): 1.0, (1,): 1.0, (): 0.2})]:
        r1 = count_gaussian(p, 0.05)
        r2 = count_gaussian(p, 0.05)
        assert r1.value == r2.value
        assert r1.method == "qmc"
        assert r1.diagnostics["quadrature"]["m"] >= 2


@pytest.mark.parametrize("m", [2, 8])
def test_sobol_normals_match_one_draw(m):
    # the chunked fill gives the points of a single full draw, bit for bit
    from scipy.special import ndtri
    from scipy.stats import qmc
    u = qmc.Sobol(d=m, scramble=True, seed=QMC_SEED).random(1 << QMC_LOG2_N)
    want = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    table = _sobol_normals(m)
    assert table.shape == want.shape == (1 << QMC_LOG2_N, m)
    assert np.array_equal(table.view(np.uint64), want.view(np.uint64))


def test_sobol_normals_layout():
    table = _sobol_normals(3)
    assert table.flags.f_contiguous
    assert not table.flags.writeable
    assert _sobol_normals(3) is table


def test_qmc_answers_independent_of_call_history():
    # crit5-5, crit5-7 and crit5-23 of the criterion-5 stream: Sobol on
    # m = 6, 7 and 8 variables
    rng = np.random.default_rng(1005)
    stream = [random_polynomial(rng, d=[2, 3, 4][j % 3], n=8, terms=6,
                                multilinear=(j % 2 == 0)) for j in range(24)]
    polys = [stream[i] for i in (5, 7, 23)]

    def answers(order):
        out = {}
        for i in order:
            res = count_gaussian(polys[i], 0.05)
            assert res.method == "qmc"
            out[i] = res.value.hex()
        return out

    forward = answers([0, 1, 2])
    assert answers([2, 1, 0]) == forward
    _sobol_normals.cache_clear()
    assert answers([0, 1, 2]) == forward


def test_random_corpus_vs_mc(rng):
    for i in range(6):
        d = [2, 3, 4][i % 3]
        p = random_polynomial(rng, d=d, n=6, multilinear=(i % 2 == 0))
        res = count_gaussian(p, 0.05)
        mc = mc_gaussian(p, 300_000, seed=50 + i)
        assert abs(res.value - mc.value) <= 0.05 + 4 * mc.stderr


@pytest.mark.parametrize("i", [5, 8])
def test_criterion_5_stream_members(i):
    # members the paper's decomposition route missed by 0.098 (i = 5) and
    # 0.068 (i = 8): it took a level-4 inner polynomial at eigenregularity
    # 0.1 for Gaussian
    rng = np.random.default_rng(1005)
    stream = [random_polynomial(rng, d=[2, 3, 4][j % 3], n=8, terms=6,
                                multilinear=(j % 2 == 0)) for j in range(9)]
    p = stream[i]
    res = count_gaussian(p, 0.05)
    mc = mc_gaussian(p, 10 ** 6)
    assert abs(res.value - mc.value) <= 0.05 + 4 * mc.stderr


def test_answer_independent_of_blas_threads():
    # an input whose answer once hung on eigh's basis of a degenerate
    # eigenspace, and so on the BLAS thread count
    code = ("from ptfcount.polynomials import Polynomial\n"
            "from ptfcount.gaussian import count_gaussian\n"
            "p = Polynomial(8, {(1, 1, 1): 1.0, (2,): 1.3275, (2, 4): 0.2357,"
            " (5, 5): -1.4422, (6, 6): -0.6196, (8,): -0.2541,"
            " (): -0.2905})\n"
            "print(count_gaussian(p, 0.05).value.hex())\n")
    src = str(Path(ptfcount.__file__).resolve().parents[1])
    answers = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        answers.append(out.stdout.strip())
    assert answers[0] == answers[1]


def _sum_squares(n, shift=0.0, sign=1.0, centre=None):
    """sign * sum_i (x_i + centre_i)^2 + shift."""
    centre = centre or [0.0] * n
    coeffs = {(): shift + sign * sum(a * a for a in centre)}
    for i, a in enumerate(centre, start=1):
        coeffs[(i, i)] = sign
        if a:
            coeffs[(i,)] = 2.0 * sign * a
    return Polynomial(n, coeffs)


def _product_plus_normal(t):
    # Pr[x1 x2 + x3 + t >= 0] = E Phi(S + t) with S = x1 x2 of density
    # K_0(|s|) / pi
    f = lambda s: norm.cdf(s + t) * k0(abs(s)) / math.pi  # noqa: E731
    return (quad(f, -np.inf, 0.0, epsabs=1e-13)[0]
            + quad(f, 0.0, np.inf, epsabs=1e-13)[0])


QUADRATIC_ANCHORS = [
    # (name, polynomial, exact Pr[p >= 0])
    ("x1 x2", Polynomial(2, {(1, 2): 1.0}), 0.5),
    ("x1 x2 + 0.3", Polynomial(2, {(1, 2): 1.0, (): 0.3}),
     0.5 + quad(k0, 0.0, 0.3, epsabs=1e-14)[0] / math.pi),
    ("sum_4 x^2 - 5", _sum_squares(4, -5.0), chi2.sf(5.0, 4)),
    ("3 - sum_4 x^2", _sum_squares(4, 3.0, sign=-1.0), chi2.cdf(3.0, 4)),
    ("(x1+1)^2 - 2", _sum_squares(1, -2.0, centre=[1.0]),
     ncx2.sf(2.0, 1, 1.0)),
    ("(x1+1)^2 + (x2-0.5)^2 - 3", _sum_squares(2, -3.0, centre=[1.0, -0.5]),
     ncx2.sf(3.0, 2, 1.25)),
    ("2 - (x1+1)^2 - (x2+1)^2 - x3^2",
     _sum_squares(3, 2.0, sign=-1.0, centre=[1.0, 1.0, 0.0]),
     ncx2.cdf(2.0, 3, 2.0)),
    ("x1 x2 + x3 + 0.3", Polynomial(3, {(1, 2): 1.0, (3,): 1.0, (): 0.3}),
     _product_plus_normal(0.3)),
    # a far-off constant: the Chernoff tail at 0 settles the sign
    ("x1 x2 + 100", Polynomial(2, {(1, 2): 1.0, (): 100.0}), 1.0),
    ("x1 x2 - 100", Polynomial(2, {(1, 2): 1.0, (): -100.0}), 0.0),
]


@pytest.mark.parametrize("name,p,want", QUADRATIC_ANCHORS,
                         ids=[a[0] for a in QUADRATIC_ANCHORS])
def test_quadratic_form_anchors(name, p, want):
    eps = 0.05
    res = count_gaussian(p, eps)
    assert res.method == "quadratic_form"
    bound = res.budget["quadratic_form"]
    assert res.budget["total"] == bound
    assert bound <= eps / 1000.0
    # the certified bound covers the observed error
    assert abs(res.value - want) <= bound + 1e-12
    # and bit-identical on a repeat
    assert count_gaussian(p, eps).value == res.value


def test_quadratic_form_tight_target():
    # eps = 1e-3 asks for a quadrature error of at most 1e-6
    p = Polynomial(2, {(1, 2): 1.0, (): 0.3})
    want = 0.5 + quad(k0, 0.0, 0.3, epsabs=1e-14)[0] / math.pi
    res = count_gaussian(p, 1e-3)
    assert res.method == "quadratic_form"
    assert res.budget["quadratic_form"] <= 1e-6
    assert res.value == pytest.approx(want, abs=1e-6)
    # a far-off constant meets the target without the quadrature
    for c, want in [(100.0, 1.0), (-100.0, 0.0)]:
        res = count_gaussian(Polynomial(2, {(1, 2): 1.0, (): c}), 1e-3)
        assert res.budget["quadratic_form"] <= 1e-6
        assert res.diagnostics["nodes"] == 0
        assert res.value == want


def test_quadratic_form_structure():
    # x1 x2 has eigenvalues +-1/2; x3 lies along A's kernel and pools into
    # s0 with the kernel part of b
    p = Polynomial(3, {(1, 2): 1.0, (3,): 1.0, (1,): 0.5, (2,): 0.5})
    c, lam, beta, s0 = quadratic_form(p)
    assert c == 0.0
    assert sorted(lam) == pytest.approx([-0.5, 0.5], abs=1e-15)
    # b = (0.5, 0.5) lies on the +1/2 eigenvector (1, 1) / sqrt 2
    assert sorted(np.abs(beta)) == pytest.approx([0.0, math.sqrt(0.5)],
                                                 abs=1e-15)
    assert s0 == pytest.approx(1.0, abs=1e-15)
    res = count_gaussian(p, 0.05)
    assert res.diagnostics["m"] == 2
    assert res.diagnostics["s0"] == pytest.approx(1.0, abs=1e-15)
    assert res.diagnostics["nodes"] > 0
    # x_i^2 goes on A's diagonal, so a square with a cross term is rank 1:
    # (x1 + x2)^2 - 1 = 2 y^2 - 1 with y ~ N(0, 1)
    p = Polynomial(2, {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 1.0, (): -1.0})
    res = count_gaussian(p, 0.05)
    assert res.diagnostics["m"] == 1
    assert res.diagnostics["nodes"] == 0
    assert res.value == pytest.approx(2.0 * norm.cdf(-math.sqrt(0.5)),
                                      abs=1e-12)


def test_quadratic_form_vs_mc(rng):
    for i in range(12):
        p = random_polynomial(rng, d=2, n=int(rng.integers(2, 11)),
                              terms=int(rng.integers(2, 12)),
                              multilinear=(i % 2 == 0))
        res = count_gaussian(p, 0.05)
        assert res.budget["quadratic_form"] <= 0.05 / 1000.0
        mc = mc_gaussian(p, 200_000, seed=70 + i)
        assert abs(res.value - mc.value) <= 0.05 + 4 * mc.stderr
        # far tighter in practice: the answer is exact up to 5e-5
        assert abs(res.value - mc.value) <= 5 * mc.stderr + 5e-5
