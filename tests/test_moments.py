import itertools
import subprocess
import sys

import numpy as np
import pytest

from ptfcount.polynomials import Polynomial
from ptfcount.moments import absolute_moment, exact_raw_moment

from conftest import enum_hypercube_expectation, random_polynomial


def test_exact_raw_moment_anchors():
    p = Polynomial(2, {(1,): 1.0, (2,): 1.0})
    assert exact_raw_moment(p, 2) == pytest.approx(2.0)
    # odd raw moments of a symmetric polynomial vanish
    assert exact_raw_moment(p, 3) == pytest.approx(0.0, abs=1e-12)
    p = Polynomial(2, {(1, 2): 1.0, (): 1.0})
    assert exact_raw_moment(p, 2) == pytest.approx(2.0)


def test_absolute_moment_anchor():
    p = Polynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})
    est = absolute_moment(p, 1, 0.05)
    assert est.value == pytest.approx(1.5, rel=0.05)
    assert est.lower <= 1.5 + 1e-9
    assert est.upper >= 1.5 - 1e-9


def test_even_k_matches_exact(rng):
    for _ in range(5):
        p = random_polynomial(rng, d=2, n=8, multilinear=True)
        est = absolute_moment(p, 2, 0.05)
        want = exact_raw_moment(p, 2)
        assert est.value == pytest.approx(want, rel=0.05)


def test_odd_k_matches_enumeration(rng):
    for _ in range(4):
        p = random_polynomial(rng, d=3, n=9, multilinear=True)
        for k in (1, 3):
            est = absolute_moment(p, k, 0.05)
            want = enum_hypercube_expectation(
                p, fn=lambda v, k=k: np.abs(v) ** k)
            assert est.value == pytest.approx(want, rel=0.05)


def test_bracket_contains_value(rng):
    p = random_polynomial(rng, d=2, n=8, multilinear=True)
    est = absolute_moment(p, 1, 0.05)
    truth = enum_hypercube_expectation(p, fn=np.abs)
    assert est.lower - 1e-9 <= truth <= est.upper + 1e-9


def test_zero_polynomial():
    est = absolute_moment(Polynomial(1, {}), 1)
    assert est.value == 0.0


def test_raw_moment_k_validation():
    with pytest.raises(ValueError):
        exact_raw_moment(Polynomial(1, {(1,): 1.0}), 0)


def _chain(n, seed):
    # sum g_i x_i x_{i+1} + sum h_i x_i + c: touches all n variables
    rng = np.random.default_rng(seed)
    coeffs = {(i, i + 1): float(rng.normal()) for i in range(1, n)}
    coeffs.update({(i,): float(rng.normal()) for i in range(1, n + 1)})
    coeffs[()] = float(rng.normal())
    return Polynomial(n, coeffs)


EXACT_INPUTS = {
    "constant": Polynomial(3, {(): -1.7}),
    "one-variable": Polynomial(1, {(1,): 2.0, (): 0.5}),
    # support {2, 3, 4, 7, 9}; x2^2 reduces to 1
    "gapped": Polynomial(9, {(2, 7): 1.3, (4,): -0.8, (2, 4, 9): 0.6,
                             (2, 2, 3): 0.4, (): 0.2}),
    "dim-above-support": Polynomial(20, {(1,): 1.0, (2, 3): -0.7,
                                         (): 0.1}),
    "sixteen-variables": _chain(16, 3),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(EXACT_INPUTS))
def test_small_support_is_exact(name, k):
    # at most ENUM_VARS variables: one transform, no threshold sweep
    p = EXACT_INPUTS[name]
    est = absolute_moment(p, k, 0.05)
    assert est.lower == est.value == est.upper
    assert est.thresholds == 0
    want = enum_hypercube_expectation(p, fn=lambda v: np.abs(v) ** k)
    assert est.value == pytest.approx(want, rel=1e-12)
    again = absolute_moment(p, k, 0.05)
    assert (again.value.hex(), again.lower.hex(), again.upper.hex()) == (
        est.value.hex(), est.lower.hex(), est.upper.hex())


@pytest.mark.parametrize("k", [1, 3])
def test_wide_support_sweep(k):
    # 18 variables, above ENUM_VARS: the threshold sweep brackets E|p|^k
    rng = np.random.default_rng(7)
    g = rng.normal(size=9)
    coeffs = {(2 * i - 1, 2 * i): float(g[i - 1]) for i in range(1, 10)}
    coeffs[()] = float(rng.normal())
    p = Polynomial(18, coeffs)
    est = absolute_moment(p, k, 0.05)
    assert est.thresholds > 0
    want = enum_hypercube_expectation(p, fn=lambda v: np.abs(v) ** k)
    assert abs(est.value - want) <= 0.05 * want
    assert est.lower <= want <= est.upper


def test_wide_support_second_moment_is_parseval():
    # 20 variables, above ENUM_VARS: E p^2 is the sum of the squared
    # coefficients of the multilinear p, with no threshold sweep
    rng = np.random.default_rng(0)
    coeffs = {(): 0.3}
    for q in (1, 2):
        for key in itertools.combinations(range(1, 21), q):
            coeffs[key] = float(rng.normal())
    p = Polynomial(20, coeffs)
    assert len(p.coeffs) == 211
    est = absolute_moment(p, 2, 0.05)
    assert est.thresholds == 0
    assert est.value == pytest.approx(exact_raw_moment(p, 2), rel=1e-12)
    assert est.lower == est.value == est.upper


def test_small_support_loads_no_scipy():
    # the package imports scipy only where a Gaussian count needs it
    code = ("import sys, ptfcount\n"
            "p = ptfcount.Polynomial(3, {(1, 2): 1.0, (3,): 0.5})\n"
            "ptfcount.absolute_moment(p, 3)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
