import numpy as np
import pytest

from ptfcount.polynomials import Polynomial
from ptfcount.boolean import (
    _enumerate_support,
    construct_tree,
    count_boolean,
    derive_tau,
    influences,
)
from ptfcount.oracles import enumerate_boolean

from conftest import random_polynomial


def test_influence_anchors():
    assert influences(Polynomial(2, {(1, 2): 1.0}))[1] == pytest.approx(1.0)
    p = Polynomial(2, {(1,): 2 ** -0.5, (2,): 2 ** -0.5})
    assert influences(p)[1] == pytest.approx(0.5)
    p = Polynomial(3, {(1, 2): 1.0, (2, 3): 2.0})
    assert influences(p)[2] == pytest.approx(5.0)


def test_influences_sum():
    p = Polynomial(3, {(1, 2): 1.0, (2, 3): 2.0, (): 7.0})
    infs = influences(p)
    assert infs == {1: 1.0, 2: 5.0, 3: 4.0}


def test_anchor_majority_of_three():
    p = Polynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})
    assert count_boolean(p, 0.05).value == pytest.approx(0.5, abs=1e-12)


def test_anchor_pairs():
    p = Polynomial(3, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    assert count_boolean(p, 0.05).value == pytest.approx(0.25, abs=1e-12)


def test_square_terms_reduce():
    # x^2 = 1 on the hypercube
    p = Polynomial(2, {(1, 1): 1.0, (2,): 1.0, (): -1.5})
    truth = float(enumerate_boolean(p))
    assert count_boolean(p, 0.05).value == pytest.approx(truth, abs=1e-12)


def test_constant():
    assert count_boolean(Polynomial(1, {(): -1.0})).value == 0.0
    assert count_boolean(Polynomial(1, {(): 1.0})).value == 1.0


def test_tree_decided_leaf():
    # large constant dominates: single decided leaf
    p = Polynomial(4, {(): 10.0, (1, 2): 1.0, (3, 4): 1.0})
    tree = construct_tree(p, derive_tau(0.05, 2))
    assert len(tree.leaves) == 1
    assert tree.leaves[0].kind == "decided"
    assert tree.leaves[0].value == 1.0


def test_fail_mass_reported():
    # a random n = 30 chain sum g_i x_i + sum g'_i x_i x_{i+1} outgrows the
    # leaf cap before its leaves are small or regular
    rng = np.random.default_rng(0)
    n = 30
    g = rng.normal(size=n)
    g2 = rng.normal(size=n - 1)
    coeffs = {(i,): float(g[i - 1]) for i in range(1, n + 1)}
    coeffs.update({(i, i + 1): float(g2[i - 1]) for i in range(1, n)})
    res = count_boolean(Polynomial(n, coeffs), 0.05)
    assert res.budget["fail_mass"] > 0.0
    assert res.budget["total"] >= res.budget["fail_mass"]


def test_wide_corpus_vs_enumeration(rng):
    for i in range(12):
        d = [1, 2, 3][i % 3]
        n = int(rng.integers(6, 19))
        p = random_polynomial(rng, d=d, n=n, terms=8, multilinear=True)
        res = count_boolean(p, 0.05)
        truth = float(enumerate_boolean(p))
        assert abs(res.value - truth) <= 0.05


def test_budget_total_bounds_actual_error(rng):
    for i in range(6):
        p = random_polynomial(rng, d=2, n=14, terms=10, multilinear=True)
        res = count_boolean(p, 0.05)
        truth = float(enumerate_boolean(p))
        assert abs(res.value - truth) <= res.budget["total"] + 1e-9


def _random_on_support(rng, support, dim, terms):
    """Random multilinear polynomial of degree <= 3 touching every var in
    support."""
    support = list(support)
    coeffs = {(): float(rng.normal())}
    for i in support:
        coeffs[(i,)] = float(rng.normal())
    for _ in range(terms):
        q = int(rng.integers(2, min(3, len(support)) + 1)) \
            if len(support) >= 2 else 1
        key = tuple(sorted(int(v) for v in rng.choice(support, size=q,
                                                      replace=False)))
        coeffs[key] = coeffs.get(key, 0.0) + float(rng.normal())
    return Polynomial(dim, coeffs)


def test_enumerate_support_matches_direct_evaluation(rng):
    # supports drawn from 1..m+2, so most are not contiguous; dim > m
    supports = [sorted(rng.choice(np.arange(1, m + 3), size=m,
                                  replace=False).tolist())
                for m in range(1, 17)]
    for support in supports + [[2, 5, 9, 11, 17]]:
        m = len(support)
        p = _random_on_support(rng, support, max(support) + 3, terms=2 * m)
        assert len(p.support_vars()) == m
        assert _enumerate_support(p) == float(enumerate_boolean(p))


def test_enumerate_support_exact_zero_ties():
    # p(x) = 0 counts as p >= 0
    p = Polynomial(4, {(1,): 1.0, (2,): 1.0, (3,): 1.0, (4,): 1.0})
    assert _enumerate_support(p) == 11 / 16
    p = Polynomial(4, {(1, 2): 1.0, (3, 4): 1.0})
    assert _enumerate_support(p) == 3 / 4
    assert _enumerate_support(Polynomial(3, {(): 0.0})) == 1.0


def test_enumerate_support_squares_cancel():
    # x1^2 x2 = x2 on the hypercube
    p = Polynomial(2, {(1, 1, 2): 1.0, (2,): 1.0, (): -1.5})
    assert _enumerate_support(p) == 1 / 2 == float(enumerate_boolean(p))


def test_enumerate_support_deterministic(rng):
    p = _random_on_support(rng, range(1, 15), 14, terms=40)
    assert _enumerate_support(p) == _enumerate_support(p)


def test_dense_n18_settles_at_depth_two(rng):
    n = 18
    coeffs = {(): float(rng.normal())}
    for i in range(1, n + 1):
        coeffs[(i,)] = float(rng.normal())
        for j in range(i + 1, n + 1):
            coeffs[(i, j)] = float(rng.normal())
    p = Polynomial(n, coeffs)
    res = count_boolean(p, 0.05)
    assert res.diagnostics["leaf_kinds"]["enumerated"] == 4
    assert res.diagnostics["leaves"] == 4
    assert res.diagnostics["depth"] == 2
    assert res.value == float(enumerate_boolean(p))
