import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptfcount.tensors import (
    _DENSE_SVD_CAP,
    SymTensor,
    contract_sym,
    eigenregularity,
    flattening,
    inner,
    lambda_max,
    orbit_size,
    sub_multisets,
)
from ptfcount.oracles import brute_lambda_max


def test_orbit_sizes():
    assert orbit_size(()) == 1
    assert orbit_size((1,)) == 1
    assert orbit_size((1, 2)) == 2
    assert orbit_size((1, 1)) == 1
    assert orbit_size((1, 2, 3)) == 6
    assert orbit_size((1, 1, 2)) == 3


def test_sub_multisets():
    subs = dict(sub_multisets((1, 1, 2), 1))
    assert subs == {(1,): (1, 2), (2,): (1, 1)}
    subs = dict(sub_multisets((1, 2), 2))
    assert subs == {(1, 2): ()}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), max_size=8))
@example([1, 1, 2, 4, 4, 4, 4])
def test_sub_multisets_lexicographic_order(key):
    # Contractions, flattenings and partition terms sum in this order, so
    # it is pinned: the distinct sub-multisets in sorted order, each with
    # its complement.  In (1, 1, 2, 4, 4, 4, 4) equal combinations are not
    # adjacent: at r = 2, (1, 2) recurs after (1, 4).
    import itertools
    from collections import Counter
    key = tuple(sorted(key))
    for r in range(len(key) + 2):
        want = [(u, tuple(sorted((Counter(key) - Counter(u)).elements())))
                for u in sorted(set(itertools.combinations(key, r)))]
        got = sub_multisets(key, r)
        assert got == want
        if r > len(key):
            assert got == []


def test_norm_orbit_weighting():
    f = SymTensor(2, 3, {(1, 2): 1.0, (3, 3): 2.0})
    # off-diagonal key counts twice, diagonal once
    assert f.norm_sq() == pytest.approx(2.0 + 4.0)


def test_inner_matches_dense(rng):
    for _ in range(20):
        q = int(rng.integers(1, 4))
        n = 4
        fa = _random_tensor(rng, q, n)
        fb = _random_tensor(rng, q, n)
        dense = float(np.sum(fa.to_dense() * fb.to_dense()))
        assert inner(fa, fb) == pytest.approx(dense, abs=1e-10)


def _random_tensor(rng, q, n, keys=5, multilinear=False):
    coeffs = {}
    for _ in range(keys):
        if multilinear and q <= n:
            key = tuple(sorted(rng.choice(np.arange(1, n + 1), size=q,
                                          replace=False).tolist()))
        else:
            key = tuple(sorted(rng.integers(1, n + 1, size=q).tolist()))
        coeffs[key] = float(rng.normal())
    return SymTensor(q, n, coeffs)


def _dense_contract(a, b, r):
    """Brute-force contraction over the last r axes of a and first r of b."""
    da, db = a.to_dense(), b.to_dense()
    axes_a = list(range(a.order - r, a.order))
    axes_b = list(range(r))
    return np.tensordot(da, db, axes=(axes_a, axes_b))


def test_contract_matches_dense(rng):
    for _ in range(15):
        qa = int(rng.integers(1, 4))
        qb = int(rng.integers(1, 4))
        r = int(rng.integers(0, min(qa, qb) + 1))
        fa = _random_tensor(rng, qa, 3)
        fb = _random_tensor(rng, qb, 3)
        got = contract_sym(fa, fb, r)
        want = _dense_contract(fa, fb, r)
        if got.order == 0:
            assert got.coeffs.get((), 0.0) == pytest.approx(float(want),
                                                            abs=1e-9)
        else:
            sym_want = np.zeros_like(want)
            import itertools
            for perm in itertools.permutations(range(want.ndim)):
                sym_want += np.transpose(want, perm)
            sym_want /= math.factorial(want.ndim)
            assert np.allclose(got.to_dense(), sym_want, atol=1e-9)


def test_flattening_frobenius(rng):
    for _ in range(10):
        q = int(rng.integers(2, 5))
        f = _random_tensor(rng, q, 4)
        for k in range(1, q):
            fl = flattening(f, k)
            frob = np.linalg.norm(fl.matrix.toarray()
                                  if hasattr(fl.matrix, "toarray")
                                  else fl.matrix)
            assert frob == pytest.approx(math.sqrt(f.norm_sq()), rel=1e-9)


def test_lambda_max_anchor_rank_one():
    f = SymTensor(2, 2, {(1, 1): 1.0})
    assert lambda_max(f).value == pytest.approx(1.0, abs=1e-10)


def test_lambda_max_anchor_half():
    f = SymTensor(2, 2, {(1, 2): 0.5})
    assert lambda_max(f).value == pytest.approx(0.5, abs=1e-10)


def test_lambda_max_identity_blocks():
    n = 8
    f = SymTensor(2, n, {(i, i): 1.0 / math.sqrt(2 * n)
                         for i in range(1, n + 1)})
    assert lambda_max(f).value == pytest.approx(0.25, abs=1e-10)


def test_lambda_max_vs_brute(rng):
    for _ in range(30):
        q = int(rng.integers(2, 5))
        f = _random_tensor(rng, q, 4)
        got = lambda_max(f).value
        want = brute_lambda_max(f)
        assert got == pytest.approx(want, abs=1e-6)


def test_lambda_max_sparse_svd_vs_brute():
    # a 600 x 600 flattening, above _DENSE_SVD_CAP: the sparse top-singular
    # solve, not the dense SVD, gives lambda_max
    f = _random_tensor(np.random.default_rng(3), 2, 600, keys=3000,
                       multilinear=True)
    rows, cols = flattening(f, 1).matrix.shape
    assert min(rows, cols) >= 3 and rows * cols > _DENSE_SVD_CAP
    assert lambda_max(f).value == pytest.approx(brute_lambda_max(f),
                                                rel=1e-9)


def test_eigenregularity_scale_invariant(rng):
    f = _random_tensor(rng, 3, 4)
    assert eigenregularity(f.scale(7.0)) == pytest.approx(
        eigenregularity(f), rel=1e-10)


def test_zero_diagonal():
    f = SymTensor(2, 2, {(1, 1): 1.0, (1, 2): 2.0})
    z = f.zero_diagonal()
    assert (1, 1) not in z.coeffs
    assert z.coeffs[(1, 2)] == 2.0
    assert z.is_multilinear()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=4))
def test_orbit_size_counts_arrangements(key):
    import itertools
    key = tuple(sorted(key))
    arrangements = set(itertools.permutations(key))
    assert orbit_size(key) == len(arrangements)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0,
                                                          max_value=10))
def test_scale_norm(q, seed):
    rng = np.random.default_rng(seed)
    f = _random_tensor(rng, q, 3)
    assert f.scale(3.0).norm_sq() == pytest.approx(9.0 * f.norm_sq(),
                                                   rel=1e-12)
