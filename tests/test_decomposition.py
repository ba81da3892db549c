import math

import numpy as np
import pytest

from ptfcount.polynomials import Polynomial
from ptfcount.chaos import ChaosDecomposition, to_chaos
from ptfcount.decomposition import (
    decompose_max_iter,
    decompose_one_wiener,
    derandomized_partition,
    make_schedule,
    multi_regularize_many_wieners,
    multi_regularize_one_wiener,
    partition_objective,
    regularize_poly,
    split_one_wiener,
    var_of,
    _partition_terms,
)
from ptfcount.tensors import SymTensor, contract_sym, inner

from conftest import random_polynomial


def _random_unit_tensor(rng, q, n, keys=5):
    coeffs = {}
    for _ in range(keys):
        key = tuple(sorted(rng.choice(np.arange(1, n + 1), size=q,
                                      replace=False).tolist()))
        coeffs[key] = float(rng.normal())
    f = SymTensor(q, n, coeffs)
    v = var_of(f)
    return f.scale(1.0 / math.sqrt(v))


def test_split_anchor_x1x2():
    f = SymTensor(2, 2, {(1, 2): 0.5})  # unit variance
    out = split_one_wiener(f, 0.4)
    assert not out.eigenregular
    assert out.c == pytest.approx(1.0)
    assert var_of(f.add(out.product, -out.c)) == pytest.approx(0.0, abs=1e-12)
    assert out.p.order == 1 and out.q.order == 1


def test_split_eigenregular_contract():
    f = SymTensor(2, 2, {(1, 2): 0.5})
    out = split_one_wiener(f, 0.9)  # lambda = 0.5 < 0.9
    assert out.eigenregular
    assert out.lam == pytest.approx(0.5)


def test_split_c_lower_bound(rng):
    for _ in range(20):
        q = int(rng.integers(2, 5))
        f = _random_unit_tensor(rng, q, 8)
        eta = 0.1
        out = split_one_wiener(f, eta)
        if out.eigenregular:
            continue
        assert out.c >= eta / 2 ** q - 1e-12


def test_split_disjoint_support(rng):
    for _ in range(10):
        f = _random_unit_tensor(rng, 3, 7)
        out = split_one_wiener(f, 0.1)
        if out.eigenregular:
            continue
        sup_p = out.p.support_vars()
        sup_q = out.q.support_vars()
        assert not (sup_p & sup_q)


def test_partition_anchor():
    f = SymTensor(2, 2, {(1, 2): 1.0})
    alpha = SymTensor(1, 2, {(1,): 1.0})
    beta = SymTensor(1, 2, {(2,): 1.0})
    a1, a2 = derandomized_partition(f, alpha, beta)
    assert 1 in a1 and 2 in a2
    assert partition_objective(f, alpha, beta, a1, a2) >= 0.5 - 1e-12


def _random_witnesses(rng, q, support, keys):
    """f, alpha, beta over `support` with alpha/beta keys split off f's."""
    q1 = int(rng.integers(1, q))
    f, alpha, beta = {}, {}, {}
    for _ in range(keys):
        key = sorted(rng.choice(support, size=q).tolist())
        f[tuple(key)] = float(rng.normal())
        cut = rng.permutation(q)
        alpha[tuple(sorted(key[i] for i in cut[:q1]))] = float(rng.normal())
        beta[tuple(sorted(key[i] for i in cut[q1:]))] = float(rng.normal())
    n = max(support)
    return (SymTensor(q, n, f), SymTensor(q1, n, alpha),
            SymTensor(q - q1, n, beta))


def test_partition_meets_coin_flip_average(rng):
    # conditional expectations never fall below the average over fair
    # coin flips: sum of w 2^-|vars| over the objective's terms
    sizes = [int(rng.integers(2, 17)) for _ in range(60)] + [24]
    for nv in sizes:
        q = int(rng.integers(2, 5))
        support = rng.choice(np.arange(1, 41), size=nv, replace=False)
        f, alpha, beta = _random_witnesses(rng, q, support,
                                           keys=int(rng.integers(2, 30)))
        terms = _partition_terms(f, alpha, beta)
        average = sum(w * 0.5 ** len(vs | vt) for w, vs, vt in terms)
        scale = sum(abs(w) for w, _, _ in terms)
        a1, a2 = derandomized_partition(f, alpha, beta)
        assert not (a1 & a2)
        got = partition_objective(f, alpha, beta, a1, a2)
        assert got >= average - 1e-12 * max(scale, 1.0)


def test_decompose_reconstruction(rng):
    for _ in range(15):
        q = int(rng.integers(2, 5))
        f = _random_unit_tensor(rng, q, 8)
        eta, eps = 0.15, 0.01
        out = decompose_one_wiener(f, eta, eps)
        # reconstruction: f = sum c_j (P_j Q_j tensor) + remainder
        acc = out.remainder.copy()
        pp = out.product_part()
        if pp is not None:
            acc = acc.add(pp, 1.0)
        diff = acc.add(f, -1.0)
        assert var_of(diff) <= 1e-9
        # orthogonality of remainder and product part
        if pp is not None:
            assert abs(math.factorial(q) * inner(pp, out.remainder)) <= 1e-9
        if out.status == "small-remainder":
            assert var_of(out.remainder) <= eps + 1e-12
        else:
            assert out.remainder_eig <= eta + 1e-9
        m = len(out.triples)
        assert m <= decompose_max_iter(q, eta, eps)
        assert out.sum_c_sq() <= (2.0 ** q / eta) ** (4 * max(m - 1, 0)) \
            + 1e-9


def _assert_regularized(f, out, eps):
    assert var_of(out.neg) <= eps + 1e-9
    if out.reg is not None:
        assert out.reg_eig <= out.eta_next + 1e-9
    # reconstruction through all emitted parts
    acc = out.neg.copy()
    for a, p_, q_ in out.triples:
        acc = acc.add(contract_sym(p_, q_, 0), a)
    if out.reg is not None:
        acc = acc.add(out.reg, out.a_reg)
    assert var_of(acc.add(f, -1.0)) <= 1e-9


def test_regularize_exit_contract(rng):
    for _ in range(10):
        q = int(rng.integers(2, 4))
        f = _random_unit_tensor(rng, q, 8)
        schedule = make_schedule(0.01, 1, eta0=0.3)
        out = multi_regularize_one_wiener([f], schedule, 0.01).per_input[0]
        _assert_regularized(f, out, 0.01)


def _spiked_unit_tensor(rng, q, n, keys):
    # one large key on top of a spread-out part: the first stage peels off
    # products and the remainder goes on to the next eta
    spike = _random_unit_tensor(rng, q, n, keys=1)
    noise = _random_unit_tensor(rng, q, n, keys=keys)
    w = float(rng.uniform(0.3, 0.9))
    f = spike.scale(w).add(noise, math.sqrt(1.0 - w * w))
    return f.scale(1.0 / math.sqrt(var_of(f)))


def test_multi_regularize_shared_schedule(rng):
    eps = 0.01
    cases = [[_random_unit_tensor(rng, q, 8) for _ in range(r)]
             for q, r in [(2, 2), (3, 3), (4, 2), (3, 2)]]
    cases += [[_spiked_unit_tensor(rng, 2, 20, 40) for _ in range(r)]
              for r in (2, 3)]
    for fs in cases:
        schedule = make_schedule(eps, len(fs), eta0=0.3)
        multi = multi_regularize_one_wiener(fs, schedule, eps)
        assert len(multi.per_input) == len(fs)
        for f, out in zip(fs, multi.per_input):
            _assert_regularized(f, out, eps)


def test_regularize_poly_x1x2():
    chaos = to_chaos(Polynomial(2, {(1, 2): 1.0}))
    dec = regularize_poly(chaos, 0.05)
    assert dec.var_gap <= 1e-12
    assert sorted(t.order for t in dec.inner) == [1, 1]
    # outer polynomial is the product of its two arguments plus scaling
    assert dec.h.degree() == 2


def test_regularize_poly_x1x2x3_exact():
    chaos = to_chaos(Polynomial(3, {(1, 2, 3): 1.0}))
    dec = regularize_poly(chaos, 0.05)
    assert dec.var_gap <= 1e-9
    assert all(e <= 0.5 for e in dec.eigen)


def test_regularize_poly_var_gap_bound(rng):
    for _ in range(10):
        p = random_polynomial(rng, d=3, n=6, multilinear=True)
        chaos = to_chaos(p)
        var = chaos.variance()
        dec = regularize_poly(chaos.scale(1.0 / math.sqrt(var)), 0.05)
        assert dec.var_gap <= 0.05 + 1e-9
        for t, e in zip(dec.inner, dec.eigen):
            assert var_of(t) == pytest.approx(1.0, rel=1e-9)
            if t.order <= 1:
                assert e == 0.0


def test_degree_one_passthrough():
    chaos = to_chaos(Polynomial(2, {(1,): 1.0}))
    dec = regularize_poly(chaos, 0.05)
    assert len(dec.inner) == 1
    assert dec.inner[0].order == 1
    assert dec.eigen == [0.0]
    assert dec.var_gap <= 1e-12


def test_every_pooled_inner_poly_is_used():
    # levels 0 and 1 become inner polynomials only where the recursion
    # bottoms out, so no pool entry is left over from a higher level
    rng = np.random.default_rng(5)
    for i in range(30):
        chaos = to_chaos(random_polynomial(rng, d=3 + i % 2, n=8,
                                           multilinear=True))
        d = chaos.degree()
        normed = ChaosDecomposition(chaos.dim)
        for q in range(1, d + 1):
            v = var_of(chaos.level(q))
            if v > 0.0:
                normed.set_level(q, chaos.level(q).scale(1.0 / math.sqrt(v)))
        res = multi_regularize_many_wieners([normed], d, 0.05)
        used = set()
        for sl in res.slices:
            for poly in sl.values():
                used |= poly.support_vars()
        assert used == set(range(1, len(res.pool) + 1))
