import numpy as np

from ptfcount.polynomials import Polynomial

from conftest import random_polynomial


def test_mul_drops_cancelled_terms():
    # (x1 + x2)(x1 - x2): the two x1 x2 terms cancel to 0.0 and are absent
    p = Polynomial(2, {(1,): 1.0, (2,): 1.0})
    q = Polynomial(2, {(1,): 1.0, (2,): -1.0})
    assert p.mul(q).coeffs == {(1, 1): 1.0, (2, 2): -1.0}


def test_add_negation_is_empty(rng):
    p = random_polynomial(rng, d=3, n=5)
    assert p.add(p, -1.0).coeffs == {}


def test_hypercube_reduce():
    # x1^3 x2^2 + 2 x1 - 3 reduces to 3 x1 - 3
    p = Polynomial(2, {(1, 1, 1, 2, 2): 1.0, (1,): 2.0, (): -3.0})
    assert p.hypercube_reduce().coeffs == {(1,): 3.0, (): -3.0}
    # x1^2 - 1 is 0 on the hypercube
    assert Polynomial(1, {(1, 1): 1.0, (): -1.0}).hypercube_reduce().coeffs \
        == {}


def test_restrict():
    p = Polynomial(2, {(1, 1, 1, 2): 1.0, (1, 2): 1.0})
    assert p.restrict(1, 2.0).coeffs == {(2,): 10.0}
    assert p.restrict(1, 0.0).coeffs == {}
    # x1 x2 + x2 at x1 = -1 cancels
    q = Polynomial(2, {(1, 2): 1.0, (2,): 1.0})
    assert q.restrict(1, -1.0).coeffs == {}


def test_scale_to_zero_stores_nothing():
    p = Polynomial(2, {(1,): 1.5, (1, 2): -2.0})
    assert p.scale(0.0).coeffs == {}
    # a product that underflows to 0.0 is dropped too
    tiny = Polynomial(1, {(1,): 1e-200}).scale(1e-200)
    assert tiny.coeffs == {}
    assert tiny.support_vars() == set()


def test_evaluate_single_point():
    p = Polynomial(2, {(1, 2): 2.0, (): 1.0})
    out = p.evaluate(np.array([3.0, -1.0]))
    assert out.shape == (1,)
    assert out[0] == -5.0


def test_no_stored_zeros(rng):
    for _ in range(50):
        p = random_polynomial(rng, d=3, n=4, terms=8)
        q = random_polynomial(rng, d=2, n=4, terms=5)
        results = [p.add(q), p.add(q, -1.0), p.mul(q), p.hypercube_reduce(),
                   q.mul(q).hypercube_reduce()]
        for var in (1, 2, 4):
            for val in (1.0, -1.0, 0.0, 0.5):
                results.append(p.restrict(var, val))
        for res in results:
            assert all(v != 0.0 for v in res.coeffs.values())
