"""Acceptance gate: one test per criterion, one pass/fail line each.

Tolerances are pinned in the asserts; the emitted line goes to the real
stdout so it survives pytest capture.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from ptfcount.polynomials import Polynomial
from ptfcount.chaos import (
    clt_error_certificate,
    covariance,
    from_chaos,
    ito_multiply,
    malliavin_inner,
    malliavin_second_moment,
    single_level,
    to_chaos,
)
from ptfcount.tensors import SymTensor, eigenregularity, lambda_max
from ptfcount.decomposition import (
    decompose_max_iter,
    decompose_one_wiener,
    make_schedule,
    multi_regularize_one_wiener,
    var_of,
)
from ptfcount.multilinear import linearize, replication_count
from ptfcount.gaussian import count_gaussian
from ptfcount.boolean import count_boolean
from ptfcount.moments import absolute_moment, exact_raw_moment
from ptfcount.oracles import (
    brute_lambda_max,
    enumerate_boolean,
    mc_gaussian,
)

from conftest import (
    enum_hypercube_expectation,
    gaussian_raw_moment,
    gaussian_variance_oracle,
    random_polynomial,
)


def emit(line: str) -> None:
    print(line, file=sys.__stdout__, flush=True)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    emit(f"[criterion {num}] {desc}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_algebraic_identities():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        a = random_polynomial(rng, d=4, n=6, terms=4)
        b = random_polynomial(rng, d=4, n=6, terms=4)
        ca, cb = to_chaos(a), to_chaos(b)
        # round trip
        diff = a.add(from_chaos(ca), -1.0)
        worst = max(worst, max((abs(v) for v in diff.coeffs.values()),
                               default=0.0))
        # variance identity vs the independent moment oracle
        worst = max(worst, abs(ca.variance() - gaussian_variance_oracle(a)))
        # ito multiplication vs direct multiplication
        got = ito_multiply(ca, cb)
        want = to_chaos(a.mul(b))
        for q in range(max(got.degree(), want.degree()) + 1):
            fg, fw = got.level(q), want.level(q)
            for key in set(fg.coeffs) | set(fw.coeffs):
                worst = max(worst, abs(fg.coeffs.get(key, 0.0)
                                       - fw.coeffs.get(key, 0.0)))
        # cross-level orthogonality, via the independent moment oracle
        levels_a = [q for q in range(1, ca.degree() + 1)
                    if ca.level(q).coeffs]
        levels_b = [q for q in range(1, cb.degree() + 1)
                    if cb.level(q).coeffs]
        for p_lvl in levels_a:
            for q_lvl in levels_b:
                if p_lvl == q_lvl:
                    continue
                prod = from_chaos(single_level(ca.level(p_lvl))).mul(
                    from_chaos(single_level(cb.level(q_lvl))))
                worst = max(worst, abs(gaussian_raw_moment(prod, 1)))
    took = time.time() - t0
    _report(1, "algebraic identity suite (500 inst, tol 1e-9, <60s)",
            worst <= 1e-9 and took < 60.0,
            f"worst={worst:.2e} time={took:.1f}s")


def test_criterion_2_malliavin():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        fa = _random_tensor(rng, p, 3, keys=4)
        fb = _random_tensor(rng, q, 3, keys=4)
        got = malliavin_second_moment(fa, fb)
        want = gaussian_raw_moment(from_chaos(malliavin_inner(fa, fb)), 2)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    a48 = malliavin_second_moment(SymTensor(2, 1, {(1, 1): 1.0}),
                                  SymTensor(2, 1, {(1, 1): 1.0}))
    a4 = malliavin_second_moment(SymTensor(1, 1, {(1,): 1.0}),
                                 SymTensor(2, 1, {(1, 1): 1.0}))
    ok = worst <= 1e-9 and a48 == pytest.approx(48.0) \
        and a4 == pytest.approx(4.0)
    _report(2, "Malliavin second moments (200 pairs, tol 1e-9, anchors "
               "48/4)", ok, f"worst={worst:.2e} anchors=({a48},{a4})")


def _random_tensor(rng, q, n, keys=4, multilinear=False):
    coeffs = {}
    for _ in range(keys):
        if multilinear and q <= n:
            key = tuple(sorted(rng.choice(np.arange(1, n + 1), size=q,
                                          replace=False).tolist()))
        else:
            key = tuple(sorted(rng.integers(1, n + 1, size=q).tolist()))
        coeffs[key] = float(rng.normal())
    return SymTensor(q, n, coeffs)


def _banded_tensor(rng, q, n):
    """Multilinear banded tensor with random signs; eigenregularity
    decays like 1/sqrt(n)."""
    coeffs = {}
    for i in range(1, n - q + 2):
        coeffs[tuple(range(i, i + q))] = float(rng.choice([-1.0, 1.0]))
    f = SymTensor(q, n, coeffs)
    return f.scale(1.0 / math.sqrt(var_of(f)))


def _mc_alphas(polys, n, n_samples, seed):
    """One sampling pass, two statistics: sum of squares and sum of tanh.

    Returns ((mean, stderr), (mean, stderr)).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    tot = np.zeros(2)
    tot_sq = np.zeros(2)
    done = 0
    chunk = 1 << 16
    while done < n_samples:
        m = min(chunk, n_samples - done)
        x = rng.standard_normal((m, n))
        v = np.stack([p.evaluate(x) for p in polys], axis=1)
        for j, vals in enumerate((np.sum(v * v, axis=1),
                                  np.sum(np.tanh(v), axis=1))):
            tot[j] += float(vals.sum())
            tot_sq[j] += float((vals * vals).sum())
        done += m
    means = tot / n_samples
    var = np.maximum(tot_sq / n_samples - means * means, 0.0)
    se = np.sqrt(var / n_samples)
    return (means[0], se[0]), (means[1], se[1])


def test_criterion_3_clt_certificate_soundness():
    rng = np.random.default_rng(1003)
    n = 140
    n_samples = 10 ** 6
    failures = []
    for trial in range(50):
        size = 2 if trial % 2 == 0 else 3
        tensors = []
        for _ in range(size):
            q = int(rng.integers(1, 4))
            if q == 1:
                t = _random_tensor(rng, 1, n, keys=6, multilinear=True)
                t = t.scale(1.0 / math.sqrt(var_of(t)))
            else:
                t = _banded_tensor(rng, q, n)
            tensors.append(t)
        eigs = [eigenregularity(t) if t.order >= 2 else 0.0
                for t in tensors]
        assert max(eigs) <= 0.1, f"generator not eigenregular: {eigs}"
        chaoses = [single_level(t) for t in tensors]
        polys = [from_chaos(c) for c in chaoses]
        sigma = np.array([[covariance(a, b) for b in chaoses]
                          for a in chaoses])
        (mean_f, se_f), (mean_t, se_t) = _mc_alphas(
            polys, n, n_samples, seed=3000 + trial)

        # alpha(x) = sum x_i^2: alpha'' operator norm 2; E under G exact
        cert2 = clt_error_certificate(chaoses, alpha_dd=2.0).bound
        want = float(np.trace(sigma))
        if abs(mean_f - want) > cert2 + 4.0 * se_f:
            failures.append((trial, "sumsq", abs(mean_f - want), cert2))

        # smooth clamp alpha(x) = sum tanh(x_i): |alpha''| <= 0.77 < 1;
        # E tanh(N(0, s^2)) = 0 by symmetry for each component of G
        cert1 = clt_error_certificate(chaoses, alpha_dd=1.0).bound
        if abs(mean_t - 0.0) > cert1 + 4.0 * se_t:
            failures.append((trial, "tanh", abs(mean_t), cert1))
    _report(3, "CLT certificate soundness (50 eigenregular tuples, "
               "1e6-sample MC within cert + 4 stderr)",
            not failures, f"failures={failures[:3]}")


def test_criterion_4_decomposition_contracts():
    rng = np.random.default_rng(1004)
    worst_recon, worst_orth = 0.0, 0.0
    ok = True
    detail = ""
    for trial in range(200):
        q = int(rng.integers(2, 5))
        f = _random_tensor(rng, q, 10, keys=6, multilinear=True)
        f = f.scale(1.0 / math.sqrt(var_of(f)))
        eta = float(rng.choice([0.1, 0.15, 0.2, 0.3]))
        eps = 0.01
        dec = decompose_one_wiener(f, eta, eps)
        pp = dec.product_part()
        acc = dec.remainder.copy() if pp is None \
            else dec.remainder.add(pp, 1.0)
        worst_recon = max(worst_recon, var_of(acc.add(f, -1.0)))
        if pp is not None:
            worst_orth = max(worst_orth, abs(
                math.factorial(q) * _tensor_inner(pp, dec.remainder)))
        m = len(dec.triples)
        if m > decompose_max_iter(q, eta, eps):
            ok, detail = False, f"m bound trial {trial}"
        if dec.sum_c_sq() > (2.0 ** q / eta) ** (4 * max(m - 1, 0)) \
                + 1e-9:
            ok, detail = False, f"coeff bound trial {trial}"

        schedule = make_schedule(eps, 1, eta0=eta)
        reg = multi_regularize_one_wiener([f], schedule, eps).per_input[0]
        if var_of(reg.neg) > eps + 1e-9:
            ok, detail = False, f"neg var trial {trial}"
        if reg.reg is not None and reg.reg_eig > reg.eta_next + 1e-9:
            ok, detail = False, f"reg eig trial {trial}"
    ok = ok and worst_recon <= 1e-9 and worst_orth <= 1e-9
    _report(4, "decomposition contracts (200 inputs: reconstruction, "
               "orthogonality, Var[R_neg], eigenregularity, m, coeff "
               "bounds)", ok,
            f"recon={worst_recon:.2e} orth={worst_orth:.2e} {detail}")


def _tensor_inner(a, b):
    from ptfcount.tensors import inner
    return inner(a, b)


def test_criterion_5_gaussian_counting_corpus():
    t0 = time.time()
    rng = np.random.default_rng(1005)
    corpus = [
        Polynomial(1, {(1,): 1.0}),
        Polynomial(1, {(1, 1): 1.0, (): -1.0}),
        Polynomial(4, {(1, 2): 1.0, (3, 4): 1.0}),
        Polynomial(3, {(1, 2, 3): 1.0}),
    ]
    while len(corpus) < 30:
        i = len(corpus)
        d = [2, 3, 4][i % 3]
        corpus.append(random_polynomial(rng, d=d, n=8, terms=6,
                                        multilinear=(i % 2 == 0)))
    failures = []
    for i, p in enumerate(corpus):
        res = count_gaussian(p, 0.05)
        mc = mc_gaussian(p, 10 ** 7, seed=5000 + i)
        err = abs(res.value - mc.value)
        if err > 0.05 + 4.0 * mc.stderr:
            failures.append((i, err))
    took = time.time() - t0
    _report(5, "Gaussian counting corpus (30 polys vs 1e7-sample MC, "
               "eps=0.05, <600s)", not failures and took < 600.0,
            f"failures={failures} time={took:.0f}s")


def test_criterion_6_boolean_counting_corpus():
    rng = np.random.default_rng(1006)
    anchor1 = Polynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0})
    anchor2 = Polynomial(3, {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    corpus = [anchor1, anchor2]
    while len(corpus) < 30:
        i = len(corpus)
        d = [1, 2, 3][i % 3]
        n = int(rng.integers(6, 19))
        corpus.append(random_polynomial(rng, d=d, n=n, terms=8,
                                        multilinear=True))
    failures = []
    for i, p in enumerate(corpus):
        res = count_boolean(p, 0.05)
        truth = float(enumerate_boolean(p))
        if abs(res.value - truth) > 0.05:
            failures.append((i, abs(res.value - truth)))
    v1 = count_boolean(anchor1, 0.05).value
    v2 = count_boolean(anchor2, 0.05).value
    ok = not failures and abs(v1 - 0.5) <= 0.05 and abs(v2 - 0.25) <= 0.05
    _report(6, "Boolean counting corpus (30 polys vs enumeration, "
               "eps=0.05, anchors 1/2 and 1/4)", ok,
            f"failures={failures} anchors=({v1},{v2})")


def test_criterion_7_moments():
    rng = np.random.default_rng(1007)
    failures = []
    anchor = absolute_moment(
        Polynomial(3, {(1,): 1.0, (2,): 1.0, (3,): 1.0}), 1, 0.05)
    if abs(anchor.value - 1.5) > 0.05 * 1.5:
        failures.append(("anchor", anchor.value))
    for trial in range(6):
        n = int(rng.integers(8, 17))
        d = [1, 2, 3][trial % 3]
        p = random_polynomial(rng, d=d, n=n, terms=7, multilinear=True)
        even = absolute_moment(p, 2, 0.05)
        want_even = exact_raw_moment(p, 2)
        if abs(even.value - want_even) > 0.05 * abs(want_even):
            failures.append((trial, "even", even.value, want_even))
        for k in (1, 3):
            odd = absolute_moment(p, k, 0.05)
            want = enum_hypercube_expectation(
                p, fn=lambda v, k=k: np.abs(v) ** k)
            if abs(odd.value - want) > 0.05 * abs(want):
                failures.append((trial, k, odd.value, want))
    _report(7, "moments (even-k vs exact, odd-k vs enumeration, "
               "multiplicative 5%, anchor 1.5)", not failures,
            f"failures={failures} anchor={anchor.value:.4f}")


def _substitute_replicas(p, K):
    out = {}
    s = K ** -0.5
    for mono, c in p.coeffs.items():
        for reps in itertools.product(range(1, K + 1), repeat=len(mono)):
            key = tuple(sorted((i - 1) * K + j
                               for i, j in zip(mono, reps)))
            out[key] = out.get(key, 0.0) + c * s ** len(mono)
    return Polynomial(p.dim * K, {k: v for k, v in out.items() if v != 0.0})


def test_criterion_8_multilinearize():
    rng = np.random.default_rng(1008)
    K = 4
    worst_ratio = 0.0
    for _ in range(100):
        p = random_polynomial(rng, d=3, n=3, terms=4)
        if all(len(set(k)) == len(k) for k in p.coeffs):
            p = p.add(Polynomial(3, {(1, 1): 1.0}), 1.0)
        res = linearize(p, delta=0.5, k_cap=K)
        gap = to_chaos(_substitute_replicas(p, K).add(res.poly, -1.0)
                       ).variance()
        qvar = to_chaos(res.poly).variance()
        d = max(p.degree(), 1)
        bound = d * d / K * qvar
        worst_ratio = max(worst_ratio, gap / bound if bound > 0 else 0.0)
    k_anchor = replication_count(2, 0.5)
    ok = worst_ratio <= 1.0 + 1e-9 and k_anchor == 16384
    _report(8, "multilinearize (Var[q~-q] <= (d^2/K) Var[q~] on 100 "
               "inputs, K anchor 16384)", ok,
            f"worst gap/bound={worst_ratio:.3f} K={k_anchor}")


def test_criterion_9_lambda_max():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(300):
        q = int(rng.integers(2, 5))
        f = _random_tensor(rng, q, 8, keys=6)
        worst = max(worst, abs(lambda_max(f).value - brute_lambda_max(f)))
    a1 = lambda_max(SymTensor(2, 2, {(1, 1): 1.0})).value
    a2 = lambda_max(SymTensor(2, 2, {(1, 2): 0.5})).value
    ok = worst <= 1e-6 and a1 == pytest.approx(1.0, abs=1e-10) \
        and a2 == pytest.approx(0.5, abs=1e-10)
    _report(9, "lambda_max vs brute oracle (300 tensors, tol 1e-6, "
               "anchors 1 and 1/2)", ok,
            f"worst={worst:.2e} anchors=({a1},{a2})")
