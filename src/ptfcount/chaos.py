"""Wiener chaos transform and calculus.

A degree-d Gaussian polynomial p has a unique expansion
p = sum_{q=0}^{d} I_q(f_q) with f_q symmetric order-q tensors.  The basis
rule tying tensors to polynomials is

    I_q(Sym(e_{j1} (x) ... (x) e_{jq})) = prod_j He_{alpha_j}(x_j)

where alpha_j counts the occurrences of j and He is the monic probabilists'
Hermite polynomial (He_0=1, He_1=x, He_2=x^2-1, ...).  Under this rule
E[I_p(f) I_q(g)] = 0 for p != q and p! <f,g> for p = q, and the product,
Malliavin derivative, and Ornstein-Uhlenbeck operators all act through
contraction products of the tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .polynomials import Polynomial
from .tensors import SymTensor, contract_sym, inner


@lru_cache(maxsize=None)
def monomial_to_hermite(m: int) -> tuple[float, ...]:
    """Coefficients b with x^m = sum_k b[k] He_k(x).

    b[k] = m! / (2^j j! k!) when m = k + 2j, else 0.
    """
    out = [0.0] * (m + 1)
    for k in range(m % 2, m + 1, 2):
        j = (m - k) // 2
        out[k] = math.factorial(m) / (2 ** j * math.factorial(j)
                                      * math.factorial(k))
    return tuple(out)


@lru_cache(maxsize=None)
def hermite_to_monomial(k: int) -> tuple[float, ...]:
    """Coefficients c with He_k(x) = sum_j c[j] x^j."""
    out = [0.0] * (k + 1)
    for j in range(0, k // 2 + 1):
        out[k - 2 * j] = ((-1) ** j * math.factorial(k)
                          / (math.factorial(j) * 2 ** j
                             * math.factorial(k - 2 * j)))
    return tuple(out)


@dataclass
class ChaosDecomposition:
    """Polynomial represented by its Wiener chaos slices.

    `tensors[q]` is the order-q symmetric tensor f_q; absent levels are zero.
    """
    dim: int
    tensors: dict[int, SymTensor] = field(default_factory=dict)

    def level(self, q: int) -> SymTensor:
        t = self.tensors.get(q)
        if t is None:
            t = SymTensor(q, self.dim, {})
        return t

    def degree(self) -> int:
        return max((q for q, t in self.tensors.items() if t.coeffs),
                   default=0)

    def mean(self) -> float:
        return self.level(0).coeffs.get((), 0.0)

    def variance(self) -> float:
        return sum(math.factorial(q) * t.norm_sq()
                   for q, t in self.tensors.items() if q >= 1)

    def set_level(self, q: int, t: SymTensor) -> None:
        if t.coeffs:
            self.tensors[q] = t
        else:
            self.tensors.pop(q, None)

    def add(self, other: "ChaosDecomposition",
            a: float = 1.0) -> "ChaosDecomposition":
        out = ChaosDecomposition(max(self.dim, other.dim))
        for q in set(self.tensors) | set(other.tensors):
            out.set_level(q, self.level(q).add(other.level(q), a))
        return out

    def scale(self, a: float) -> "ChaosDecomposition":
        out = ChaosDecomposition(self.dim)
        for q, t in self.tensors.items():
            out.set_level(q, t.scale(a))
        return out


def single_level(t: SymTensor) -> ChaosDecomposition:
    c = ChaosDecomposition(t.dim)
    c.set_level(t.order, t.copy())
    return c


def to_chaos(p: Polynomial) -> ChaosDecomposition:
    """Expand a polynomial into its Wiener chaos slices."""
    import itertools
    out = ChaosDecomposition(p.dim)
    acc: dict[int, dict[tuple[int, ...], float]] = {}
    for mono, c in p.coeffs.items():
        counts: dict[int, int] = {}
        for i in mono:
            counts[i] = counts.get(i, 0) + 1
        vars_ = sorted(counts)
        per_var = []
        for i in vars_:
            b = monomial_to_hermite(counts[i])
            per_var.append([(k, b[k]) for k in range(len(b)) if b[k] != 0.0])
        for combo in itertools.product(*per_var):
            w = c
            key: list[int] = []
            for i, (k, bk) in zip(vars_, combo):
                w *= bk
                key.extend([i] * k)
            key_t = tuple(key)  # already sorted since vars_ ascending
            lvl = acc.setdefault(len(key_t), {})
            lvl[key_t] = lvl.get(key_t, 0.0) + w
    from .tensors import orbit_size
    for q, entries in acc.items():
        coeffs = {k: v / orbit_size(k) for k, v in entries.items()
                  if v != 0.0}
        t = SymTensor(q, p.dim, coeffs)
        t.prune()
        out.set_level(q, t)
    return out


def from_chaos(c: ChaosDecomposition) -> Polynomial:
    """Inverse of to_chaos: expand chaos slices back into monomials."""
    import itertools
    from .tensors import orbit_size
    out = Polynomial(c.dim, {})
    for q, t in c.tensors.items():
        for key, v in t.coeffs.items():
            counts: dict[int, int] = {}
            for i in key:
                counts[i] = counts.get(i, 0) + 1
            vars_ = sorted(counts)
            w0 = v * orbit_size(key)
            per_var = []
            for i in vars_:
                he = hermite_to_monomial(counts[i])
                per_var.append([(j, he[j]) for j in range(len(he))
                                if he[j] != 0.0])
            for combo in itertools.product(*per_var):
                w = w0
                mono: list[int] = []
                for i, (j, hj) in zip(vars_, combo):
                    w *= hj
                    mono.extend([i] * j)
                k = tuple(sorted(mono))
                nv = out.coeffs.get(k, 0.0) + w
                if nv == 0.0:
                    out.coeffs.pop(k, None)
                else:
                    out.coeffs[k] = nv
    # drop numerically dead terms from float cancellation
    big = max((abs(v) for v in out.coeffs.values()), default=0.0)
    cut = 1e-13 * big
    out.coeffs = {k: v for k, v in out.coeffs.items() if abs(v) > cut}
    return out


def ito_multiply_levels(f: SymTensor, g: SymTensor) -> ChaosDecomposition:
    """Product of two single chaos elements:

    I_p(f) I_q(g) = sum_{r=0}^{min(p,q)} r! C(p,r) C(q,r) I_{p+q-2r}(f (x~)_r g)
    """
    p, q = f.order, g.order
    out = ChaosDecomposition(max(f.dim, g.dim))
    if p == 0 or q == 0:
        scal = f.coeffs.get((), 0.0) if p == 0 else g.coeffs.get((), 0.0)
        base = g if p == 0 else f
        out.set_level(base.order, base.scale(scal))
        return out
    for r in range(0, min(p, q) + 1):
        coef = (math.factorial(r) * math.comb(p, r) * math.comb(q, r))
        t = contract_sym(f, g, r).scale(coef)
        lvl = p + q - 2 * r
        out.set_level(lvl, out.level(lvl).add(t))
    return out


def ito_multiply(a: ChaosDecomposition,
                 b: ChaosDecomposition) -> ChaosDecomposition:
    """Chaos decomposition of the pointwise product of two polynomials."""
    out = ChaosDecomposition(max(a.dim, b.dim))
    for p, fa in a.tensors.items():
        for q, fb in b.tensors.items():
            part = ito_multiply_levels(fa, fb)
            for lvl, t in part.tensors.items():
                out.set_level(lvl, out.level(lvl).add(t))
    return out


def covariance(a: ChaosDecomposition, b: ChaosDecomposition) -> float:
    """Cov[F_a, F_b] = sum_{q>=1} q! <a_q, b_q>."""
    tot = 0.0
    for q in set(a.tensors) & set(b.tensors):
        if q >= 1:
            tot += math.factorial(q) * inner(a.level(q), b.level(q))
    return tot


def malliavin_inner(f: SymTensor, g: SymTensor) -> ChaosDecomposition:
    """Chaos expansion of <D I_p(f), D I_q(g)>:

    p q sum_{r=1}^{min(p,q)} (r-1)! C(p-1,r-1) C(q-1,r-1)
          I_{p+q-2r}(f (x~)_r g)
    """
    p, q = f.order, g.order
    out = ChaosDecomposition(max(f.dim, g.dim))
    if p == 0 or q == 0:
        return out
    for r in range(1, min(p, q) + 1):
        coef = (p * q * math.factorial(r - 1)
                * math.comb(p - 1, r - 1) * math.comb(q - 1, r - 1))
        t = contract_sym(f, g, r).scale(coef)
        lvl = p + q - 2 * r
        out.set_level(lvl, out.level(lvl).add(t))
    return out


def malliavin_second_moment(f: SymTensor, g: SymTensor) -> float:
    """E[<D I_p(f), D I_q(g)>^2], exactly, via the contraction norms."""
    p, q = f.order, g.order
    if p == 0 or q == 0:
        return 0.0
    if p == q:
        tot = p ** 2 * math.factorial(p) ** 2 * inner(f, g) ** 2
        for r in range(1, p):
            t = contract_sym(f, g, r)
            tot += (p ** 4 * math.factorial(r - 1) ** 2
                    * math.comb(p - 1, r - 1) ** 4
                    * math.factorial(2 * p - 2 * r) * t.norm_sq())
        return tot
    if p > q:
        f, g = g, f
        p, q = q, p
    tot = 0.0
    for r in range(1, p + 1):
        t = contract_sym(f, g, r)
        tot += (p ** 2 * q ** 2 * math.factorial(r - 1) ** 2
                * math.comb(p - 1, r - 1) ** 2
                * math.comb(q - 1, r - 1) ** 2
                * math.factorial(p + q - 2 * r) * t.norm_sq())
    return tot


@dataclass
class CltCertificate:
    """Certified bound on |E[alpha(F)] - E[alpha(G)]| for G ~ N(0, Sigma).

    F = (F_1..F_r) are mean-zero polynomials given by chaos decompositions,
    Sigma is their exact covariance matrix, and alpha is any C^2 test
    function with second derivatives bounded by alpha_dd.  The bound is
    (alpha_dd / 2) * sum_{a,b} sqrt(Var[Y_ab]) with
    Y_ab = <D F_a, -D L^{-1} F_b>.
    """
    bound: float
    y_variances: np.ndarray
    alpha_dd: float


def clt_error_certificate(polys: list[ChaosDecomposition],
                          alpha_dd: float = 1.0) -> CltCertificate:
    r = len(polys)
    yvar = np.zeros((r, r))
    for a in range(r):
        for b in range(r):
            y = ChaosDecomposition(max(polys[a].dim, polys[b].dim))
            for p, fa in polys[a].tensors.items():
                if p < 1:
                    continue
                for q, fb in polys[b].tensors.items():
                    if q < 1:
                        continue
                    part = malliavin_inner(fa, fb)
                    for lvl, t in part.tensors.items():
                        y.set_level(lvl, y.level(lvl).add(t, 1.0 / q))
            yvar[a, b] = y.variance()
    bound = 0.5 * alpha_dd * float(np.sum(np.sqrt(np.maximum(yvar, 0.0))))
    return CltCertificate(bound, yvar, alpha_dd)
