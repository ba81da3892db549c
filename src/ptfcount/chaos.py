"""Wiener chaos transform and calculus.

A degree-d Gaussian polynomial p has a unique expansion
p = sum_{q=0}^{d} I_q(f_q) with f_q symmetric order-q tensors.  The basis
rule tying tensors to polynomials is

    I_q(Sym(e_{j1} (x) ... (x) e_{jq})) = prod_j He_{alpha_j}(x_j)

where alpha_j counts the occurrences of j and He is the monic probabilists'
Hermite polynomial (He_0=1, He_1=x, He_2=x^2-1, ...).  Each identity of the
chaos is written once.  The covariance rule E[I_p(f) I_q(g)] = 1{p=q} p!<f,g>
is tensors.wiener_inner (and tensors.var_of).  The Hermite basis change, in
both directions, is _basis_change.  The contraction series, behind the
product and <D F, D G> alike, is _add_contractions.  Every sum a * t into
one chaos level, there and in the CLT certificate and the decomposition's
reconstruct, goes through ChaosDecomposition.add_to, which prunes the level
as SymTensor.add does.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .polynomials import Polynomial, merge_terms
from .tensors import (
    SymTensor, contract_sym, orbit_size, var_of, wiener_inner)


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
        return sum(var_of(t) for t in self.tensors.values())

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

    def add_to(self, q: int, t: SymTensor, a: float = 1.0) -> None:
        """Add a * t into level q in place."""
        self.set_level(q, self.level(q).add(t, a))

    def scale(self, a: float) -> "ChaosDecomposition":
        out = ChaosDecomposition(self.dim)
        for q, t in self.tensors.items():
            out.set_level(q, t.scale(a))
        return out


def single_level(t: SymTensor) -> ChaosDecomposition:
    c = ChaosDecomposition(t.dim)
    c.set_level(t.order, t.copy())
    return c


def _basis_change(key: tuple[int, ...], w: float, table):
    """(key', w') for each term of prod_i table(a_i)(x_i), where variable i
    occurs a_i times in the sorted key.

    table(a)[k] is the coefficient of the degree-k basis element; the weight
    starts at w and takes the factors in variable order, so w' is
    w * b_1 * b_2 * ..., and key' comes out sorted.
    """
    per_var = [[(i, k, b) for k, b in enumerate(table(a)) if b != 0.0]
               for i, a in sorted(Counter(key).items())]
    for combo in itertools.product(*per_var):
        out_w = w
        out_key: list[int] = []
        for i, k, b in combo:
            out_w *= b
            out_key.extend([i] * k)
        yield tuple(out_key), out_w


def to_chaos(p: Polynomial) -> ChaosDecomposition:
    """Expand a polynomial into its Wiener chaos slices."""
    out = ChaosDecomposition(p.dim)
    acc: dict[int, dict[tuple[int, ...], float]] = {}
    for mono, c in p.coeffs.items():
        for key, w in _basis_change(mono, c, monomial_to_hermite):
            lvl = acc.setdefault(len(key), {})
            lvl[key] = lvl.get(key, 0.0) + w
    for q, entries in acc.items():
        coeffs = {k: v / orbit_size(k) for k, v in entries.items()
                  if v != 0.0}
        t = SymTensor(q, p.dim, coeffs)
        t.prune()
        out.set_level(q, t)
    return out


def from_chaos(c: ChaosDecomposition) -> Polynomial:
    """Inverse of to_chaos: expand chaos slices back into monomials."""
    coeffs = merge_terms({}, (
        kw for t in c.tensors.values() for key, v in t.coeffs.items()
        for kw in _basis_change(key, v * orbit_size(key),
                                hermite_to_monomial)))
    # drop numerically dead terms from float cancellation
    big = max((abs(v) for v in coeffs.values()), default=0.0)
    cut = 1e-13 * big
    return Polynomial(c.dim, {k: v for k, v in coeffs.items()
                              if abs(v) > cut})


def _add_contractions(out: ChaosDecomposition, f: SymTensor, g: SymTensor,
                      rs, coef) -> None:
    """Add sum_{r in rs} coef(r) I_{p+q-2r}(f (x~)_r g) into out."""
    for r in rs:
        out.add_to(f.order + g.order - 2 * r, contract_sym(f, g, r),
                   coef(r))


def ito_multiply(a: ChaosDecomposition,
                 b: ChaosDecomposition) -> ChaosDecomposition:
    """Chaos decomposition of the pointwise product of two polynomials:

    I_p(f) I_q(g) = sum_{r=0}^{min(p,q)} r! C(p,r) C(q,r) I_{p+q-2r}(f (x~)_r g)

    An order-0 factor scales the other directly: contract_sym(., ., 0)
    would multiply and divide by orbit sizes and move the last bits.
    """
    out = ChaosDecomposition(max(a.dim, b.dim))
    for p, f in a.tensors.items():
        for q, g in b.tensors.items():
            if p == 0 or q == 0:
                base, scal = (g, f.coeffs.get((), 0.0)) if p == 0 \
                    else (f, g.coeffs.get((), 0.0))
                out.add_to(base.order, base, scal)
                continue
            _add_contractions(out, f, g, range(min(p, q) + 1),
                              lambda r: (math.factorial(r) * math.comb(p, r)
                                         * math.comb(q, r)))
    return out


def covariance(a: ChaosDecomposition, b: ChaosDecomposition) -> float:
    """Cov[F_a, F_b] = sum_{q>=1} q! <a_q, b_q>."""
    return sum((wiener_inner(a.level(q), b.level(q))
                for q in set(a.tensors) & set(b.tensors)), 0.0)


def malliavin_inner(f: SymTensor, g: SymTensor) -> ChaosDecomposition:
    """Chaos expansion of <D I_p(f), D I_q(g)>:

    p q sum_{r=1}^{min(p,q)} (r-1)! C(p-1,r-1) C(q-1,r-1)
          I_{p+q-2r}(f (x~)_r g)
    """
    p, q = f.order, g.order
    out = ChaosDecomposition(max(f.dim, g.dim))
    _add_contractions(out, f, g, range(1, min(p, q) + 1),
                      lambda r: (p * q * math.factorial(r - 1)
                                 * math.comb(p - 1, r - 1)
                                 * math.comb(q - 1, r - 1)))
    return out


def malliavin_second_moment(f: SymTensor, g: SymTensor) -> float:
    """E[<D I_p(f), D I_q(g)>^2], exactly, via the contraction norms: the
    levels of malliavin_inner are orthogonal, so it is the sum over r of
    coef(r)^2 (p+q-2r)! ||f (x~)_r g||^2."""
    p, q = f.order, g.order
    tot = 0.0
    for r in range(1, min(p, q) + 1):
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


def clt_error_certificate(polys: list[ChaosDecomposition],
                          alpha_dd: float = 1.0) -> CltCertificate:
    r = len(polys)
    yvar = np.zeros((r, r))
    for a in range(r):
        for b in range(r):
            y = ChaosDecomposition(max(polys[a].dim, polys[b].dim))
            # order-0 levels have no derivative: malliavin_inner is empty
            for fa in polys[a].tensors.values():
                for q, fb in polys[b].tensors.items():
                    part = malliavin_inner(fa, fb)
                    for lvl, t in part.tensors.items():
                        y.add_to(lvl, t, 1.0 / q)
            yvar[a, b] = y.variance()
    bound = 0.5 * alpha_dd * float(np.sum(np.sqrt(np.maximum(yvar, 0.0))))
    return CltCertificate(bound, yvar)
