"""Sparse multivariate polynomials.

A polynomial is a dict from monomial to coefficient.  The monomial key is
the sorted tuple of 1-based variable indices with repetition, so x1^2 x3 is
(1, 1, 3) and the constant term is ().  This mirrors the multi-index keys
used by the tensor layer.

Every stored coefficient is nonzero: support_vars, degree, the Boolean
influences and the Gaussian integrator read a polynomial's support off its
keys.  merge_terms is the one place that sums terms into a monomial dict,
and it keeps this invariant by dropping any key whose sum is exactly 0.0.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np


def merge_terms(out: dict[tuple[int, ...], float],
                terms: Iterable[tuple[tuple[int, ...], float]]
                ) -> dict[tuple[int, ...], float]:
    """Add each (monomial, value) pair of terms into out and return out.

    A key whose sum is exactly 0.0 is removed, so every coefficient left in
    out is nonzero (see the module docstring).
    """
    for k, v in terms:
        w = out.get(k, 0.0) + v
        if w == 0.0:
            out.pop(k, None)
        else:
            out[k] = w
    return out


@dataclass
class Polynomial:
    dim: int
    coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    @staticmethod
    def constant(c: float, dim: int = 0) -> "Polynomial":
        return Polynomial(dim, {(): c} if c != 0.0 else {})

    def degree(self) -> int:
        return max((len(k) for k in self.coeffs), default=0)

    def constant_term(self) -> float:
        return self.coeffs.get((), 0.0)

    def add(self, other: "Polynomial", a: float = 1.0) -> "Polynomial":
        out = merge_terms(dict(self.coeffs),
                          ((k, a * v) for k, v in other.coeffs.items()))
        return Polynomial(max(self.dim, other.dim), out)

    def scale(self, a: float) -> "Polynomial":
        return Polynomial(self.dim, merge_terms(
            {}, ((k, a * v) for k, v in self.coeffs.items())))

    def mul(self, other: "Polynomial") -> "Polynomial":
        out = merge_terms({}, ((tuple(sorted(ka + kb)), va * vb)
                               for ka, va in self.coeffs.items()
                               for kb, vb in other.coeffs.items()))
        return Polynomial(max(self.dim, other.dim), out)

    def hypercube_reduce(self) -> "Polynomial":
        """Multilinear reduction over {-1,1}^n: replace x_i^2 by 1."""
        return Polynomial(self.dim, merge_terms({}, (
            (tuple(sorted(i for i in set(k) if k.count(i) % 2)), v)
            for k, v in self.coeffs.items())))

    def restrict(self, var: int, value: float) -> "Polynomial":
        """Substitute x_var = value."""
        return Polynomial(self.dim, merge_terms({}, (
            (tuple(i for i in k if i != var), v * (value ** k.count(var)))
            if var in k else (k, v)
            for k, v in self.coeffs.items())))

    def support_vars(self) -> set[int]:
        s: set[int] = set()
        for k in self.coeffs:
            s.update(k)
        return s

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on a batch of points, x of shape (N, dim), 0-based cols."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        out = np.zeros(x.shape[0])
        term = np.empty(x.shape[0])
        for k, v in self.coeffs.items():
            term.fill(v)
            for i in k:
                term *= x[:, i - 1]
            out += term
        return out

    def l1_norm(self) -> float:
        """Sum of absolute coefficient values (constant included)."""
        return sum(abs(v) for v in self.coeffs.values())
