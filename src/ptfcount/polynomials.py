"""Sparse multivariate polynomials.

A polynomial is a dict from monomial to coefficient.  The monomial key is
the sorted tuple of 1-based variable indices with repetition, so x1^2 x3 is
(1, 1, 3) and the constant term is ().  This mirrors the multi-index keys
used by the tensor layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

@dataclass
class Polynomial:
    dim: int
    coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    @staticmethod
    def constant(c: float, dim: int = 0) -> "Polynomial":
        return Polynomial(dim, {(): c} if c != 0.0 else {})

    @staticmethod
    def variable(i: int, dim: int | None = None) -> "Polynomial":
        return Polynomial(dim if dim is not None else i, {(i,): 1.0})

    def degree(self) -> int:
        return max((len(k) for k in self.coeffs), default=0)

    def copy(self) -> "Polynomial":
        return Polynomial(self.dim, dict(self.coeffs))

    def constant_term(self) -> float:
        return self.coeffs.get((), 0.0)

    def add(self, other: "Polynomial", a: float = 1.0) -> "Polynomial":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, 0.0) + a * v
            if w == 0.0:
                out.pop(k, None)
            else:
                out[k] = w
        return Polynomial(max(self.dim, other.dim), out)

    def scale(self, a: float) -> "Polynomial":
        if a == 0.0:
            return Polynomial(self.dim, {})
        return Polynomial(self.dim, {k: a * v for k, v in self.coeffs.items()})

    def mul(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k = tuple(sorted(ka + kb))
                w = out.get(k, 0.0) + va * vb
                if w == 0.0:
                    out.pop(k, None)
                else:
                    out[k] = w
        return Polynomial(max(self.dim, other.dim), out)

    def hypercube_reduce(self) -> "Polynomial":
        """Multilinear reduction over {-1,1}^n: replace x_i^2 by 1."""
        out: dict[tuple[int, ...], float] = {}
        for k, v in self.coeffs.items():
            counts: dict[int, int] = {}
            for i in k:
                counts[i] = counts.get(i, 0) + 1
            red = tuple(sorted(i for i, c in counts.items() if c % 2 == 1))
            w = out.get(red, 0.0) + v
            if w == 0.0:
                out.pop(red, None)
            else:
                out[red] = w
        return Polynomial(self.dim, out)

    def restrict(self, var: int, value: float) -> "Polynomial":
        """Substitute x_var = value."""
        out: dict[tuple[int, ...], float] = {}
        for k, v in self.coeffs.items():
            m = sum(1 for i in k if i == var)
            if m:
                v = v * (value ** m)
                k = tuple(i for i in k if i != var)
            if v == 0.0:
                continue
            w = out.get(k, 0.0) + v
            if w == 0.0:
                out.pop(k, None)
            else:
                out[k] = w
        return Polynomial(self.dim, out)

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
        for k, v in self.coeffs.items():
            term = np.full(x.shape[0], v)
            for i in k:
                term = term * x[:, i - 1]
            out += term
        return out

    def l1_norm(self) -> float:
        """Sum of absolute coefficient values (constant included)."""
        return sum(abs(v) for v in self.coeffs.values())
