"""Deterministic counting over the hypercube.

count_boolean computes Pr[p(x) >= 0] for x uniform on {-1,1}^n to additive
accuracy eps.  The polynomial is first made multilinear exactly (x_i^2 = 1),
then a regularity tree is grown: at each node the maximum-influence variable
is restricted until the leaf polynomial is sign-decided, touches at most
ENUM_VARS = 16 variables, or is tau-regular (all influences small relative
to the variance, in which case the Gaussian counter applies by the
invariance principle).  A small leaf is counted exactly: its values on all
2^m points of its subcube are the fast Walsh-Hadamard transform of its
coefficient vector, O(m 2^m) work whatever its number of terms.  Leaves
hitting the size budget contribute 1/2 and their mass is reported as error.

hypercube_values is that transform, the one kernel; it has two readers.
_enumerate_support counts the nonnegative values of a leaf, and
moments.absolute_moment averages |values|^k when p touches at most
ENUM_VARS variables.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial
from .gaussian import CountResult, count_gaussian

LEAF_CAP = 4096      # undecided nodes restricted before giving up
ENUM_VARS = 16       # enumerate leaves touching at most this many variables


def derive_tau(eps: float, d: int) -> float:
    # invariance error behaves like d * sqrt(tau) on benign inputs, so aim
    # tau ~ (eps / (2d))^2
    return (eps / (2.0 * max(d, 1))) ** 2


def influences(p: Polynomial) -> dict[int, float]:
    """Inf_i = sum of squared coefficients of monomials containing x_i, for
    every variable p touches."""
    out: dict[int, float] = {}
    for k, c in p.coeffs.items():
        for i in set(k):
            out[i] = out.get(i, 0.0) + c * c
    return out


def hypercube_values(p: Polynomial) -> np.ndarray:
    """Values of a multilinear p on all 2^m points of the subcube of the m
    variables p touches.

    They are the unnormalised Walsh-Hadamard transform of p's coefficient
    vector, indexed by bitmasks over the touched variables; bit j of a
    point's index means the j-th touched variable is -1.  The m butterfly
    passes cost O(m 2^m) whatever the number of terms.
    """
    sup = sorted(p.support_vars())
    bit = {v: 1 << j for j, v in enumerate(sup)}
    # both buffers of the passes come from one block: glibc sets its heap
    # trim threshold to twice the largest block it has unmapped, so one
    # block stays in the heap between calls, where two equal blocks freed
    # together are trimmed and fault their pages back in on every call
    vals, out = np.empty((2, 1 << len(sup)))
    vals.fill(0.0)
    for k, c in p.coeffs.items():
        mask = 0
        for i in k:
            mask ^= bit[i]       # XOR keeps x_i^2 = 1
        vals[mask] += c
    # pass j adds and subtracts the adjacent pairs of variable j, putting
    # sums in the first half and differences in the second, which makes
    # variable j+1's pairs adjacent; unlike passes in place over blocks of
    # width 2^j, every pass runs over long unit-stride rows
    half = vals.size // 2
    for _ in sup:
        pairs = vals.reshape(-1, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[half:])
        vals, out = out, vals
    return vals


def _enumerate_support(p: Polynomial) -> float:
    """Exact Pr[p >= 0] over the subcube of the variables p touches."""
    vals = hypercube_values(p)
    return float(np.count_nonzero(vals >= 0.0)) / vals.size


@dataclass
class Leaf:
    kind: str    # "constant" | "decided" | "enumerated" | "regular" | "fail"
    depth: int   # the leaf's subcube has mass 2^-depth
    value: float  # Pr[p >= 0] on the subcube, in [0, 1]
    error: float  # error bound, already mass-weighted


@dataclass
class RegularityTree:
    leaves: list[Leaf]  # in breadth-first order


def _variance(p: Polynomial) -> float:
    return sum(c * c for k, c in p.coeffs.items() if k)


def construct_tree(p: Polynomial, tau: float,
                   eps: float = 0.05) -> RegularityTree:
    """Grow the restriction tree for a multilinear hypercube polynomial."""
    d = max(p.degree(), 1)
    fail_p = eps / 8.0   # tail mass allowed per concentration-decided leaf
    chern = math.log(2.0 / fail_p) ** (d / 2.0)

    leaves: list[Leaf] = []
    processed = 0
    queue: deque[tuple[Polynomial, int]] = deque([(p, 0)])
    while queue:
        node, depth = queue.popleft()
        mass = 2.0 ** (-depth)
        mean = node.constant_term()
        var = _variance(node)
        if var == 0.0:
            leaves.append(Leaf("constant", depth,
                               1.0 if mean >= 0.0 else 0.0, 0.0))
            continue
        fluct = node.l1_norm() - abs(mean)
        if abs(mean) > fluct:
            # the sign cannot flip on any point of the subcube
            leaves.append(Leaf("decided", depth,
                               1.0 if mean > 0.0 else 0.0, 0.0))
            continue
        if abs(mean) >= chern * math.sqrt(var):
            # sign decided up to the concentration tail
            leaves.append(Leaf("decided", depth,
                               1.0 if mean > 0.0 else 0.0, mass * fail_p))
            continue
        if len(node.support_vars()) <= ENUM_VARS:
            leaves.append(Leaf("enumerated", depth,
                               _enumerate_support(node), 0.0))
            continue
        infs = influences(node)
        top_var, top_inf = max(infs.items(), key=lambda kv: (kv[1], -kv[0]))
        if top_inf <= tau * var:
            res = count_gaussian(node, eps / 2.0)
            inv_err = min(1.0, d * math.sqrt(tau))
            leaves.append(Leaf("regular", depth, res.value,
                               mass * (inv_err + eps / 2.0)))
            continue
        processed += 1
        if processed > LEAF_CAP:
            leaves.append(Leaf("fail", depth, 0.5, mass * 0.5))
            continue
        queue.append((node.restrict(top_var, 1.0), depth + 1))
        queue.append((node.restrict(top_var, -1.0), depth + 1))
    return RegularityTree(leaves)


def count_boolean(p: Polynomial, eps: float = 0.05) -> CountResult:
    """Pr[p(x) >= 0] for x uniform on {-1,1}^n: the mass-weighted sum of
    the regularity tree's leaf values.  A constant p is a one-leaf tree.

    The budget and diagnostics are read off the leaves; both error sums
    start at 0.0, so they stay floats when no leaf contributes.
    """
    work = p.hypercube_reduce()
    tau = derive_tau(eps, work.degree())
    leaves = construct_tree(work, tau, eps).leaves
    value = sum(2.0 ** (-leaf.depth) * leaf.value for leaf in leaves)
    budget = {
        "fail_mass": sum((2.0 ** (-leaf.depth) for leaf in leaves
                          if leaf.kind == "fail"), 0.0),
        "leaf_errors": sum((leaf.error for leaf in leaves
                            if leaf.kind != "fail"), 0.0),
    }
    budget["total"] = budget["fail_mass"] + budget["leaf_errors"]
    diag = {
        "tau": tau,
        "depth": max(leaf.depth for leaf in leaves),
        "leaves": len(leaves),
        "leaf_kinds": {k: sum(1 for l in leaves if l.kind == k)
                       for k in ("constant", "decided", "enumerated",
                                 "regular", "fail")},
    }
    return CountResult(float(min(max(value, 0.0), 1.0)), "tree", budget,
                       diag)
