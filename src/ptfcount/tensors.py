"""Sparse symmetric tensor algebra.

An order-q symmetric tensor over R^n is stored with one entry per orbit of
the symmetric group: the key is the sorted multi-index (a length-q tuple of
1-based variable indices) and the value is the common entry shared by every
permutation of that multi-index.  The orbit size q!/prod(multiplicities!) is
implicit and is supplied by orbit_size() wherever norms or inner products
need it.

Contractions of two symmetric tensors are not symmetric, but they are
separately symmetric in their row block and column block.  contract_sym,
the one symmetrized contraction, sums the raw contraction into dicts keyed
by (sorted left block, sorted right block) and only then weights each block
by its orbit sizes and symmetrizes.  Folding the orbit weights into the
first sum would reorder the float additions and move the last bits of every
product, Malliavin inner product and decomposition built on it.

This module owns the covariance rule of the Wiener chaos: for symmetric
tensors f and g of orders p and q, E[I_p(f) I_q(g)] is p! <f, g> when
p = q >= 1 and 0 otherwise (wiener_inner), so Var[I_q(f)] = q! ||f||^2
(var_of).  Every variance and covariance of chaos elements in the package
goes through these two functions.  The Hermite basis change and the
contraction series for products live in chaos.py.

Contractions, flattenings and the decomposition's partition terms all walk
the sub-multisets of a key through sub_multisets, which yields them in
lexicographic order.  Their sums are taken in that order, so every answer
downstream, to the last bit, depends on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # imported where it is used, so that importing the package does not
    # load scipy (see gaussian.py)
    import scipy.sparse

# Entries smaller than this fraction of the Frobenius norm are dropped after
# each operation to keep supports from accumulating numerical dust.
PRUNE_REL_TOL = 1e-12

# Compressed flattenings at most this size (rows*cols) use a dense SVD;
# larger ones use a sparse top-singular-value solve.
_DENSE_SVD_CAP = 250_000


@functools.lru_cache(maxsize=None)
def orbit_size(key: tuple[int, ...]) -> int:
    """Number of distinct arrangements of a sorted multi-index.

    Cached, since it depends on the key alone and the same keys and
    sub-multisets recur in every norm and at every split."""
    if not key:
        return 1
    total = math.factorial(len(key))
    run = 1
    prev = key[0]
    for x in key[1:]:
        if x == prev:
            run += 1
            total //= run
        else:
            run = 1
            prev = x
    return total


def sub_multisets(key: tuple[int, ...], r: int):
    """(u, rest) for each distinct size-r sub-multiset u of a sorted key.

    Both u and rest come out sorted, and the pairs come in lexicographic
    order of u (see the module docstring).  Equal u need not be adjacent
    among the combinations (in (1, 1, 2, 4, 4, 4, 4) with r = 2, (1, 2)
    recurs after (1, 4)), hence the set and the sort.
    """
    out = []
    for u in sorted(set(itertools.combinations(key, r))):
        rest = list(key)
        for x in u:
            rest.remove(x)
        out.append((u, tuple(rest)))
    return out


@dataclass
class SymTensor:
    order: int
    dim: int
    coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    def copy(self) -> "SymTensor":
        return SymTensor(self.order, self.dim, dict(self.coeffs))

    def norm_sq(self) -> float:
        return sum(orbit_size(k) * v * v for k, v in self.coeffs.items())

    def scale(self, a: float) -> "SymTensor":
        return SymTensor(self.order, self.dim,
                         {k: a * v for k, v in self.coeffs.items()})

    def add(self, other: "SymTensor", a: float = 1.0) -> "SymTensor":
        if other.order != self.order:
            raise ValueError("order mismatch in tensor addition")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + a * v
        t = SymTensor(self.order, max(self.dim, other.dim), out)
        t.prune()
        return t

    def prune(self) -> "SymTensor":
        cut = PRUNE_REL_TOL * math.sqrt(self.norm_sq()) if self.coeffs else 0.0
        self.coeffs = {k: v for k, v in self.coeffs.items() if abs(v) > cut}
        return self

    def support_vars(self) -> set[int]:
        s: set[int] = set()
        for k in self.coeffs:
            s.update(k)
        return s

    def is_multilinear(self) -> bool:
        return all(len(set(k)) == len(k) for k in self.coeffs)

    def zero_diagonal(self) -> "SymTensor":
        """Drop all entries whose multi-index repeats a variable."""
        return SymTensor(self.order, self.dim,
                         {k: v for k, v in self.coeffs.items()
                          if len(set(k)) == len(k)})

    def restrict_vars(self, keep: set[int]) -> "SymTensor":
        """Zero out every entry touching a variable outside `keep`."""
        return SymTensor(self.order, self.dim,
                         {k: v for k, v in self.coeffs.items()
                          if all(i in keep for i in k)})

    def to_dense(self) -> np.ndarray:
        """Expand to a dense numpy array of shape (dim,)*order (0-based)."""
        a = np.zeros((self.dim,) * self.order)
        for k, v in self.coeffs.items():
            seen = set()
            for perm in itertools.permutations(k):
                if perm in seen:
                    continue
                seen.add(perm)
                a[tuple(i - 1 for i in perm)] = v
        return a


def inner(f: SymTensor, g: SymTensor) -> float:
    if f.order != g.order:
        raise ValueError("order mismatch in tensor inner product")
    a, b = (f.coeffs, g.coeffs) if len(f.coeffs) <= len(g.coeffs) \
        else (g.coeffs, f.coeffs)
    return sum(orbit_size(k) * v * b[k] for k, v in a.items() if k in b)


def wiener_inner(f: SymTensor, g: SymTensor) -> float:
    """E[I_p(f) I_q(g)] = p! <f, g> when p = q >= 1, else 0."""
    if f.order != g.order or f.order == 0:
        return 0.0
    return math.factorial(f.order) * inner(f, g)


def var_of(t: SymTensor) -> float:
    """Var[I_q(f)] = q! ||f||^2 (0 for order 0)."""
    if t.order == 0:
        return 0.0
    return math.factorial(t.order) * t.norm_sq()


def contract_sym(f: SymTensor, g: SymTensor, r: int) -> SymTensor:
    """Symmetrized contraction f (x~)_r g.

    The raw contraction f (x)_r g has entry sum_{u in [n]^r} f(s||u) g(u||t)
    at index (s||t); it depends only on the multisets of s and t.  It is
    summed first into (sorted s, sorted t) blocks, then each block is
    weighted by its orbit sizes and symmetrized (see the module docstring
    for why this order is kept).
    """
    p, q = f.order, g.order
    if r < 0 or r > min(p, q):
        raise ValueError("invalid contraction order")
    dim = max(f.dim, g.dim)
    # Index the f side by sub-multiset u so the join is output sensitive.
    f_by_u: dict[tuple[int, ...], list[tuple[tuple[int, ...], float]]] = {}
    for kf, vf in f.coeffs.items():
        for u, s in sub_multisets(kf, r):
            f_by_u.setdefault(u, []).append((s, vf))
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    for kg, vg in g.coeffs.items():
        for u, t in sub_multisets(kg, r):
            hits = f_by_u.get(u)
            if hits is None:
                continue
            w = orbit_size(u) * vg
            for s, vf in hits:
                key = (s, t)
                blocks[key] = blocks.get(key, 0.0) + vf * w
    if p + q == 2 * r:
        val = blocks.get(((), ()), 0.0)
        return SymTensor(0, dim, {(): val} if val else {})
    acc: dict[tuple[int, ...], float] = {}
    for (s, t), v in blocks.items():
        k = tuple(sorted(s + t))
        acc[k] = acc.get(k, 0.0) + orbit_size(s) * orbit_size(t) * v
    tns = SymTensor(p + q - 2 * r, dim,
                    {k: v / orbit_size(k) for k, v in acc.items()})
    tns.prune()
    return tns


@dataclass
class Flattening:
    """Orbit-compressed order-k flattening of a symmetric tensor.

    `matrix` carries entry sqrt(orbit(s) * orbit(t)) * f(s||t) at
    (row s, col t); it has the same nonzero singular values as the full
    n^k x n^{q-k} flattening, and full singular vectors are recovered by
    spreading u(s)/sqrt(orbit(s)) across the orbit of s.
    """
    row_keys: list[tuple[int, ...]]
    col_keys: list[tuple[int, ...]]
    matrix: scipy.sparse.csr_matrix


def flattening(f: SymTensor, k: int) -> Flattening:
    if not (1 <= k <= f.order - 1):
        raise ValueError("split must be between 1 and order-1")
    rows: dict[tuple[int, ...], int] = {}
    cols: dict[tuple[int, ...], int] = {}
    ri, ci, vals = [], [], []
    for key, v in f.coeffs.items():
        for s, t in sub_multisets(key, k):
            if s not in rows:
                rows[s] = len(rows)
            if t not in cols:
                cols[t] = len(cols)
            ri.append(rows[s])
            ci.append(cols[t])
            vals.append(math.sqrt(orbit_size(s) * orbit_size(t)) * v)
    import scipy.sparse
    m = scipy.sparse.csr_matrix(
        (vals, (ri, ci)), shape=(max(len(rows), 1), max(len(cols), 1)))
    return Flattening(list(rows.keys()), list(cols.keys()), m)


@dataclass
class EigenReport:
    """Largest flattening singular value of a tensor, with witnesses."""
    value: float
    split_at: int
    left: SymTensor | None
    right: SymTensor | None


def _top_singular(fl: Flattening) -> tuple[float, np.ndarray, np.ndarray]:
    m = fl.matrix
    if m.nnz == 0:
        u = np.zeros(m.shape[0])
        v = np.zeros(m.shape[1])
        return 0.0, u, v
    if min(m.shape) < 3 or m.shape[0] * m.shape[1] <= _DENSE_SVD_CAP:
        dense = m.toarray()
        u, sv, vt = np.linalg.svd(dense, full_matrices=False)
        return float(sv[0]), u[:, 0], vt[0]
    v0 = np.ones(min(m.shape))
    import scipy.sparse.linalg
    u, sv, vt = scipy.sparse.linalg.svds(m.astype(float), k=1, v0=v0)
    return float(sv[0]), u[:, 0], vt[0]


def _witness(keys: list[tuple[int, ...]], vec: np.ndarray, order: int,
             dim: int) -> SymTensor:
    coeffs = {}
    for key, x in zip(keys, vec):
        if x != 0.0:
            coeffs[key] = x / math.sqrt(orbit_size(key))
    t = SymTensor(order, dim, coeffs)
    t.prune()
    return t


def lambda_max(f: SymTensor) -> EigenReport:
    """Max over splits k of the top singular value of the order-k flattening.

    Tensors of order <= 1 report 0 with no witnesses.  Ties between splits go
    to the smallest k; the left witness is sign-fixed so its first nonzero
    component (in key order) is positive.
    """
    if f.order <= 1 or not f.coeffs:
        return EigenReport(0.0, 0, None, None)
    best: EigenReport | None = None
    for k in range(1, f.order):
        fl = flattening(f, k)
        sv, u, v = _top_singular(fl)
        if best is None or sv > best.value * (1 + 1e-12):
            left = _witness(fl.row_keys, u, k, f.dim)
            right = _witness(fl.col_keys, v, f.order - k, f.dim)
            # Fix the overall sign: first nonzero left component positive.
            sign = 0.0
            for key in sorted(left.coeffs):
                if left.coeffs[key] != 0.0:
                    sign = 1.0 if left.coeffs[key] > 0 else -1.0
                    break
            if sign < 0:
                left = left.scale(-1.0)
                right = right.scale(-1.0)
            best = EigenReport(sv, k, left, right)
    return best


def eigenregularity(f: SymTensor) -> float:
    """lambda_max(f) / sqrt(Var[I_q(f)]); 0 for order <= 1."""
    if f.order <= 1:
        return 0.0
    var = var_of(f)
    if var <= 0.0:
        return 0.0
    return lambda_max(f).value / math.sqrt(var)
