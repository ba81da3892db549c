"""Deterministic Gaussian-space counting.

count_gaussian computes Pr[p(x) >= 0] for x ~ N(0,1)^n to additive accuracy
eps.

Degree <= 2 is counted in closed form (count_quadratic).  p = c + b.x +
x^T A x is read straight off its coefficients (x_i^2 on A's diagonal, half
of each x_i x_j on A_ij and A_ji), and one eigh of A = V diag(lam) V^T
rotates it to independent coordinates z = V^T x.  Completing the square
along each nonzero eigenvalue gives p = c' + sum_j lam_j (z_j + delta_j)^2
+ s0 w: a weighted sum of noncentral chi^2_1 terms plus one N(0, s0^2) term
that pools the linear part along A's kernel.  At rank <= 1 that is a
univariate polynomial in one standard normal, exact by
univariate_probability.  From rank 2 up, Pr[p >= 0] is the Gil-Pelaez
integral 1/2 + (1/pi) int_0^inf Im phi(u) / u du of the explicit
characteristic function phi, summed by Davies's trapezoid rule at the
half-integer nodes (k + 1/2) Delta.  Its two errors have explicit bounds:
discretisation is at most Pr[p <= -2 pi / Delta] + Pr[p >= 2 pi / Delta],
bounded by Chernoff, and truncation at U is at most (1/pi) int_U^inf
|phi(u)| / u du.  Delta and U are chosen so that their sum, reported as the
certified budget entry "quadratic_form", is at most eps / 1000.  When a
Chernoff bound on the tail at 0 opposite the constant's sign is already
that small, the constant's sign is returned with that bound instead.
Nothing is linearized, decomposed or rounded on this route.

From degree 3 up, integrate_gaussian integrates p itself: it relabels the m
variables p touches as 1..m and returns the sign of the constant at m = 0,
the closed form of univariate_probability at m = 1, and from m = 2 up the
sharp indicator of {p >= 0} averaged over a fixed-seed scrambled Sobol
sequence, reported as such.  The 2^QMC_LOG2_N normal points depend on m
alone, so _sobol_normals builds each m's table once per process (m MiB,
column-major, read-only; the four most recently used m are kept) and every
call on m variables evaluates p on that same table.  The paper's route
(linearize, the decomposition into eigenregular inner polynomials, the CLT
and a Gaussian integral over their covariance Sigma) is not on this path.
It stays in the library and behind the decompose, eigreg and clt-bound
commands.  A census of the criterion-5 inputs and wide sparse draws found
that it buys nothing here: its certificates read 10^5 to 10^7, far above any
eps; at an eps-derived regularity target every inner polynomial ends at
level 1 with r >= n, so it no longer reduces dimension; and at a looser
target it accepted level-3/4 remainders at eigenregularity 0.1 as Gaussian
and missed by up to 0.1.  The same Sobol points on p came within 0.0015 of a
2*10^6-sample Monte Carlo on all 17 degree >= 3 criterion-5 inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# scipy is imported inside the functions that use it: loading scipy.stats,
# scipy.special and scipy.sparse takes about 70 MB and 1 s, which Boolean
# counts and moments that never reach a Gaussian leaf should not pay

from .polynomials import Polynomial
from .tensors import SymTensor, inner as tensor_inner


# From two variables up, integrate_gaussian averages over 2^QMC_LOG2_N Sobol
# points scrambled with seed QMC_SEED.
QMC_LOG2_N = 17
QMC_SEED = 0
# Sobol points drawn and mapped per call while filling _sobol_normals's table.
# The chunks give the points of one full draw; a power of two divides
# 2^QMC_LOG2_N and keeps scipy from warning about Sobol's balance.
SOBOL_CHUNK = 1 << 12

# Degree <= 2 (count_quadratic): the quadrature's certified error target is
# eps * QUADRATIC_TARGET, split evenly between discretisation and truncation.
QUADRATIC_TARGET = 1e-3
# Eigenvalues of A below this share of max |lam| are eigh's rounding noise
# on A's kernel and count as zero.
EIGEN_CUTOFF = 1e-10
# Nodes summed per numpy call: at most BLOCK_NODES, and at most
# BLOCK_ENTRIES node-eigenvalue pairs, so memory stays a few MB.
BLOCK_NODES = 1 << 14
BLOCK_ENTRIES = 1 << 18
# The truncation point never needs more nodes than this on inputs with
# well-separated eigenvalues; past it the bound reached is reported as is.
NODE_CAP = 1 << 22
# Chernoff parameters s (for the unit-variance form) and candidate truncation
# points U, each grid tried all at once in one numpy call.
_CHERNOFF_S = 2.0 ** (np.arange(-32, 41) / 4.0)
_CHERNOFF_EDGE = 1.0 - 2.0 ** (-np.arange(1, 61) / 2.0)
_TRUNCATION_U = 2.0 ** (np.arange(-16, 161) / 4.0)


@dataclass
class CountResult:
    value: float
    eps: float
    method: str
    budget: dict
    diagnostics: dict


# ---------------------------------------------------------------------------
# covariance and its rounding: the covariance Sigma of the paper's inner
# polynomials, off the count path.  perfbench/tracer.py still wraps both by
# name.
# ---------------------------------------------------------------------------

def build_covariance(inner_polys: list[SymTensor]) -> np.ndarray:
    r = len(inner_polys)
    sig = np.zeros((r, r))
    for i in range(r):
        for j in range(i, r):
            a, b = inner_polys[i], inner_polys[j]
            if a.order == b.order and a.order >= 1:
                v = math.factorial(a.order) * tensor_inner(a, b)
            else:
                v = 0.0
            sig[i, j] = sig[j, i] = v
    return sig


def round_psd(sigma: np.ndarray, delta: float) -> tuple[np.ndarray, dict]:
    """Round covariance entries to multiples of 1/ceil(1/delta), then shift
    the diagonal by the smallest such multiple that restores PSD-ness."""
    den = math.ceil(1.0 / delta)
    # entries are at most 1 in absolute value, so round(sigma * den) is an
    # exact integer below 2^53 and its quotient by den is correctly rounded
    approx = np.round(sigma * den) / den
    eye = np.eye(sigma.shape[0])
    shift = 0  # in units of 1/den
    for _ in range(2):
        lo = float(np.linalg.eigvalsh(approx)[0])
        if lo >= 0.0:
            break
        add = math.ceil(-lo * den) + 1
        shift += add
        approx = approx + (add / den) * eye
    info = {"denominator": den, "diag_shift": shift / den,
            "max_entry_err": float(np.max(np.abs(approx - shift / den * eye
                                                 - sigma)))}
    return approx, info


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate_gaussian(h: Polynomial) -> tuple[float, dict]:
    """Pr[h(x) >= 0] for x ~ N(0, I) on the m variables h touches.

    Those variables are relabelled 1..m.  m = 0 reads the sign of the
    constant, and m = 1 is exact in closed form by univariate_probability.
    From m = 2 up the sharp indicator is averaged over 2^QMC_LOG2_N Sobol
    points scrambled with seed QMC_SEED, mapped to normals once per process
    for each m by _sobol_normals, so the answer does not depend on which
    calls came before.
    """
    support = sorted(h.support_vars())
    m = len(support)
    if m == 0:
        return (1.0 if h.constant_term() >= 0.0 else 0.0), \
            {"m": 0, "points": 1}
    pos = {v: j for j, v in enumerate(support, start=1)}
    h = Polynomial(m, {tuple(pos[i] for i in k): v
                       for k, v in h.coeffs.items()})
    if m == 1:
        return univariate_probability(h, 1.0), {"m": 1, "points": 0}
    return _qmc_sharp(h, m)


def _qmc_sharp(phi: Polynomial, m: int) -> tuple[float, dict]:
    vals = phi.evaluate(_sobol_normals(m))
    return float(np.mean(vals >= 0.0)), {"m": m, "points": 1 << QMC_LOG2_N}


@functools.lru_cache(maxsize=4)
def _sobol_normals(m: int) -> np.ndarray:
    """The 2^QMC_LOG2_N scrambled Sobol points in m dimensions, mapped to
    N(0, I) by ndtri, as a read-only (2^QMC_LOG2_N, m) array.

    It depends on m alone, so it is drawn once per process for each of the
    four most recently used m.  The array is Fortran-ordered, so
    Polynomial.evaluate's x[:, i-1] reads one contiguous column, and it is
    filled SOBOL_CHUNK rows at a time, so filling it needs no second
    full-size array.
    """
    import scipy.special
    import scipy.stats
    eng = scipy.stats.qmc.Sobol(d=m, scramble=True, seed=QMC_SEED)
    n = 1 << QMC_LOG2_N
    table = np.empty((n, m), order="F")
    for lo in range(0, n, SOBOL_CHUNK):
        u = eng.random(SOBOL_CHUNK)
        np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
        scipy.special.ndtri(u, out=table[lo:lo + SOBOL_CHUNK])
    table.setflags(write=False)
    return table


def univariate_probability(h: Polynomial, var: float) -> float:
    """Pr[h(Y) >= 0] for Y ~ N(0, var) and h a polynomial in y_1 alone.

    h keeps one sign between consecutive real roots, so the answer is the
    Gaussian mass Phi(b) - Phi(a) of the standardized intervals (a, b)
    between roots on which h >= 0 at an inner point.  Real parts of complex
    roots only add breakpoints, which leaves the sum unchanged.
    """
    import scipy.special
    coef = np.zeros(h.degree() + 1)
    for k, v in h.coeffs.items():
        coef[len(k)] += v
    if var <= 0.0:
        return 1.0 if coef[0] >= 0.0 else 0.0
    s = math.sqrt(var)
    cuts = np.unique(np.roots(coef[::-1]).real) / s
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    inside = np.concatenate([cuts[:1] - 1.0, 0.5 * (cuts[1:] + cuts[:-1]),
                             cuts[-1:] + 1.0]) if cuts.size else np.zeros(1)
    keep = np.polynomial.polynomial.polyval(s * inside, coef) >= 0.0
    mass = scipy.special.ndtr(edges[1:]) - scipy.special.ndtr(edges[:-1])
    return float(np.sum(mass[keep]))


# ---------------------------------------------------------------------------
# degree <= 2 in closed form
# ---------------------------------------------------------------------------

def quadratic_form(p: Polynomial) -> tuple[float, np.ndarray, np.ndarray,
                                             float]:
    """(c, lam, beta, s0) with p(x) = c + sum_j (lam_j z_j^2 + beta_j z_j)
    + s0 w in law, for p of degree <= 2 and z, w independent N(0, 1).

    lam holds the eigenvalues of A above EIGEN_CUTOFF and beta the matching
    entries of V^T b.  The rest of b, along A's kernel and on the variables
    that appear only linearly, pools into s0.  Completing the square,
    lam_j z_j^2 + beta_j z_j = lam_j (z_j + delta_j)^2 - lam_j delta_j^2 with
    delta_j = beta_j / (2 lam_j); the pair (lam_j, beta_j) is kept because
    it stays well conditioned as lam_j shrinks.
    """
    quad = sorted({i for k in p.coeffs if len(k) == 2 for i in k})
    pos = {v: j for j, v in enumerate(quad)}
    a = np.zeros((len(quad), len(quad)))
    b = np.zeros(len(quad))
    c = 0.0
    s0_sq = 0.0
    for k, v in p.coeffs.items():
        if len(k) == 0:
            c += v
        elif len(k) == 1 and k[0] in pos:
            b[pos[k[0]]] += v
        elif len(k) == 1:
            s0_sq += v * v
        else:
            i, j = pos[k[0]], pos[k[1]]
            a[i, j] += 0.5 * v
            a[j, i] += 0.5 * v
    lam, vecs = np.linalg.eigh(a)
    beta = vecs.T @ b
    keep = np.abs(lam) > EIGEN_CUTOFF * np.max(np.abs(lam), initial=0.0)
    s0 = math.sqrt(s0_sq + float(np.sum(beta[~keep] ** 2)))
    return c, lam[keep], beta[keep], s0


def _log_mgf(s: np.ndarray, c: float, lam: np.ndarray, beta: np.ndarray,
             s0: float) -> np.ndarray:
    """log E exp(s Q) for each s, +inf where it diverges, with Q = c +
    sum_j (lam_j z_j^2 + beta_j z_j) + s0 w the form of quadratic_form."""
    w = 1.0 - 2.0 * np.outer(s, lam)
    ok = np.all(w > 0.0, axis=1)
    w = np.where(ok[:, None], w, 1.0)
    k = s * c + 0.5 * s0 * s0 * s * s + np.sum(
        -0.5 * np.log(w) + 0.5 * beta * beta * (s * s)[:, None] / w, axis=1)
    return np.where(ok, k, np.inf)


def _chernoff_span(c: float, lam: np.ndarray, beta: np.ndarray, s0: float,
                   tail: float) -> tuple[float, float, list[float]]:
    """(T, bound, at_zero): a T with Pr[Q >= T] and Pr[Q <= -T] each at most
    `tail` by Chernoff, the sum of the two Chernoff bounds at that T, and
    the Chernoff bounds on Pr[Q >= 0] and Pr[Q <= 0].

    For each s of one fixed grid, Pr[Q >= T] <= exp(K(s) - s T) with K the
    log-MGF, so T = min_s (K(s) - log tail) / s meets the target; -Q gives
    the lower tail.  Each side's grid, with points added next to its pole
    1 / (2 lam_max), is evaluated in one numpy call.
    """
    sides = []
    for sign in (1.0, -1.0):
        top = float(np.max(sign * lam, initial=0.0))
        s = _CHERNOFF_S
        if top > 0.0:
            s = np.concatenate([s, _CHERNOFF_EDGE / (2.0 * top)])
        sides.append((s, _log_mgf(sign * s, c, lam, beta, s0)))
    span = max(float(np.min((k - math.log(tail)) / s)) for s, k in sides)
    bound = sum(math.exp(float(np.min(k - s * span))) for s, k in sides)
    at_zero = [math.exp(float(np.min(k))) for _, k in sides]
    return span, bound, at_zero


def _truncation_bound(cut: np.ndarray, lam: np.ndarray, beta: np.ndarray,
                      s0: float) -> np.ndarray:
    """Upper bounds on (1/pi) int_U^inf |phi(u)| / u du for each U in cut.

    |phi(u)| = prod_j (1 + 4 lam_j^2 u^2)^(-1/4)
    exp(-beta_j^2 u^2 / (2 (1 + 4 lam_j^2 u^2))) * exp(-s0^2 u^2 / 2).  For
    u >= U each noncentral factor exp(...) is at most its value at U, each
    chi^2 factor with 2 |lam_j| U > 1 (m_S of them) is at most
    (2 |lam_j| u)^(-1/2) and the other chi^2 factors are at most 1.  What is
    left to integrate is u^(-1 - m_S/2), giving (2/m_S) U^(-m_S/2), or, with
    the s0 factor kept, at most U^(-1 - m_S/2) sqrt(2 pi) / s0 Phi(-s0 U);
    the smaller is used.
    """
    al = 2.0 * np.abs(lam)
    big = np.outer(cut, al) > 1.0
    m_s = np.sum(big, axis=1)
    log_front = (np.sum(np.where(big, -0.5 * np.log(al), 0.0), axis=1)
                 - np.sum(0.5 * beta * beta * (cut * cut)[:, None]
                          / (1.0 + np.outer(cut, al) ** 2), axis=1)
                 - math.log(math.pi))
    pure = np.where(m_s > 0, np.log(2.0 / np.maximum(m_s, 1))
                    - 0.5 * m_s * np.log(cut), np.inf)
    if s0 > 0.0:
        import scipy.special
        damped = (math.log(math.sqrt(2.0 * math.pi) / s0)
                  - (1.0 + 0.5 * m_s) * np.log(cut)
                  + scipy.special.log_ndtr(-s0 * cut))
        pure = np.minimum(pure, damped)
    return np.exp(log_front + pure)


def _gil_pelaez_sum(c: float, lam: np.ndarray, beta: np.ndarray, s0: float,
                    step: float, nodes: int) -> float:
    """1/2 + (1/pi) sum_{k < nodes} Im phi(u_k) / (k + 1/2), u_k = (k + 1/2)
    step, with phi the characteristic function of Q, in bounded blocks."""
    b2 = (beta * beta)[:, None]
    block = max(1, min(BLOCK_NODES, BLOCK_ENTRIES // max(lam.size, 1)))
    total = 0.0
    for start in range(0, nodes, block):
        k = np.arange(start, min(start + block, nodes)) + 0.5
        u = k * step
        w = 2.0 * np.outer(lam, u)
        g = 1.0 / (1.0 + w * w)
        bu = b2 * (u * u)
        theta = u * c + np.sum(0.5 * np.arctan(w) - 0.5 * bu * w * g, axis=0)
        rho = (-np.sum(0.25 * np.log1p(w * w) + 0.5 * bu * g, axis=0)
               - 0.5 * s0 * s0 * u * u)
        total += float(np.sum(np.exp(rho) * np.sin(theta) / k))
    return 0.5 + total / math.pi


def count_quadratic(p: Polynomial, eps: float) -> CountResult:
    """Pr[p(x) >= 0] for p of degree <= 2 and x ~ N(0,1)^n.

    Rank 0 is a constant, rank 1 is exact by univariate_probability, and
    from rank 2 up Davies's rule gives the answer with the certified error
    budget["quadratic_form"] <= eps * QUADRATIC_TARGET (up to floating-point
    rounding; past NODE_CAP nodes the bound reached is reported instead).
    From rank 2 up, when the Chernoff bound on Pr[sign(p) != sign(c)] is
    already below that target, the sign of c is returned with that bound.
    """
    c, lam, beta, s0 = quadratic_form(p)
    m = int(lam.size)
    diag = {"m": m, "s0": s0, "nodes": 0}
    rank = m + (s0 > 0.0)
    if rank == 0:
        return CountResult(1.0 if c >= 0.0 else 0.0, eps, "constant",
                           {"total": 0.0}, diag)
    if rank == 1:
        # c + lam_1 z^2 + beta_1 z when m = 1, c + s0 z when m = 0
        h = Polynomial(1, {(): c, (1, 1): float(np.sum(lam)),
                           (1,): float(np.sum(beta)) + s0})
        value, bound = univariate_probability(h, 1.0), 0.0
    else:
        scale = math.sqrt(2.0 * float(np.sum(lam * lam))
                          + float(np.sum(beta * beta)) + s0 * s0)
        c, lam, beta, s0 = c / scale, lam / scale, beta / scale, s0 / scale
        half = 0.5 * eps * QUADRATIC_TARGET
        span, disc, at_zero = _chernoff_span(c, lam, beta, s0, 0.5 * half)
        # the sign of c is wrong with at most the tail at 0 opposite it
        tail = at_zero[1] if c > 0.0 else at_zero[0]
        if c != 0.0 and tail <= eps * QUADRATIC_TARGET:
            return CountResult(1.0 if c > 0.0 else 0.0, eps,
                               "quadratic_form",
                               {"quadratic_form": tail, "total": tail}, diag)
        step = 2.0 * math.pi / span
        trunc = _truncation_bound(_TRUNCATION_U, lam, beta, s0)
        meets = np.flatnonzero(trunc <= half)
        cut = _TRUNCATION_U[meets[0] if meets.size else -1]
        nodes = math.ceil(cut / step + 0.5)
        if nodes > NODE_CAP:
            nodes = NODE_CAP
            cut = (nodes - 0.5) * step
        bound = disc + float(_truncation_bound(np.array([cut]), lam, beta,
                                               s0)[0])
        value = _gil_pelaez_sum(c, lam, beta, s0, step, nodes)
        diag["nodes"] = nodes
    return CountResult(float(min(max(value, 0.0), 1.0)), eps,
                       "quadratic_form",
                       {"quadratic_form": bound, "total": bound}, diag)


# ---------------------------------------------------------------------------
# the counting pipeline
# ---------------------------------------------------------------------------

def count_gaussian(p: Polynomial, eps: float = 0.05) -> CountResult:
    """Pr[p(x) >= 0] for x ~ N(0,1)^n: count_quadratic at degree <= 2,
    integrate_gaussian on p itself from degree 3 up."""
    if p.degree() <= 2:
        return count_quadratic(p, eps)
    val, qinfo = integrate_gaussian(p)
    if qinfo["m"] <= 1:
        method, budget = "closed_form", {"total": 0.0}
    else:
        res = 4.0 / math.sqrt(qinfo["points"])
        method, budget = "qmc", {"qmc_resolution": res, "total": res}
    return CountResult(float(min(max(val, 0.0), 1.0)), eps, method, budget,
                       {"quadrature": qinfo})
