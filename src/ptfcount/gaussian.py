"""Deterministic Gaussian-space counting.

count_gaussian computes Pr[p(x) >= 0] for x ~ N(0,1)^n to additive accuracy
eps.  Pipeline: make the polynomial multilinear (linearize), rewrite it as
an outer polynomial h over a few inner polynomials that are each exactly
Gaussian or eigenregular (regularize_poly), and replace the joint law of the
inner polynomials by N(0, Sigma) with Sigma their exact covariance matrix.
With two or more inner polynomials h's coefficients are rounded and Sigma
is rounded to a rational PSD matrix.  One integrator, integrate_gaussian,
then gives Pr[h(Y) >= 0] for Y ~ N(0, Sigma): when Sigma has rank <= 1, h
is univariate along its one direction and the answer is read off in closed
form from the real roots and the normal CDF; from rank 2 up the sharp
indicator of {h >= 0} is averaged over a fixed-seed scrambled Sobol
sequence, and reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.special
import scipy.stats

from .polynomials import Polynomial
from .chaos import to_chaos, clt_error_certificate, single_level
from .decomposition import DecompositionConfig, InnerPoly, regularize_poly
from .multilinear import linearize
from .tensors import inner as tensor_inner


# The paper's CLT bound and the covariance-rounding bound are stated for the
# indicator of {h >= 0} smoothed at scale 1/c, with c = SMOOTHING_PER_INNER
# * r, so clt_certificate (alpha_dd = 4 c^2) and covariance_rounding read
# c.  The integrator itself uses the sharp indicator.
SMOOTHING_PER_INNER = 16.0


@dataclass
class CountConfig:
    # linearization (practical caps; the certified K formula is astronomical)
    lin_term_cap: int = 4000
    lin_k_cap: int = 1_000_000
    # decomposition
    decomp: DecompositionConfig = field(default_factory=DecompositionConfig)
    # integration: closed form at rank(Sigma) <= 1, Sobol from rank 2 up
    qmc_log2_n: int = 17                 # Sobol sample budget 2^k
    psd_delta: float = 1e-12              # covariance rounding resolution
    seed: int = 0                        # Sobol scramble seed


@dataclass
class CountResult:
    value: float
    eps: float
    method: str
    budget: dict
    diagnostics: dict


# ---------------------------------------------------------------------------
# outer coefficient rounding and covariance rounding
# ---------------------------------------------------------------------------

def coefficient_grid(eps: float, d: int, r: int) -> float:
    return math.sqrt((eps / d) ** (3 * d) / (d * max(r, 1) ** d))


def round_coefficients(h: Polynomial, eps: float, d: int,
                       r: int) -> tuple[Polynomial, float]:
    grid = coefficient_grid(eps, d, r)
    out = {k: round(v / grid) * grid for k, v in h.coeffs.items()}
    out = {k: v for k, v in out.items() if v != 0.0}
    return Polynomial(h.dim, out), grid


def build_covariance(inner_polys: list[InnerPoly]) -> np.ndarray:
    r = len(inner_polys)
    sig = np.zeros((r, r))
    for i in range(r):
        for j in range(i, r):
            a, b = inner_polys[i], inner_polys[j]
            if a.level == b.level and a.level >= 1:
                v = math.factorial(a.level) * tensor_inner(a.tensor, b.tensor)
            else:
                v = 0.0
            sig[i, j] = sig[j, i] = v
    return sig


def round_psd(sigma: np.ndarray, delta: float) -> tuple[np.ndarray, dict]:
    """Round covariance entries to multiples of 1/ceil(1/delta), then shift
    the diagonal by the smallest such multiple that restores PSD-ness."""
    den = math.ceil(1.0 / delta)
    rounded = np.array([[Fraction(round(x * den), den) for x in row]
                        for row in sigma], dtype=object)
    approx = rounded.astype(float)
    shift = Fraction(0)
    for _ in range(2):
        w = np.linalg.eigvalsh(approx)
        lo = float(w[0])
        if lo >= 0.0:
            break
        add = Fraction(math.ceil(-lo * den) + 1, den)
        shift += add
        approx = approx + float(add) * np.eye(sigma.shape[0])
    info = {"denominator": den, "diag_shift": float(shift),
            "max_entry_err": float(np.max(np.abs(approx - float(shift)
                                                 * np.eye(sigma.shape[0])
                                                 - sigma)))}
    return approx, info


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _gaussian_factor(sigma: np.ndarray) -> np.ndarray:
    """L with L L^T = sigma, columns only for non-negligible eigenvalues."""
    w, v = np.linalg.eigh(sigma)
    keep = w > 1e-12 * max(float(w[-1]), 1.0)
    return v[:, keep] * np.sqrt(w[keep])


def integrate_gaussian(h: Polynomial, sigma: np.ndarray, log2_n: int,
                       seed: int) -> tuple[float, dict]:
    """Pr[h(Y) >= 0] for Y ~ N(0, sigma), with Y = L t whitened once.

    Rank 0 reads the sign of h(0), and rank 1 is exact in closed form: h(L t)
    is univariate in t ~ N(0, 1).  From rank 2 up the sharp indicator is
    averaged over 2^log2_n scrambled Sobol points.
    """
    L = _gaussian_factor(sigma)
    rank = L.shape[1]
    if rank == 0:
        return (1.0 if h.constant_term() >= 0.0 else 0.0), \
            {"rank": 0, "points": 1}
    if rank == 1:
        ht: dict[tuple[int, ...], float] = {}
        for k, v in h.coeffs.items():
            key = (1,) * len(k)
            ht[key] = ht.get(key, 0.0) + v * math.prod(L[i - 1, 0] for i in k)
        return univariate_probability(Polynomial(1, ht), 1.0), \
            {"rank": 1, "points": 0}
    return _qmc_sharp(h, L, log2_n, seed)


def _qmc_sharp(phi: Polynomial, L: np.ndarray, log2_n: int,
               seed: int) -> tuple[float, dict]:
    rank = L.shape[1]
    eng = scipy.stats.qmc.Sobol(d=rank, scramble=True, seed=seed)
    u = eng.random(1 << log2_n)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    zs = scipy.special.ndtri(u)
    x = zs @ L.T
    vals = phi.evaluate(x)
    return float(np.mean(vals >= 0.0)), {"rank": rank,
                                         "points": int(1 << log2_n)}


def univariate_probability(h: Polynomial, var: float) -> float:
    """Pr[h(Y) >= 0] for Y ~ N(0, var) and h a polynomial in y_1 alone.

    h keeps one sign between consecutive real roots, so the answer is the
    Gaussian mass Phi(b) - Phi(a) of the standardized intervals (a, b)
    between roots on which h >= 0 at an inner point.  Real parts of complex
    roots only add breakpoints, which leaves the sum unchanged.
    """
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
# the counting pipeline
# ---------------------------------------------------------------------------

def count_gaussian(p: Polynomial, eps: float = 0.05,
                   config: CountConfig | None = None) -> CountResult:
    if config is None:
        config = CountConfig()
    budget: dict = {}
    diag: dict = {}
    chaos = to_chaos(p)
    mu = chaos.mean()
    var = chaos.variance()
    if var <= 0.0:
        return CountResult(1.0 if mu >= 0.0 else 0.0, eps, "constant",
                           {"total": 0.0}, {})
    d = chaos.degree()

    work = p
    if any(len(set(k)) != len(k) for k in p.coeffs):
        lin = linearize(p, delta=eps, k_cap=config.lin_k_cap,
                        term_cap=config.lin_term_cap)
        work = lin.poly
        budget["linearize_var_ratio"] = lin.var_bound
        diag["linearize_K"] = lin.K
        chaos = to_chaos(work)
        mu = chaos.mean()
        var = chaos.variance()
        if var <= 0.0:
            return CountResult(1.0 if mu >= 0.0 else 0.0, eps, "constant",
                               budget, diag)

    normal = chaos.scale(1.0 / math.sqrt(var))
    dec = regularize_poly(normal, eps, config.decomp)
    r = len(dec.inner)
    diag["r"] = r
    diag["inner_levels"] = [ip.level for ip in dec.inner]
    diag["inner_eigenregularity"] = dec.eigen
    budget["decomposition_var_gap"] = dec.var_gap
    if dec.var_gap > 0.0:
        budget["decomposition_sign_flip"] = min(
            1.0, d * dec.var_gap ** (1.0 / (3.0 * max(d, 1))))

    if r == 0:
        val = 1.0 if dec.h.constant_term() >= 0.0 else 0.0
        budget["total"] = sum(budget.values())
        return CountResult(val, eps, "constant", budget, diag)

    c = SMOOTHING_PER_INNER * r
    h, sigma = dec.h, build_covariance(dec.inner)
    if r >= 2:
        h, grid = round_coefficients(dec.h, eps, d, r)
        if not any(k for k in h.coeffs):  # everything rounded away
            h = dec.h
            grid = 0.0
        budget["coefficient_rounding"] = grid * len(dec.h.coeffs)

        snorm = float(np.linalg.norm(sigma, 2))
        sigma, psd_info = round_psd(sigma, config.psd_delta)
        diag["psd"] = psd_info
        delta = config.psd_delta
        budget["covariance_rounding"] = (2.0 * c * r
                                         * (delta + 3.0 * math.sqrt(
                                             delta * snorm)))
    if any(ip.level >= 2 for ip in dec.inner):
        cost = sum(len(ip.tensor.coeffs) for ip in dec.inner) ** 2
        if cost <= 4 * 10 ** 6:
            cert = clt_error_certificate(
                [single_level(ip.tensor) for ip in dec.inner],
                alpha_dd=4.0 * c * c)
            budget["clt_certificate"] = cert.bound
        else:
            diag["clt_certificate"] = "skipped (support too large)"
        worst = max(dec.eigen) if dec.eigen else 0.0
        budget["clt_heuristic"] = math.sqrt(worst)

    val, qinfo = integrate_gaussian(h, sigma, config.qmc_log2_n, config.seed)
    diag["quadrature"] = qinfo
    if qinfo["rank"] <= 1:
        method = "closed_form"
    else:
        method = "qmc"
        budget["qmc_resolution"] = 4.0 / math.sqrt(qinfo["points"])

    budget["total"] = float(sum(v for v in budget.values()
                                if isinstance(v, (int, float))))
    return CountResult(float(min(max(val, 0.0), 1.0)), eps, method, budget,
                       diag)
