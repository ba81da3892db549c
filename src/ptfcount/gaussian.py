"""Deterministic Gaussian-space counting.

count_gaussian computes Pr[p(x) >= 0] for x ~ N(0,1)^n to additive accuracy
eps.  Pipeline: make the polynomial multilinear (linearize), rewrite it as
an outer polynomial h over a few inner polynomials that are each exactly
Gaussian or eigenregular (regularize_poly), and replace the joint law of the
inner polynomials by N(0, Sigma) with Sigma their exact covariance matrix.
With one inner polynomial (r = 1) h is univariate, and Pr[h(Y) >= 0] is
read off in closed form from the real roots of h and the normal CDF.
Otherwise h's coefficients are rounded, Sigma is rounded to a rational PSD
matrix, the indicator of {h >= 0} is mollified and integrated by
tensor-product quadrature.  When the decomposition emits more inner
polynomials than the grid can afford, a deterministic low-discrepancy
(Sobol) integration of the sharp indicator is used instead and reported as
such.
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


@dataclass
class CountConfig:
    # linearization (practical caps; the certified K formula is astronomical)
    lin_term_cap: int = 4000
    lin_k_cap: int = 1_000_000
    # decomposition
    decomp: DecompositionConfig = field(default_factory=DecompositionConfig)
    # mollification / quadrature
    c_scale: float = 16.0                # mollifier sharpness c = c_scale * r
    grid_dims_cap: int = 2               # tensor grid used for r <= cap
    max_grid: int = 2 * 10 ** 6          # cap on total outer grid points
    inner_grid: int = 17                 # mollifier grid points per axis
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
# mollified indicator
# ---------------------------------------------------------------------------

def _bump_constant(r: int) -> float:
    """C_r with integral of C_r (1-|x|^2)^2 over the unit r-ball equal 1."""
    omega = 2.0 * math.pi ** (r / 2.0) / math.gamma(r / 2.0)
    radial = 8.0 / (r * (r + 2) * (r + 4))
    return 1.0 / (omega * radial)


def _bump_fourier_profile(r: int, t_max: float,
                          n_t: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """Radial profile of the Fourier transform of b on t in [0, t_max].

    b(x) = sqrt(C_r) (1 - |x|^2) on the unit ball; with the unitary
    convention, bhat(t) = t^{-(r/2-1)} int_0^1 b(s) J_{r/2-1}(st) s^{r/2} ds.
    """
    ts = np.linspace(0.0, t_max, n_t)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    bs = math.sqrt(_bump_constant(r)) * (1.0 - s * s)
    nu = r / 2.0 - 1.0
    out = np.empty(n_t)
    for i, t in enumerate(ts):
        if t < 1e-9:
            # J_nu(z) ~ (z/2)^nu / Gamma(nu+1)
            integ = np.sum(w * bs * s ** (r - 1)) / (2.0 ** nu
                                                     * math.gamma(nu + 1.0))
            out[i] = integ
        else:
            j = scipy.special.jv(nu, s * t)
            out[i] = t ** (-nu) * np.sum(w * bs * j * s ** (r / 2.0))
    return ts, out


@dataclass
class MollifiedIndicator:
    """g~_c = 1{phi >= 0} convolved with the density B_c.

    B_c(x) = c^r bhat(c|x|)^2 where bhat is the Fourier transform of the
    L2-normalized bump sqrt(C_r)(1 - |x|^2) 1{|x| <= 1}.  The convolution is
    evaluated on a tensor grid over [-W, W]^r holding all but xi of B_c's
    mass.  First and second derivatives of g~_c are bounded by 2c and 4c^2.
    """
    phi: Polynomial
    r: int
    c: float
    xi: float = 1e-3
    inner_grid: int = 17
    W: float = 0.0
    _pts: np.ndarray | None = None
    _wts: np.ndarray | None = None

    def __post_init__(self):
        ts, prof = _bump_fourier_profile(self.r, t_max=200.0)
        # radial cumulative mass of bhat^2 to find the xi/2 tail radius
        omega = 2.0 * math.pi ** (self.r / 2.0) / math.gamma(self.r / 2.0)
        dens = omega * ts ** (self.r - 1) * prof ** 2
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(ts))])
        total = cum[-1]
        idx = int(np.searchsorted(cum, total * (1.0 - min(self.xi, 0.5))))
        t_cut = ts[min(idx, len(ts) - 1)]
        self.W = max(t_cut / self.c, 1e-9)
        # tensor grid of B_c over [-W, W]^r with normalized weights
        g = self.inner_grid
        ax = np.linspace(-self.W, self.W, g)
        grids = np.meshgrid(*([ax] * self.r), indexing="ij")
        pts = np.stack([a.ravel() for a in grids], axis=1)
        rad = np.linalg.norm(pts, axis=1)
        prof_at = np.interp(self.c * rad, ts, prof, right=0.0)
        wts = (self.c ** self.r) * prof_at ** 2
        ssum = wts.sum()
        if ssum <= 0:
            raise RuntimeError("mollifier weight grid degenerated")
        self._pts = pts
        self._wts = wts / ssum

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate g~_c on points x of shape (N, r); output in [0, 1]."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        m = self._pts.shape[0]
        out = np.empty(n)
        chunk = max(1, (4 * 10 ** 6) // m)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            shifted = x[lo:hi, None, :] - self._pts[None, :, :]
            flat = shifted.reshape(-1, self.r)
            vals = self.phi.evaluate(flat).reshape(hi - lo, m)
            out[lo:hi] = (vals >= 0.0) @ self._wts
        return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _gaussian_factor(sigma: np.ndarray) -> np.ndarray:
    """L with L L^T = sigma, columns only for non-negligible eigenvalues."""
    w, v = np.linalg.eigh(sigma)
    keep = w > 1e-12 * max(float(w[-1]), 1.0)
    return v[:, keep] * np.sqrt(w[keep])


def integrate_gaussian(m: MollifiedIndicator, sigma: np.ndarray, eps: float,
                       max_grid: int = 2 * 10 ** 6) -> tuple[float, dict]:
    """E[g~_c(G)] for G ~ N(0, sigma) by tensor-product trapezoid rule.

    The grid covers [-Z, Z]^rank in whitened coordinates with
    Z = sqrt(2 ln(2 rank / eps)); weights are normalized so a constant
    integrand is exact.  Raises if the requested resolution exceeds
    max_grid total points (the required size is reported).
    """
    L = _gaussian_factor(sigma)
    rank = L.shape[1]
    if rank == 0:
        val = float(m(np.zeros((1, sigma.shape[0])))[0])
        return val, {"rank": 0, "points": 1}
    z = math.sqrt(2.0 * math.log(2.0 * max(rank, 1) / min(eps, 0.5)))
    # resolve the mollification scale 1/c along every direction
    scale = max(float(np.max(np.abs(L))), 1e-9)
    step = min(0.25 / (m.c * scale), 0.1)
    g = int(2 * math.ceil(z / step) + 1)
    if g ** rank > max_grid:
        need = g ** rank
        raise RuntimeError(
            f"quadrature grid of {need} points exceeds the cap {max_grid}")
    ax = np.linspace(-z, z, g)
    dens = np.exp(-0.5 * ax * ax)
    grids = np.meshgrid(*([ax] * rank), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1)
    wgrids = np.meshgrid(*([dens] * rank), indexing="ij")
    wts = np.ones(pts.shape[0])
    for a in wgrids:
        wts = wts * a.ravel()
    wts /= wts.sum()
    vals = m(pts @ L.T)
    return float(vals @ wts), {"rank": rank, "points": int(pts.shape[0]),
                               "z": z, "per_axis": g}


def _qmc_sharp(phi: Polynomial, sigma: np.ndarray, log2_n: int,
               seed: int) -> tuple[float, dict]:
    L = _gaussian_factor(sigma)
    rank = L.shape[1]
    if rank == 0:
        val = 1.0 if phi.evaluate(np.zeros((1, sigma.shape[0])))[0] >= 0 \
            else 0.0
        return float(val), {"rank": 0, "points": 1}
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

    c = config.c_scale * r
    if r == 1:
        # the closed form below is exact: no rounding of h or of Sigma
        h, sigma = dec.h, build_covariance(dec.inner)
    else:
        h, grid = round_coefficients(dec.h, eps, d, r)
        if not any(k for k in h.coeffs):  # everything rounded away
            h = dec.h
            grid = 0.0
        budget["coefficient_rounding"] = grid * len(dec.h.coeffs)

        sigma = build_covariance(dec.inner)
        sigma_r, psd_info = round_psd(sigma, config.psd_delta)
        diag["psd"] = psd_info
        snorm = float(np.linalg.norm(sigma, 2))
        delta = config.psd_delta
        budget["covariance_rounding"] = (2.0 * c * r
                                         * (delta + 3.0 * math.sqrt(
                                             delta * snorm)))
    cert = None
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

    if r == 1:
        method = "closed_form"
        val = univariate_probability(h, float(sigma[0, 0]))
    else:
        method = "grid"
        try:
            if r > config.grid_dims_cap:
                raise RuntimeError(f"{r} inner polynomials exceed the grid "
                                   f"dimension cap {config.grid_dims_cap}")
            moll = MollifiedIndicator(h, r, c, inner_grid=config.inner_grid)
            budget["mollifier_tail"] = moll.xi
            budget["mollification"] = min(1.0, 2.0 / c)
            val, qinfo = integrate_gaussian(moll, sigma_r, eps,
                                            max_grid=config.max_grid)
            diag["quadrature"] = qinfo
        except RuntimeError as exc:
            method = "qmc"
            diag["grid_fallback_reason"] = str(exc)
            val, qinfo = _qmc_sharp(h, sigma_r, config.qmc_log2_n,
                                    config.seed)
            diag["quadrature"] = qinfo
            budget["qmc_resolution"] = 4.0 / math.sqrt(qinfo["points"])

    budget["total"] = float(sum(v for v in budget.values()
                                if isinstance(v, (int, float))))
    return CountResult(float(min(max(val, 0.0), 1.0)), eps, method, budget,
                       diag)
