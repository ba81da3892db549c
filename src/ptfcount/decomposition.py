"""Decomposition of Gaussian polynomials into products of simpler pieces.

The end product (regularize_poly) rewrites a degree-d polynomial p as

    p(x) ~= h(A_1(x), ..., A_r(x))

where h is a multilinear "outer" polynomial, each inner A_i lives in a
single Wiener chaos with unit variance, and every A_i is either degree <= 1
(exactly Gaussian) or eigenregular.  Each A_i, and each piece P or Q of a
split, is kept as the plain unit-variance SymTensor f with A_i = I_q(f),
and its chaos level q is f.order.

The construction is one recursion over chaos levels.  split_one_wiener
peels one product pair P Q off a single chaos element, decompose_one_wiener
iterates that with projections, and multi_regularize_one_wiener drives
every input of one chaos level through a shared decreasing schedule of
eigenregularity thresholds.
multi_regularize_many_wieners splits the top level d that way, recurses at
level d - 1 on the inputs truncated below d together with every P and Q,
and composes level d from what the recursion returns.  Levels 0 and 1 are
read only where the recursion reaches d <= 1: each mean becomes a constant
and each level-1 slice, at unit variance, one inner polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial
from .tensors import (
    SymTensor,
    contract_sym,
    eigenregularity,
    lambda_max,
    orbit_size,
    sub_multisets,
    var_of,
    wiener_inner,
)
from .chaos import ChaosDecomposition, single_level

# Constant in the iteration bound m <= M_SLACK * (4^q / eta^2) * log(1/eps)
# for decompose_one_wiener.
M_SLACK = 8

# The default schedule starts at ETA0 and shrinks eta by ETA_RATIO per step
# down to ETA_MIN.
ETA0 = 0.2
ETA_RATIO = 0.5
ETA_MIN = 0.05


def make_schedule(eps: float, r: int, eta0: float = ETA0) -> list[float]:
    """Decreasing eigenregularity thresholds eta_1 >= ... >= eta_K.

    K is large enough that the variance decay (1-eps)^i forces an exit
    before exhaustion; after ETA_MIN is reached the schedule stays flat.
    """
    K = max(4, math.ceil(max(r, 1) / eps * math.log(1.0 / eps)) + 1)
    K = min(K, 4000)
    out = []
    eta = eta0
    for _ in range(K):
        out.append(eta)
        eta = max(ETA_MIN, eta * ETA_RATIO)
    return out


# ---------------------------------------------------------------------------
# split one wiener
# ---------------------------------------------------------------------------

@dataclass
class SplitOutcome:
    eigenregular: bool
    lam: float                       # lambda_max of the input
    c: float = 0.0
    p: SymTensor | None = None
    q: SymTensor | None = None
    product: SymTensor | None = None  # tensor of P*Q (unit variance)


def _partition_terms(f: SymTensor, alpha: SymTensor, beta: SymTensor):
    """Objective terms for the partition search.

    <f, (alpha|A1) (x) (beta|A2)> = sum over canonical keys kf and splits
    (s,t) of orbit(s) orbit(t) f[kf] alpha[s] beta[t] [vars(s) in A1]
    [vars(t) in A2].  Terms whose s and t parts share a variable can never
    fire and are dropped.
    """
    q1 = alpha.order
    terms = []
    for kf, vf in f.coeffs.items():
        for s, t in sub_multisets(kf, q1):
            a = alpha.coeffs.get(s)
            if a is None:
                continue
            b = beta.coeffs.get(t)
            if b is None:
                continue
            vs, vt = frozenset(s), frozenset(t)
            if vs & vt:
                continue
            w = orbit_size(s) * orbit_size(t) * vf * a * b
            if w != 0.0:
                terms.append((w, vs, vt))
    return terms


def derandomized_partition(f: SymTensor, alpha: SymTensor,
                           beta: SymTensor) -> tuple[set[int], set[int]]:
    """Deterministic variable partition (A1, A2) for
    <f, alpha|A1 (x) beta|A2>.

    The method of conditional expectations over independent fair coin flips
    (one per variable, heads for A1): each variable in turn goes to the side
    that does not lower the conditional expectation, so the result attains
    at least the coin-flip average sum_w w 2^-|vars(w)|.
    """
    terms = _partition_terms(f, alpha, beta)
    support = f.support_vars() | alpha.support_vars() | beta.support_vars()
    if not terms:
        return set(support), set()
    by_var: dict[int, list[int]] = {}
    for idx, (_, vs, vt) in enumerate(terms):
        for v in vs | vt:
            by_var.setdefault(v, []).append(idx)
    pr = [0.5 ** len(vs | vt) for _, vs, vt in terms]  # Pr[term fires]
    a1 = set()
    for v in sorted(by_var):
        # E[obj | v -> A1] - E[obj | v -> A2], up to a factor of 2
        gain = 0.0
        for idx in by_var[v]:
            w, vs, _ = terms[idx]
            gain += w * pr[idx] if v in vs else -w * pr[idx]
        to_a1 = gain >= 0.0
        if to_a1:
            a1.add(v)
        for idx in by_var[v]:
            same_side = (v in terms[idx][1]) == to_a1
            pr[idx] = 2.0 * pr[idx] if same_side else 0.0
    return a1, set(support) - a1


def partition_objective(f: SymTensor, alpha: SymTensor, beta: SymTensor,
                        a1: set[int], a2: set[int]) -> float:
    tot = 0.0
    for w, vs, vt in _partition_terms(f, alpha, beta):
        if vs <= a1 and vt <= a2:
            tot += w
    return tot


def split_one_wiener(f: SymTensor, eta: float) -> SplitOutcome:
    """Peel one product of lower-order chaos elements off I_q(f).

    Input must have Var[I_q(f)] = 1.  Either reports eigenregularity
    (lambda_max(f) < eta) or returns c, P, Q and the tensor u of P Q with
    Var[P] = Var[Q] = Var[PQ] = 1, P and Q over disjoint variables and
    c >= eta/2^q; the remainder R = f - c u has Var[I_q(R)] = 1 - c^2.
    """
    rep = lambda_max(f)
    if rep.value < eta:
        return SplitOutcome(True, rep.value)
    alpha, beta = rep.left, rep.right
    if f.is_multilinear():
        # witnesses can be taken multilinear without shrinking the objective
        alpha = alpha.zero_diagonal()
        beta = beta.zero_diagonal()
        na, nb = math.sqrt(alpha.norm_sq()), math.sqrt(beta.norm_sq())
        if na == 0.0 or nb == 0.0:
            return SplitOutcome(True, rep.value)
        alpha, beta = alpha.scale(1 / na), beta.scale(1 / nb)
    a1, a2 = derandomized_partition(f, alpha, beta)
    nu1 = alpha.restrict_vars(a1)
    nu2 = beta.restrict_vars(a2)
    n1, n2 = math.sqrt(nu1.norm_sq()), math.sqrt(nu2.norm_sq())
    if n1 == 0.0 or n2 == 0.0:
        return SplitOutcome(True, rep.value)
    q1, q2 = alpha.order, beta.order
    g1 = nu1.scale(1.0 / (math.sqrt(math.factorial(q1)) * n1))
    g2 = nu2.scale(1.0 / (math.sqrt(math.factorial(q2)) * n2))
    u = contract_sym(g1, g2, 0)  # tensor of P*Q, unit variance
    c = wiener_inner(f, u)
    return SplitOutcome(False, rep.value, c, g1, g2, u)


# ---------------------------------------------------------------------------
# decompose one wiener
# ---------------------------------------------------------------------------

@dataclass
class DecomposeOutcome:
    status: str  # "small-remainder" | "eigenregular"
    triples: list[tuple[float, SymTensor, SymTensor]]
    products: list[SymTensor]   # unit-variance tensors of P_j Q_j
    remainder: SymTensor
    remainder_eig: float        # lambda_max of normalized remainder

    def product_part(self) -> SymTensor | None:
        out = None
        for (c, _, _), u in zip(self.triples, self.products):
            out = u.scale(c) if out is None else out.add(u, c)
        return out

    def sum_c_sq(self) -> float:
        return sum(c * c for c, _, _ in self.triples)


def decompose_max_iter(q: int, eta: float, eps: float) -> int:
    return max(1, math.ceil(M_SLACK * (4.0 ** q / eta ** 2)
                            * math.log(1.0 / eps)))


def decompose_one_wiener(f: SymTensor, eta: float,
                         eps: float) -> DecomposeOutcome:
    """Iterated splitting with reprojection.

    Input has Var[I_q(f)] = 1.  Returns triples (c_j, P_j, Q_j) and a
    remainder g with I_q(f) = sum c_j P_j Q_j + I_q(g), where g is
    orthogonal to every P_j Q_j, and either Var[g] <= eps
    ("small remainder") or g/sd(g) is eta-eigenregular ("eigenregular").
    """
    m_max = decompose_max_iter(f.order, eta, eps)
    products: list[SymTensor] = []
    pq: list[tuple[SymTensor, SymTensor]] = []
    g = f.copy()
    coeffs: list[float] = []
    while True:
        varg = var_of(g)
        if varg <= eps:
            return DecomposeOutcome(
                "small-remainder",
                [(c, p_, q_) for c, (p_, q_) in zip(coeffs, pq)],
                products, g, 0.0)
        ghat = g.scale(1.0 / math.sqrt(varg))
        out = split_one_wiener(ghat, eta)
        if out.eigenregular:
            return DecomposeOutcome(
                "eigenregular",
                [(c, p_, q_) for c, (p_, q_) in zip(coeffs, pq)],
                products, g, out.lam)
        products.append(out.product)
        pq.append((out.p, out.q))
        if len(products) > m_max:
            raise RuntimeError(
                f"decompose_one_wiener exceeded its iteration bound {m_max}")
        # reproject I_q(f) onto span{P_j Q_j}
        mdim = len(products)
        gram = np.empty((mdim, mdim))
        rhs = np.empty(mdim)
        for i in range(mdim):
            rhs[i] = wiener_inner(f, products[i])
            for j in range(i, mdim):
                gram[i, j] = gram[j, i] = wiener_inner(products[i],
                                                       products[j])
        try:
            coeffs = list(np.linalg.solve(gram, rhs))
        except np.linalg.LinAlgError:
            coeffs = list(np.linalg.lstsq(gram, rhs, rcond=None)[0])
        g = f.copy()
        for c, u in zip(coeffs, products):
            g = g.add(u, -c)


# ---------------------------------------------------------------------------
# multi regularize one wiener
# ---------------------------------------------------------------------------

@dataclass
class RegularizeOutcome:
    """I_q(f) = sum_j a_j P_j Q_j + a_reg R_reg + R_neg."""
    triples: list[tuple[float, SymTensor, SymTensor]]
    neg: SymTensor
    a_reg: float
    reg: SymTensor | None       # unit variance when present
    reg_eig: float              # achieved lambda_max ratio of R_reg
    eta_next: float             # eta_{ell+1} promised for R_reg


@dataclass
class MultiOutcome:
    per_input: list[RegularizeOutcome]
    t: int
    eta_next: float


def _scaled_triples(dec: DecomposeOutcome, lam_inv: float):
    return [(c * lam_inv, p_, q_) for c, p_, q_ in dec.triples]


def multi_regularize_one_wiener(fs: list[SymTensor], schedule: list[float],
                                eps: float) -> MultiOutcome:
    """Simultaneous schedule-driven decomposition of unit-variance inputs.

    All inputs share the schedule index, so the products collected for every
    input are controlled by the same eta_t while every surviving remainder
    is eta_{t+1}-eigenregular.
    """
    r = len(fs)
    if r == 0:
        return MultiOutcome([], 0, 1.0)
    live = list(range(r))
    g = [f.copy() for f in fs]
    triples: list[list] = [[] for _ in range(r)]
    result: list[RegularizeOutcome | None] = [None] * r
    t_exit = 0
    for i, eta_i in enumerate(schedule, start=1):
        eta_after = schedule[i] if i < len(schedule) else 0.0
        for s in live:
            varg = var_of(g[s])
            if varg <= eps:
                result[s] = RegularizeOutcome(
                    triples[s], g[s], 0.0, None, 0.0, eta_i)
        live = [s for s in live if result[s] is None]
        if not live:
            return MultiOutcome(result, t_exit, eta_i)
        decs: dict[int, tuple[DecomposeOutcome, float]] = {}
        for s in live:
            lam_inv = math.sqrt(var_of(g[s]))  # g = lam_inv * ghat
            decs[s] = (decompose_one_wiener(g[s].scale(1.0 / lam_inv),
                                            eta_i, eps), lam_inv)
        for s in live:
            dec, lam_inv = decs[s]
            if dec.status == "small-remainder":
                triples[s] += _scaled_triples(dec, lam_inv)
                result[s] = RegularizeOutcome(
                    triples[s], dec.remainder.scale(lam_inv), 0.0, None,
                    0.0, eta_after)
        live = [s for s in live if result[s] is None]
        if not live:
            return MultiOutcome(result, t_exit, eta_after)
        prod_vars = {}
        for s in live:
            dec, lam_inv = decs[s]
            pp = dec.product_part()
            prod_vars[s] = var_of(pp.scale(lam_inv)) if pp is not None else 0.0
        if all(pv <= eps for pv in prod_vars.values()):
            for s in live:
                dec, lam_inv = decs[s]
                pp = dec.product_part()
                neg = pp.scale(lam_inv) if pp is not None \
                    else SymTensor(fs[s].order, fs[s].dim, {})
                rr = dec.remainder.scale(lam_inv)
                a_reg = math.sqrt(var_of(rr))
                reg = rr.scale(1.0 / a_reg) if a_reg > 0 else None
                result[s] = RegularizeOutcome(
                    triples[s], neg, a_reg, reg, dec.remainder_eig, eta_i)
            return MultiOutcome(result, i - 1, eta_i)
        for s in live:
            dec, lam_inv = decs[s]
            if prod_vars[s] > eps:
                triples[s] += _scaled_triples(dec, lam_inv)
                g[s] = dec.remainder.scale(lam_inv)
                t_exit = i
            # inputs with small product variance keep their g and retry
    raise RuntimeError("multi_regularize_one_wiener exhausted its schedule")


# ---------------------------------------------------------------------------
# multi regularize many wieners (recursion over chaos levels)
# ---------------------------------------------------------------------------

@dataclass
class MRMWResult:
    """Per input s and level q, an outer polynomial over pooled argument ids.

    p~_{s,q} = slices[s][q] evaluated at the inner polynomials, where
    argument id i stands for pool[i - 1]; the discarded R_neg variance for
    each decomposed slice is in neg_var.
    """
    slices: list[dict[int, Polynomial]]
    pool: list[SymTensor]
    neg_var: list[dict[int, float]]
    eta_next: float
    diagnostics: dict


def multi_regularize_many_wieners(
        inputs: list[ChaosDecomposition], d: int, tau: float,
        schedule: list[float] | None = None,
        pool: list[SymTensor] | None = None) -> MRMWResult:
    """Decompose every level of every input into products of inner polys.

    Each input is a chaos decomposition whose nonzero levels 1..d have unit
    variance.  When d <= 1 every input is exactly Gaussian: its mean is the
    constant and its level-1 slice, at unit variance, one inner polynomial.
    Only this case reads levels 0 and 1.  For d >= 2, level d is rewritten
    by multi_regularize_one_wiener as a combination of products P Q of
    lower-level pieces, an eigenregular remainder, and a discarded part of
    variance at most ~tau (reported exactly).  One recursive call at d - 1
    then decomposes the inputs truncated below d together with every P and
    Q, and level d is composed from their outer polynomials.  An explicit
    decreasing eta schedule replaces make_schedule's at every level.
    """
    if pool is None:
        pool = []
    k = len(inputs)
    slices: list[dict[int, Polynomial]] = [dict() for _ in range(k)]
    neg_var: list[dict[int, float]] = [dict() for _ in range(k)]
    diagnostics: dict = {"d": d, "tau": tau}

    if d <= 1:
        for s, inp in enumerate(inputs):
            mu = inp.mean()
            slices[s][0] = Polynomial.constant(mu)
            f1 = inp.level(1)
            v1 = var_of(f1)
            if v1 > 0.0:
                pool.append(f1.scale(1.0 / math.sqrt(v1)))
                aid = len(pool)
                slices[s][1] = Polynomial(aid, {(aid,): math.sqrt(v1)})
            else:
                slices[s][1] = Polynomial(0, {})
        return MRMWResult(slices, pool, neg_var, 1.0, diagnostics)

    eps = tau if d == 2 else tau / 8.0

    # top-level slices with nonzero mass
    top_idx: list[int] = []
    top_scale: list[float] = []
    top_f: list[SymTensor] = []
    for s, inp in enumerate(inputs):
        fd = inp.level(d)
        vd = var_of(fd)
        if vd <= eps:
            # whole slice is negligible
            neg_var[s][d] = vd
            continue
        top_idx.append(s)
        top_scale.append(math.sqrt(vd))
        top_f.append(fd.scale(1.0 / math.sqrt(vd)))

    outcomes: list[RegularizeOutcome] = []
    if top_f:
        etas = schedule if schedule is not None \
            else make_schedule(eps, len(top_f))
        multi = multi_regularize_one_wiener(top_f, etas, eps)
        outcomes = multi.per_input
        diagnostics["t"] = multi.t
        diagnostics["eta_next"] = multi.eta_next

    # recursion inputs: original truncations, then each P and Q in order
    rec_inputs: list[ChaosDecomposition] = []
    for inp in inputs:
        tr = ChaosDecomposition(inp.dim)
        for q_, t_ in inp.tensors.items():
            if q_ <= d - 1:
                tr.set_level(q_, t_.copy())
        rec_inputs.append(tr)
    total_abs = 0.0
    for outc, sc in zip(outcomes, top_scale):
        total_abs += sum(abs(a) for a, _, _ in outc.triples) * sc
        for _, p_, q_ in outc.triples:
            rec_inputs.append(single_level(p_))
            rec_inputs.append(single_level(q_))
    tau_rec = tau / (8.0 * max(1.0, total_abs) ** 2)
    sub = multi_regularize_many_wieners(rec_inputs, d - 1, tau_rec,
                                        schedule, pool)
    diagnostics["recursion"] = sub.diagnostics
    # lower levels of the originals come straight from the recursion
    for s in range(k):
        for q_ in range(0, d):
            slices[s][q_] = sub.slices[s].get(q_, Polynomial(0, {}))
            if q_ in sub.neg_var[s]:
                neg_var[s][q_] = sub.neg_var[s][q_]
        slices[s][d] = Polynomial(0, {})
    # level d: compose the triples through their recursive approximators
    nxt = k  # recursion input of the next P
    for s, outc, sc in zip(top_idx, outcomes, top_scale):
        poly = Polynomial(0, {})
        for a, p_, q_ in outc.triples:
            out_p = sub.slices[nxt][p_.order]
            out_q = sub.slices[nxt + 1][q_.order]
            nxt += 2
            poly = poly.add(out_p.mul(out_q).scale(a * sc))
        if outc.reg is not None:
            pool.append(outc.reg)
            rid = len(pool)
            poly = poly.add(Polynomial(rid, {(rid,): outc.a_reg * sc}))
        slices[s][d] = poly
        neg_var[s][d] = var_of(outc.neg) * sc * sc

    eta_next = min(diagnostics.get("eta_next", 1.0),
                   sub.diagnostics.get("eta_next", 1.0))
    return MRMWResult(slices, pool, neg_var, eta_next, diagnostics)


# ---------------------------------------------------------------------------
# regularize poly
# ---------------------------------------------------------------------------

@dataclass
class DecompositionResult:
    """p(x) ~= h(A_1(x), ..., A_r(x)) with Var[p - h(A)] = var_gap.

    Each A_i = I_q(inner[i - 1]) is a unit-variance SymTensor whose chaos
    level q is its .order.
    """
    h: Polynomial                 # outer polynomial over args 1..r
    inner: list[SymTensor]        # the A_i
    var_gap: float
    eigen: list[float]            # achieved eigenregularity per inner poly
    diagnostics: dict


def reconstruct(h: Polynomial,
                inner: list[SymTensor]) -> ChaosDecomposition:
    """Exact chaos decomposition of h(A_1..A_r).

    Every monomial of h multiplies inner polynomials with pairwise disjoint
    variable supports, so each product stays inside a single chaos level.
    """
    dim = max((t.dim for t in inner), default=0)
    out = ChaosDecomposition(dim)
    for mono, c in h.coeffs.items():
        if not mono:
            out.add_to(0, SymTensor(0, dim, {(): c}))
            continue
        t = inner[mono[0] - 1]
        for aid in mono[1:]:
            t = contract_sym(t, inner[aid - 1], 0)
        out.add_to(t.order, t, c)
    return out


def regularize_poly(chaos: ChaosDecomposition, tau: float,
                    schedule: list[float] | None = None
                    ) -> DecompositionResult:
    """Rewrite a polynomial, given by its chaos decomposition, over inner
    polynomials that are each exactly Gaussian (degree <= 1) or eigenregular,
    discarding only ~tau variance.
    """
    d = chaos.degree()
    mu = chaos.mean()

    if d == 0:
        h = Polynomial.constant(mu)
        return DecompositionResult(h, [], 0.0, [], {"trivial": True})

    # normalize each level; remember the scale
    normed = ChaosDecomposition(chaos.dim)
    scales: dict[int, float] = {}
    for q in range(1, d + 1):
        fq = chaos.level(q)
        vq = var_of(fq)
        if vq > 0.0:
            scales[q] = math.sqrt(vq)
            normed.set_level(q, fq.scale(1.0 / math.sqrt(vq)))
    res = multi_regularize_many_wieners([normed], d, tau, schedule)

    h_global = Polynomial.constant(mu)
    for q, sc in scales.items():
        h_global = h_global.add(res.slices[0][q].scale(sc))

    # compact the argument ids
    used = sorted(h_global.support_vars())
    remap = {old: new + 1 for new, old in enumerate(used)}
    h = Polynomial(len(used),
                   {tuple(sorted(remap[i] for i in k_)): v
                    for k_, v in h_global.coeffs.items()})
    inner = [res.pool[old - 1] for old in used]

    var_gap = chaos.add(reconstruct(h, inner), -1.0).variance()
    eigen = [eigenregularity(t) for t in inner]
    diag = dict(res.diagnostics)
    diag.update({
        "coeff": sum(poly.l1_norm() for sl in res.slices
                     for poly in sl.values()),
        "eta_next": res.eta_next,
        "neg_var": res.neg_var[0],
    })
    return DecompositionResult(h, inner, var_gap, eigen, diag)
