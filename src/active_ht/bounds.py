"""Asymptotic cost coefficients for active hypothesis testing policies.

Everything here reduces to optimizing simple functionals of the per-action
divergences over the action simplex:

* ``reliability``          R(i, w) = min_{j != i} sum_a w_a D(q_i^a || q_j^a)
* ``max_reliability``      per-hypothesis LP maximum of R(i, .)
* ``harmonic_reliability`` M / sum_i 1/R(i, w) and its simplex maximum
* ``maxmin/minmax``        the max-min and min-max of R over hypotheses
* ``d_hat``                max over the simplex of the worst-pair mixed
                           discrimination exponent (non-concave; a coarse
                           screen, then an LP ascent, with an LP upper bound
                           from the per-action Chernoff information)

The leading-order upper/lower bounds on E[steps] + L * P(error) for the
non-adaptive, sequential, and adaptive policy families are assembled from
these coefficients; o(log L) terms are evaluated as zero and the entries are
labeled as leading-order values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .divergences import _golden_max, kl, tilted_exponent
from .exceptions import AssumptionError
from .model import ObservationModel, RandomizedRule, as_weights, validate

# Infinite divergences are capped at this value inside the LPs and the
# barrier solves; reports carry a flag whenever the cap was exercised.  The
# returned rules are re-evaluated against the uncapped divergences, where any
# weight on an action with an infinite entry makes that pair infinite.  So a
# value can depend on the cap: the capped optimum of max_harmonic_reliability
# may put ~1/KL_CAP weight on such an action, and on one M = 4, K = 4 model
# with 30% zero entries two near-optimal capped rules give max_r_bar 9.794872
# and 9.794970.
KL_CAP = 1e6

# Relative duality gap at which the weighted-inverse barrier solve stops.
GAP_TOL = 1e-11

# d_hat: resolution of the simplex screen that picks the ascent's start, the
# relative rise of F below which the ascent stops, and its iteration cap.
_SCREEN_RESOLUTION = 0.1
_ASCENT_TOL = 1e-12
_ASCENT_ITERATIONS = 50

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def kl_matrix(model: ObservationModel) -> np.ndarray:
    """Pairwise divergence tensor D[i, j, a] = D(q_i^a || q_j^a); +inf allowed."""
    D = np.zeros((model.M, model.M, model.K))
    for i in range(model.M):
        for j in range(model.M):
            if i == j:
                continue
            for a in range(model.K):
                D[i, j, a] = kl(model.density_of(i, a), model.density_of(j, a))
    return D


def _cap(D: np.ndarray):
    capped = np.isinf(D)
    return np.where(capped, KL_CAP, D), bool(np.any(capped))


def _clean_weights(w: np.ndarray) -> np.ndarray:
    w = np.where(w > 1e-12, w, 0.0)
    return w / w.sum()


def _mixture_value(row: np.ndarray, w: np.ndarray) -> float:
    """sum_a w_a * row_a with the conventions 0 * inf = 0 and w * inf = inf."""
    active = w > 0.0
    if np.any(active & np.isinf(row)):
        return math.inf
    return float(np.where(active, row, 0.0)[active] @ w[active])


def reliability(model: ObservationModel, i: int, rule, D: np.ndarray | None = None) -> float:
    """Worst-case drift R(i, w): the slowest rate at which the mixture of
    divergences separates hypothesis i from its nearest alternative."""
    if D is None:
        D = kl_matrix(model)
    w = as_weights(rule, model.K)
    return min(
        _mixture_value(D[i, j], w) for j in range(model.M) if j != i
    )


def _reliability_lp(rows: np.ndarray):
    """max t s.t. rows @ w >= t, w on the simplex.

    Returns (w, upper): the optimal rule and an upper bound on the optimum
    read off the dual solution y, since max_a (y @ rows)_a >= min(rows @ w)
    for every pair of points y and w on their simplices.
    """
    n, K = rows.shape
    c = np.zeros(K + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-rows, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.concatenate([np.ones(K), [0.0]])[None, :]
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * K + [(0.0, None)],
        method="highs",
        options=_LP_OPTIONS,
    )
    if not res.success:
        raise RuntimeError(f"reliability LP failed: {res.message}")
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    y = y / y.sum() if y.sum() > 0.0 else np.full(n, 1.0 / n)
    return _clean_weights(res.x[:K]), float((y @ rows).max())


def max_reliability(model: ObservationModel, i: int, D: np.ndarray | None = None):
    """The rule maximizing R(i, .) and its value, solved as an LP."""
    if D is None:
        D = kl_matrix(model)
    rows = np.vstack([D[i, j] for j in range(model.M) if j != i])
    capped_rows, _ = _cap(rows)
    w, _ = _reliability_lp(capped_rows)
    # Re-evaluate against the uncapped divergences so the reported value is
    # attained exactly by the returned rule.
    value = min(_mixture_value(rows[r], w) for r in range(rows.shape[0]))
    return RandomizedRule(w), value


def harmonic_reliability(model: ObservationModel, rule, D: np.ndarray | None = None) -> float:
    """Harmonic mean M / sum_i 1/R(i, w); 0 when any R(i, w) = 0."""
    if D is None:
        D = kl_matrix(model)
    inv_sum = 0.0
    for i in range(model.M):
        r = reliability(model, i, rule, D)
        if r <= 0.0:
            return 0.0
        if math.isfinite(r):
            inv_sum += 1.0 / r
    if inv_sum == 0.0:
        return math.inf
    return model.M / inv_sum


def maxmin_reliability(model: ObservationModel, D: np.ndarray | None = None):
    """The rule maximizing min_i R(i, .) and its value, solved as one LP."""
    if D is None:
        D = kl_matrix(model)
    rows = np.vstack(
        [D[i, j] for i in range(model.M) for j in range(model.M) if j != i]
    )
    capped_rows, _ = _cap(rows)
    w, _ = _reliability_lp(capped_rows)
    value = min(_mixture_value(rows[r], w) for r in range(rows.shape[0]))
    return RandomizedRule(w), value


def minmax_reliability(model: ObservationModel, D: np.ndarray | None = None) -> float:
    """min over i of max over rules of R(i, .)."""
    if D is None:
        D = kl_matrix(model)
    return min(max_reliability(model, i, D)[1] for i in range(model.M))


def simplex_grid(K: int, resolution: float) -> np.ndarray:
    """All points of the regular simplex grid with the given resolution."""
    n = max(1, round(1.0 / resolution))
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], n, K)
    return np.asarray(points, dtype=float) / n


def _stacked_rows(D: np.ndarray):
    """Capped divergence rows reshaped to (M, M-1, K) for vector evaluation."""
    M = D.shape[0]
    rows = np.stack(
        [np.vstack([D[i, j] for j in range(M) if j != i]) for i in range(M)]
    )
    return _cap(rows)[0]


def _minimize_weighted_inverse(stacked: np.ndarray, coeffs: np.ndarray):
    """Minimize sum_i coeffs_i / R(i, w) over the simplex.

    Terms with coeffs_i <= 0 are dropped; with none left the value is 0.  The
    rest is the lifted convex program  min sum_i c_i / t_i  subject to
    t_i <= D_ij . w, t > 0, w >= 0, sum(w) = 1, solved by the log-barrier
    method (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 11): Newton
    centering within sum(w) = 1, with the barrier weight tau raised until the
    duality gap m / tau of the m inequality rows is at most GAP_TOL times the
    objective.  Each Newton step is a least-squares solve, so a flat optimal
    face (several actions separating every pair at KL_CAP) yields a
    minimum-norm step instead of a singular system.
    """
    keep = coeffs > 0.0
    c, rows = coeffs[keep], stacked[keep]
    n, J, K = rows.shape
    w = np.full(K, 1.0 / K)
    if n == 0:
        return w, 0.0
    r = (rows @ w).min(axis=1)
    if np.any(r <= 0.0):  # a pair no action separates: R(i, .) = 0 everywhere
        return w, math.inf
    # Inequality rows A @ (w, t) > 0, and a basis Z of the moves keeping sum(w) = 1.
    A = np.vstack(
        [np.hstack([rows.reshape(n * J, K), -np.repeat(np.eye(n), J, axis=0)]), np.eye(K + n)]
    )
    Z = null_space(np.concatenate([np.ones(K), np.zeros(n)])[None, :])
    m = A.shape[0]
    x = np.concatenate([w, 0.5 * r])
    tau = m / np.sum(c / x[K:])
    while m / tau > GAP_TOL * np.sum(c / x[K:]):
        tau *= 50.0
        for _ in range(50):  # Newton centering of tau * sum(c / t) - sum(log(A @ x))
            s, t = A @ x, x[K:]
            # The quadratic model of the centering objective along Z is
            # ||L y - b||^2 / 2 up to a constant, so its minimizer is the Newton step.
            h = np.sqrt(2.0 * tau * c / t**3)
            L = np.vstack([A / s[:, None], np.hstack([np.zeros((n, K)), np.diag(h)])]) @ Z
            y = np.linalg.lstsq(L, np.concatenate([np.ones(m), 0.5 * h * t]), rcond=None)[0]
            decrement = float(np.sum((L @ y) ** 2))
            if decrement <= 1e-6:  # a tighter test stalls on rounding at large tau
                break
            d = Z @ y
            ds, dt = A @ d, d[K:]
            step = 1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                # The change of the objective, formed as a difference so it keeps
                # its digits at large tau; an infeasible step makes it NaN and fails.
                while step > 1e-12 and not (
                    -tau * np.sum(c * step * dt / (t * (t + step * dt)))
                    - np.sum(np.log1p(step * ds / s))
                    <= -0.25 * step * decrement
                ):
                    step *= 0.5
            x = x + step * d
    w = _clean_weights(x[:K])
    r = (rows @ w).min(axis=1)
    return w, math.inf if np.any(r <= 0.0) else float(np.sum(c / r))


def max_harmonic_reliability(model: ObservationModel, D: np.ndarray | None = None):
    """The rule maximizing the harmonic reliability, and its value."""
    if D is None:
        D = kl_matrix(model)
    w, _ = _minimize_weighted_inverse(_stacked_rows(D), np.ones(model.M))
    rule = RandomizedRule(w)
    return rule, harmonic_reliability(model, rule, D)


@dataclass(frozen=True)
class DiscriminationOptimum:
    """Best rule found for the worst-pair discrimination exponent.

    ``value`` is F at ``rule``, so a lower bound on max F; ``d_hat_upper`` is
    an upper bound on max F, and the two are equal when the rule is certified
    optimal.  The bound is +inf whenever some action gives some pair disjoint
    supports, since the capped LP behind it is then no proven bound.
    """

    rule: RandomizedRule
    value: float
    d_hat_upper: float


class _PairCurves:
    """Cached per-(pair, action) evaluators for the tilted exponent.

    For finite kernels the joint supports of all K actions of a pair are
    concatenated into flat arrays so one mixed-exponent evaluation is a
    single vectorized exp/reduceat pass instead of K separate sums.
    """

    def __init__(self, model: ObservationModel):
        self.model = model
        self.pairs = [(i, j) for i in range(model.M) for j in range(i + 1, model.M)]
        self._data = []
        self._flat = []  # finite kernels: (cat_lp, cat_lq, offsets, act_ids, disjoint)
        for (i, j) in self.pairs:
            per_action = []
            for a in range(model.K):
                p = model.density_of(i, a)
                q = model.density_of(j, a)
                if model.is_finite:
                    both = (p > 0.0) & (q > 0.0)
                    if not np.any(both):
                        per_action.append(None)  # disjoint supports: +inf
                    else:
                        per_action.append((np.log(p[both]), np.log(q[both])))
                else:
                    per_action.append((p, q))
            self._data.append(per_action)
            if model.is_finite:
                act_ids = [a for a in range(model.K) if per_action[a] is not None]
                disjoint = np.array(
                    [per_action[a] is None for a in range(model.K)], dtype=bool
                )
                if act_ids:
                    lps = [per_action[a][0] for a in act_ids]
                    offsets = np.cumsum([0] + [lp.size for lp in lps])[:-1]
                    cat_lp = np.concatenate(lps)
                    cat_lq = np.concatenate([per_action[a][1] for a in act_ids])
                else:
                    offsets, cat_lp, cat_lq = np.zeros(0, dtype=int), None, None
                self._flat.append((cat_lp, cat_lq, offsets, np.array(act_ids), disjoint))

    def exponent(self, pair_idx: int, a: int, alpha: float) -> float:
        data = self._data[pair_idx][a]
        if data is None:
            return math.inf
        if self.model.is_finite:
            lp, lq = data
            return -math.log(np.exp(alpha * lp + (1.0 - alpha) * lq).sum())
        return tilted_exponent(data[0], data[1], alpha)

    def curve_table(self, alphas: np.ndarray) -> np.ndarray:
        """Exponent values on an alpha grid, shape (pairs, K, len(alphas))."""
        P, K, S = len(self.pairs), self.model.K, alphas.size
        table = np.empty((P, K, S))
        for p in range(P):
            for a in range(K):
                data = self._data[p][a]
                if data is None:
                    table[p, a] = math.inf
                elif self.model.is_finite:
                    lp, lq = data
                    m = np.exp(alphas[:, None] * lp[None, :] + (1.0 - alphas)[:, None] * lq[None, :]).sum(axis=1)
                    table[p, a] = -np.log(m)
                else:
                    table[p, a] = [tilted_exponent(data[0], data[1], float(s)) for s in alphas]
        return table

    def _mixed_finite(self, pair_idx: int, w: np.ndarray):
        """Callable alpha -> sum_a w_a exponent(pair, a, alpha), or None if +inf."""
        cat_lp, cat_lq, offsets, act_ids, disjoint = self._flat[pair_idx]
        if np.any(w[disjoint] > 0.0):
            return None
        if cat_lp is None:
            return None
        wa = w[act_ids]
        diff = cat_lp - cat_lq

        def g(alpha: float) -> float:
            sums = np.add.reduceat(np.exp(alpha * diff + cat_lq), offsets)
            return float(-(wa * np.log(sums)).sum())

        return g

    def exponent_rows(self, alphas: np.ndarray) -> np.ndarray:
        """E[p, a] = exponent(p, a, alphas[p]), shape (pairs, K)."""
        return np.array(
            [[self.exponent(p, a, alphas[p]) for a in range(self.model.K)] for p in range(len(self.pairs))]
        )

    def pair_optima(self, w: np.ndarray):
        """Per pair, max over alpha of the mixed exponent at rule w, and its alpha.

        Returns (values, alphas), each of shape (pairs,).  A pair that some
        weighted action separates perfectly has value +inf; every alpha
        maximizes it, and 0.5 is reported.
        """
        P = len(self.pairs)
        values, alphas = np.full(P, math.inf), np.full(P, 0.5)
        active = [a for a in range(self.model.K) if w[a] > 0.0]
        for p in range(P):
            if self.model.is_finite:
                g = self._mixed_finite(p, w)
                if g is None:
                    continue
            else:
                def g(alpha, p=p):
                    total = 0.0
                    for a in active:
                        term = self.exponent(p, a, alpha)
                        if math.isinf(term):
                            return math.inf
                        total += w[a] * term
                    return total

            alphas[p], values[p] = _golden_max(g)
        return values, alphas


def d_hat(model: ObservationModel) -> DiscriminationOptimum:
    """Maximize the worst-pair mixed discrimination exponent over the simplex.

    The objective  F(w) = min over pairs p of  max_alpha  sum_a w_a E_{p,a}(alpha),
    with E_{p,a}(alpha) = (1-alpha) D_alpha(q_i^a || q_j^a), is concave in
    alpha but not in w.  A fixed coarse simplex screen (alpha-grid scores,
    then exact golden-section evaluations of the 25 leaders, the uniform rule
    and the vertices) picks the start.  An LP ascent follows: fix each pair's
    maximizing alpha_p at the current w and solve the LP
    max_w min_p sum_a w_a E_{p,a}(alpha_p), capped as the other LPs are.  At
    fixed alpha_p that LP value lower-bounds F at the new rule and equals F
    at the old one, so F never drops; the ascent stops when F rises by no
    more than _ASCENT_TOL relative.

    The certificate is U = max_w min_p sum_a w_a C[p, a], where C[p, a] =
    max_alpha E_{p,a}(alpha) is the per-action Chernoff information (Chernoff,
    Ann. Math. Stat. 1952) and a max of sums is at most the sum of maxima.  U
    is one LP, bounded from its dual solution, and the ascent is skipped once
    F meets it.  If some C[p, a] is infinite (disjoint supports, so the model
    carries the ``kl_capped`` flag) a weight of about 1/KL_CAP can make a
    pair infinite, the capped LP value is no proven bound, and U is +inf.
    The reported value is always an exact evaluation of F at the reported
    rule.
    """
    K = model.K
    curves = _PairCurves(model)
    grid = simplex_grid(K, _SCREEN_RESOLUTION)
    table = curves.curve_table(np.linspace(0.0, 1.0, 129))  # (P, K, S)
    screen_table = np.where(np.isinf(table), 1e9, table)
    screened = np.einsum("gk,pks->gps", grid, screen_table).max(axis=2).min(axis=1)
    top = np.argsort(screened)[::-1][:25]
    vertices = np.eye(K)
    candidates = [*grid[top], np.full(K, 1.0 / K), *vertices]

    def key(w):
        return tuple(np.round(w, 12))

    optima = {}
    best_w, best_v = None, -math.inf
    for w in candidates:
        if key(w) not in optima:
            optima[key(w)] = curves.pair_optima(w)
            v = optima[key(w)][0].min()
            if v > best_v:
                best_w, best_v = w, v

    # At a vertex the mixed exponent is a single action's, so C[:, a] = F's
    # pair values at vertex a.
    C = np.column_stack([optima[key(e)][0] for e in vertices])
    upper = _reliability_lp(C)[1] if np.all(np.isfinite(C)) else math.inf

    alphas = optima[key(best_w)][1]
    for _ in range(_ASCENT_ITERATIONS):
        if not best_v < upper * (1.0 - _ASCENT_TOL):  # certified, or F infinite
            break
        w, _ = _reliability_lp(_cap(curves.exponent_rows(alphas))[0])
        values, w_alphas = curves.pair_optima(w)
        if not values.min() > best_v * (1.0 + _ASCENT_TOL):
            break
        best_w, best_v, alphas = w, values.min(), w_alphas

    return DiscriminationOptimum(
        rule=RandomizedRule(_clean_weights(best_w)),
        value=best_v,
        d_hat_upper=upper,
    )


def _relative_gap(value: float, upper: float) -> float:
    """(upper - value) / value; 0 when the two are equal, as when both are 0 or inf."""
    if upper == value:
        return 0.0
    return (upper - value) / value if value > 0.0 else math.inf


@dataclass(frozen=True)
class LeadingOrderBounds:
    """Leading-order bounds on E[steps] + L * P(error) per policy family.

    Upper and lower entries drop o(log L) corrections, so at small L a lower
    entry may exceed an upper one; both are reported unclamped.
    """

    nn_upper: float
    nn_lower: float
    nn_lower_factor2: float
    sn_upper: float
    sn_upper_rule: RandomizedRule
    sn_lower: float
    sn_lower_rule: RandomizedRule
    sa_upper: float
    sa_lower: float
    na_lower: float
    na_index: int


def _log_prior_spreads(prior: np.ndarray):
    logp = np.log(prior)
    M = prior.size
    min_ratio = np.empty(M)
    max_ratio = np.empty(M)
    for i in range(M):
        others = np.delete(logp, i)
        min_ratio[i] = logp[i] - others.max()
        max_ratio[i] = logp[i] - others.min()
    return min_ratio, max_ratio


def leading_order_bounds(
    model: ObservationModel,
    *,
    D: np.ndarray,
    d_hat_value: float,
    reliabilities,
    maxmin_value: float,
    minmax_value: float,
) -> LeadingOrderBounds:
    """Assemble the per-family leading-order bounds at this model's penalty."""
    logL = math.log(model.penalty)
    prior = model.prior
    min_ratio, max_ratio = _log_prior_spreads(prior)
    w_up = logL - min_ratio
    w_lo = logL - max_ratio

    nn_upper = (logL - min_ratio.min()) / d_hat_value if d_hat_value > 0 else math.inf
    nn_lower = (logL - max_ratio.max()) / d_hat_value if d_hat_value > 0 else math.inf
    nn_lower_factor2 = 2.0 * (logL - max_ratio.max()) / maxmin_value

    stacked = _stacked_rows(D)
    sn = {}
    for tag, wgt in (("upper", w_up), ("lower", w_lo)):
        coeffs = prior * wgt
        w, val = _minimize_weighted_inverse(stacked, coeffs)
        sn[tag] = (RandomizedRule(w), val)

    r_star = np.array([val for _, val in reliabilities])
    sa_upper = float(np.sum(prior * w_up / r_star))
    sa_lower = float(np.sum(prior * w_lo / r_star))

    na_index = int(np.argmin(r_star))
    na_lower = w_lo[na_index] / minmax_value

    return LeadingOrderBounds(
        nn_upper=nn_upper,
        nn_lower=nn_lower,
        nn_lower_factor2=nn_lower_factor2,
        sn_upper=sn["upper"][1],
        sn_upper_rule=sn["upper"][0],
        sn_lower=sn["lower"][1],
        sn_lower_rule=sn["lower"][0],
        sa_upper=sa_upper,
        sa_lower=sa_lower,
        na_lower=na_lower,
        na_index=na_index,
    )


@dataclass(frozen=True)
class Gains:
    """Per-log-L cost gaps between the policy families."""

    sequentiality_coefficient: float
    adaptivity_coefficient: float
    zero_adaptivity: bool


def gains_from_values(maxmin_value: float, max_r_bar: float, r_bar_star: float) -> Gains:
    seq = 2.0 / maxmin_value - 1.0 / max_r_bar
    adp = 1.0 / max_r_bar - 1.0 / r_bar_star
    return Gains(
        sequentiality_coefficient=seq,
        adaptivity_coefficient=adp,
        zero_adaptivity=abs(max_r_bar - r_bar_star) <= 1e-6,
    )


@dataclass(frozen=True)
class ErrorExponents:
    """Decay rates of the error probability per unit of expected stopping time."""

    nn: float
    sn: float
    sa: float
    na_upper: float


@dataclass(frozen=True)
class BinaryReport:
    """Closed forms for the two-hypothesis specialization."""

    d12: np.ndarray  # D(q_1^a || q_2^a) per action
    d21: np.ndarray
    rule_1: RandomizedRule
    rule_2: RandomizedRule
    r1_star: float
    r2_star: float
    r_bar_star: float
    argmax_set_1: tuple
    argmax_set_2: tuple
    log_adaptivity_gain: bool


def binary_specialize(model: ObservationModel, D: np.ndarray | None = None) -> BinaryReport:
    """Closed-form coefficients for M = 2, plus the adaptivity-gain predicate.

    With two hypotheses the reliabilities are plain mixtures, so the optimal
    rules are point masses on the argmax actions.  A logarithmic adaptivity
    gain is predicted exactly when the two argmax sets (with near-ties within
    1e-9 counted as members, biasing toward "no gain") share no action.
    """
    if model.M != 2:
        raise ValueError(f"binary specialization requires M == 2, got M = {model.M}")
    if D is None:
        D = kl_matrix(model)
    d12 = D[0, 1].copy()
    d21 = D[1, 0].copy()

    def argmax_set(values: np.ndarray):
        top = values.max()
        if math.isinf(top):
            return tuple(int(a) for a in np.nonzero(np.isinf(values))[0])
        return tuple(int(a) for a in np.nonzero(values >= top - 1e-9)[0])

    set1 = argmax_set(d12)
    set2 = argmax_set(d21)
    r1 = float(d12.max())
    r2 = float(d21.max())
    if math.isinf(r1) and math.isinf(r2):
        r_bar = math.inf
    else:
        r_bar = 2.0 / ((0.0 if math.isinf(r1) else 1.0 / r1) + (0.0 if math.isinf(r2) else 1.0 / r2))
    return BinaryReport(
        d12=d12,
        d21=d21,
        rule_1=RandomizedRule.point_mass(model.K, set1[0]),
        rule_2=RandomizedRule.point_mass(model.K, set2[0]),
        r1_star=r1,
        r2_star=r2,
        r_bar_star=r_bar,
        argmax_set_1=set1,
        argmax_set_2=set2,
        log_adaptivity_gain=not set(set1) & set(set2),
    )


def dominance_check(model: ObservationModel, D: np.ndarray | None = None, tol: float = 1e-9):
    """First action whose divergences dominate every other action pairwise.

    Returns the lowest such action index, or None.  When a dominating action
    exists, playing it alone is optimal for every hypothesis, so adaptivity
    buys nothing at leading order.
    """
    if D is None:
        D = kl_matrix(model)
    for a_star in range(model.K):
        ok = True
        for a in range(model.K):
            diff_ok = D[:, :, a] <= D[:, :, a_star] + tol
            if not np.all(diff_ok):
                ok = False
                break
        if ok:
            return a_star
    return None


@dataclass(frozen=True)
class BoundsReport:
    """Everything the asymptotic analysis produces for one model."""

    d_hat: float
    d_hat_rule: RandomizedRule
    d_hat_upper: float
    reliabilities: tuple  # ((rule, value) per hypothesis)
    r_bar_star: float
    max_r_bar: float
    max_r_bar_rule: RandomizedRule
    maxmin_r: float
    maxmin_rule: RandomizedRule
    minmax_r: float
    cost_bounds: LeadingOrderBounds
    gains: Gains
    exponents: ErrorExponents
    flags: tuple
    penalty: float = math.nan
    kl: np.ndarray = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "d_hat": self.d_hat,
            "d_hat_rule": self.d_hat_rule.weights.tolist(),
            "d_hat_upper": self.d_hat_upper,
            "reliabilities": [
                {"rule": rule.weights.tolist(), "value": value}
                for rule, value in self.reliabilities
            ],
            "r_bar_star": self.r_bar_star,
            "max_r_bar": self.max_r_bar,
            "max_r_bar_rule": self.max_r_bar_rule.weights.tolist(),
            "maxmin_r": self.maxmin_r,
            "maxmin_rule": self.maxmin_rule.weights.tolist(),
            "minmax_r": self.minmax_r,
            "bounds": {
                "nn_upper": self.cost_bounds.nn_upper,
                "nn_lower": self.cost_bounds.nn_lower,
                "nn_lower_factor2": self.cost_bounds.nn_lower_factor2,
                "sn_upper": self.cost_bounds.sn_upper,
                "sn_upper_rule": self.cost_bounds.sn_upper_rule.weights.tolist(),
                "sn_lower": self.cost_bounds.sn_lower,
                "sn_lower_rule": self.cost_bounds.sn_lower_rule.weights.tolist(),
                "sa_upper": self.cost_bounds.sa_upper,
                "sa_lower": self.cost_bounds.sa_lower,
                "na_lower": self.cost_bounds.na_lower,
                "na_index": self.cost_bounds.na_index,
                "note": "leading order: o(log L) terms evaluated as zero",
            },
            "gains": {
                "sequentiality_coefficient": self.gains.sequentiality_coefficient,
                "adaptivity_coefficient": self.gains.adaptivity_coefficient,
                "zero_adaptivity": self.gains.zero_adaptivity,
            },
            "exponents": {
                "nn": self.exponents.nn,
                "sn": self.exponents.sn,
                "sa": self.exponents.sa,
                "na_upper": self.exponents.na_upper,
            },
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self):
        """(header, rows) with one row per named coefficient."""
        K = self.d_hat_rule.weights.size
        header = ["name", "value"] + [f"lambda_{a + 1}" for a in range(K)] + ["certificate"]
        blank = [""] * K

        def rule_cells(rule):
            return list(rule.weights) if rule is not None else blank

        rows = [
            ["d_hat", self.d_hat, *rule_cells(self.d_hat_rule), f"rel_gap={_relative_gap(self.d_hat, self.d_hat_upper):.3g}"],
        ]
        for i, (rule, value) in enumerate(self.reliabilities):
            rows.append([f"reliability_{i}", value, *rule_cells(rule), "lp"])
        rows += [
            ["r_bar_star", self.r_bar_star, *blank, "lp"],
            ["max_r_bar", self.max_r_bar, *rule_cells(self.max_r_bar_rule), f"rel_gap<={GAP_TOL:g}"],
            ["maxmin_r", self.maxmin_r, *rule_cells(self.maxmin_rule), "lp"],
            ["minmax_r", self.minmax_r, *blank, "lp"],
            ["nn_upper", self.cost_bounds.nn_upper, *rule_cells(self.d_hat_rule), "leading-order"],
            ["nn_lower", self.cost_bounds.nn_lower, *blank, "leading-order"],
            ["nn_lower_factor2", self.cost_bounds.nn_lower_factor2, *blank, "leading-order"],
            ["sn_upper", self.cost_bounds.sn_upper, *rule_cells(self.cost_bounds.sn_upper_rule), "leading-order"],
            ["sn_lower", self.cost_bounds.sn_lower, *rule_cells(self.cost_bounds.sn_lower_rule), "leading-order"],
            ["sa_upper", self.cost_bounds.sa_upper, *blank, "leading-order"],
            ["sa_lower", self.cost_bounds.sa_lower, *blank, "leading-order"],
            ["na_lower", self.cost_bounds.na_lower, *blank, "leading-order"],
            ["sequentiality_coefficient", self.gains.sequentiality_coefficient, *blank, ""],
            ["adaptivity_coefficient", self.gains.adaptivity_coefficient, *blank, ""],
            ["exponent_nn", self.exponents.nn, *blank, ""],
            ["exponent_sn", self.exponents.sn, *blank, ""],
            ["exponent_sa", self.exponents.sa, *blank, ""],
            ["exponent_na_upper", self.exponents.na_upper, *blank, ""],
        ]
        return header, rows


def compute_bounds(model: ObservationModel) -> BoundsReport:
    """Run the full asymptotic analysis for one model.

    Raises AssumptionError when some pair of hypotheses cannot be separated
    by any action (the coefficients would all degenerate to zero).
    """
    report = validate(model)
    if not report.distinguishable:
        raise AssumptionError(
            "indistinguishable hypothesis pairs: "
            + ", ".join(map(str, report.indistinguishable_pairs))
        )
    flags = []
    if not report.bounded_ratios:
        flags.append("unbounded_likelihood_ratios")

    D = kl_matrix(model)
    if np.any(np.isinf(D)):
        flags.append("kl_capped")

    reliabilities = tuple(max_reliability(model, i, D) for i in range(model.M))
    r_values = [value for _, value in reliabilities]
    inv = sum(0.0 if math.isinf(v) else 1.0 / v for v in r_values)
    r_bar_star = math.inf if inv == 0.0 else model.M / inv

    maxmin_rule, maxmin_value = maxmin_reliability(model, D)
    minmax_value = min(r_values)

    hr_rule, max_r_bar = max_harmonic_reliability(model, D)

    opt = d_hat(model)

    costs = leading_order_bounds(
        model,
        D=D,
        d_hat_value=opt.value,
        reliabilities=reliabilities,
        maxmin_value=maxmin_value,
        minmax_value=minmax_value,
    )
    g = gains_from_values(maxmin_value, max_r_bar, r_bar_star)
    exponents = ErrorExponents(
        nn=opt.value, sn=max_r_bar, sa=r_bar_star, na_upper=minmax_value
    )
    return BoundsReport(
        d_hat=opt.value,
        d_hat_rule=opt.rule,
        d_hat_upper=opt.d_hat_upper,
        reliabilities=reliabilities,
        r_bar_star=r_bar_star,
        max_r_bar=max_r_bar,
        max_r_bar_rule=hr_rule,
        maxmin_r=maxmin_value,
        maxmin_rule=maxmin_rule,
        minmax_r=minmax_value,
        cost_bounds=costs,
        gains=g,
        exponents=exponents,
        flags=tuple(flags),
        penalty=model.penalty,
        kl=D,
    )


def report_at_penalty(report: BoundsReport, model: ObservationModel) -> BoundsReport:
    """Re-derive the penalty-dependent bounds of ``report`` at ``model.penalty``.

    Only the leading-order cost block depends on the penalty; the coefficients are
    reused as-is.  Under a uniform prior every bound entry is proportional to
    log L, so the block is rescaled in closed form; otherwise the weighted
    optimizations are re-solved.
    """
    if model.penalty == report.penalty:
        return report
    prior = model.prior
    if np.allclose(prior, 1.0 / prior.size, rtol=0.0, atol=1e-12):
        ratio = math.log(model.penalty) / math.log(report.penalty)
        old = report.cost_bounds
        costs = LeadingOrderBounds(
            nn_upper=old.nn_upper * ratio,
            nn_lower=old.nn_lower * ratio,
            nn_lower_factor2=old.nn_lower_factor2 * ratio,
            sn_upper=old.sn_upper * ratio,
            sn_upper_rule=old.sn_upper_rule,
            sn_lower=old.sn_lower * ratio,
            sn_lower_rule=old.sn_lower_rule,
            sa_upper=old.sa_upper * ratio,
            sa_lower=old.sa_lower * ratio,
            na_lower=old.na_lower * ratio,
            na_index=old.na_index,
        )
    else:
        D = report.kl if report.kl is not None else kl_matrix(model)
        costs = leading_order_bounds(
            model,
            D=D,
            d_hat_value=report.d_hat,
            reliabilities=report.reliabilities,
            maxmin_value=report.maxmin_r,
            minmax_value=report.minmax_r,
        )
    return dc_replace(report, cost_bounds=costs, penalty=model.penalty)
