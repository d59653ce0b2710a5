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
* ``alpha_max``            one pair's term of ``d_hat``'s objective at a rule

The others read one table, ``_pair_rows``: the rows D[i, j], j != i, as an
(M, M-1, K) array.  ``_mixed_min`` evaluates R(i, w) on it, the LPs and barrier
solves take its rows (capped), and ``_harmonic`` is the one harmonic mean.
``d_hat`` and ``alpha_max`` share ``_pair_exponents``, which also gives the
first two alpha derivatives, and ``_pair_optima``, a lockstep safeguarded
Newton search over alpha.

Every LP here, ``d_hat``'s included, is the value of a matrix game
max_w min(rows @ w).  ``linprog`` solves it with a numpy tableau simplex and
returns both players' optimal strategies, so each LP's upper bound comes from
the solver's own optimal basis.

The leading-order upper/lower bounds on E[steps] + L * P(error) for the
non-adaptive, sequential, and adaptive policy families are assembled from
these coefficients; o(log L) terms are evaluated as zero and the entries are
labeled as leading-order values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace as dc_replace

import numpy as np

from .divergences import _gaussian_tilted_exponent, tilted_exponent  # noqa: F401 (bounds.tilted_exponent)
from .exceptions import AssumptionError, BudgetError
from .model import ObservationModel, RandomizedRule, _check_count, as_weights, check_hypotheses, validate

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

# The alpha search: the step and bracket width at which a job stops, and its
# iteration cap (where F'' vanishes at a quartic peak, each Newton step
# closes only a third of the distance).
_NEWTON_TOL = 1e-12
_NEWTON_ITERATIONS = 60

# Pivot tolerance of the game solver, relative to the scale of the tableau.
PIVOT_TOL = 1e-12

# dominance_check counts an action as dominating when no divergence of another
# action exceeds its own by more than this.
_DOMINANCE_TOL = 1e-9


def kl_matrix(model: ObservationModel) -> np.ndarray:
    """Pairwise divergence tensor D[i, j, a] = D(q_i^a || q_j^a); +inf allowed.

    This is the kernel's cached, read-only ``kl_table``.
    """
    return model.kernel.kl_table


def _cap(D: np.ndarray) -> np.ndarray:
    return np.where(np.isinf(D), KL_CAP, D)


def _clean_weights(w: np.ndarray) -> np.ndarray:
    w = np.where(w > 1e-12, w, 0.0)
    return w / w.sum()


def _pair_rows(model: ObservationModel) -> np.ndarray:
    """Uncapped divergence rows (M, M-1, K): block i holds D[i, j] for j != i, in j order."""
    D = kl_matrix(model)
    return D[~np.eye(model.M, dtype=bool)].reshape(model.M, model.M - 1, model.K)


def _mixed_min(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """min over each block of rows of sum_{w_a > 0} w_a * row_a, so 0 * inf = 0."""
    active = np.flatnonzero(w > 0.0)
    # A stacked matmul of contiguous rows rounds each mixture as np.dot(row, w) does.
    mixed = np.matmul(np.take(rows, active, axis=-1)[..., None, :], w[active, None])
    return mixed[..., 0, 0].min(axis=-1)


def _harmonic(r) -> float:
    """len(r) / sum_i 1/r_i: 0 if any r_i <= 0; infinite r_i add nothing (inf if all are)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        return 0.0
    inv_sum = np.cumsum(1.0 / r)[-1]  # index order, unlike np.sum's pairwise order
    return math.inf if inv_sum == 0.0 else float(r.size / inv_sum)


def reliability(model: ObservationModel, i: int, rule) -> float:
    """Worst-case drift R(i, w): the slowest rate at which the mixture of
    divergences separates hypothesis i from its nearest alternative."""
    check_hypotheses(model, i)
    return float(_mixed_min(_pair_rows(model)[i], as_weights(rule, model.K)))


def linprog(rows: np.ndarray):
    """Solve the matrix game max_w min(rows @ w), w on the simplex.

    Returns optimal strategies for both players: the rule w and the weights y
    on the rows, each on its simplex.  Every LP of this module is such a game
    (Dantzig's game/LP equivalence), and this is the one solver they call, by
    the name under which profilers and traces find the LP time.

    Shifted and scaled, A = (rows + 1 - min rows) / max is positive with a
    largest entry of 1, so the LP  max 1'y s.t. A'y <= 1, y >= 0  is feasible
    at its slack basis and needs no phase 1.  Its dual is  min 1'u s.t.
    A u >= 1, u >= 0, and w = u / sum(u).  A dense tableau simplex with
    Bland's rule (Bland, Math. Oper. Res. 1977), which terminates on
    degenerate pivots, finds an optimal basis.  PIVOT_TOL is relative to the
    tableau: its objective row starts at -1, and a pivot must exceed
    PIVOT_TOL times the largest entry of its column.
    """
    n, K = rows.shape
    A = rows + (1.0 - rows.min())
    A = A / A.max()
    T = np.zeros((K + 1, n + K + 1))
    T[:K, :n] = A.T
    T[:K, n:-1] = np.eye(K)
    T[:K, -1] = 1.0
    T[K, :n] = -1.0
    basis = np.arange(n, n + K)
    while True:
        entering = np.flatnonzero(T[K, :-1] < -PIVOT_TOL)
        if entering.size == 0:
            break
        j = entering[0]
        col = T[:K, j]
        rows_in = np.flatnonzero(col > PIVOT_TOL * np.abs(col).max())
        ratios = T[rows_in, -1] / col[rows_in]
        tied = rows_in[ratios == ratios.min()]
        r = tied[np.argmin(basis[tied])]
        pivot = T[r] / T[r, j]
        T -= np.outer(T[:, j], pivot)
        T[r] = pivot
        np.maximum(T[:K, -1], 0.0, out=T[:K, -1])
        basis[r] = j
    # Both strategies solve the optimal basis's square system, which keeps the
    # digits of tiny weights that the tableau's reduced costs lose.
    is_y = basis < n
    nonbasic = np.ones(K, dtype=bool)
    nonbasic[basis[~is_y] - n] = False
    B, N = basis[is_y], np.flatnonzero(nonbasic)
    G = A[np.ix_(B, N)]
    u, y = np.zeros(K), np.zeros(n)
    u[N] = np.maximum(np.linalg.solve(G, np.ones(B.size)), 0.0)
    y[B] = np.maximum(np.linalg.solve(G.T, np.ones(B.size)), 0.0)
    return u / u.sum(), y / y.sum()


def _reliability_lp(rows: np.ndarray):
    """max t s.t. rows @ w >= t, w on the simplex, solved as a matrix game.

    Returns (w, upper): the optimal rule and an upper bound on the optimum
    read off the pair weights y of the solver's optimal basis, since
    max_a (y @ rows)_a >= min(rows @ w) for every pair of points y and w on
    their simplices.
    """
    w, y = linprog(rows)
    return _clean_weights(w), float((y @ rows).max())


def _maxmin_rule(rows: np.ndarray):
    """The rule maximizing min(rows @ w), from the LP on the capped rows, and
    its value re-evaluated on the uncapped rows, so the rule attains it exactly."""
    w, _ = _reliability_lp(_cap(rows))
    return RandomizedRule(w), float(_mixed_min(rows, w))


def max_reliability(model: ObservationModel, i: int):
    """The rule maximizing R(i, .) and its value, solved as an LP."""
    check_hypotheses(model, i)
    return _maxmin_rule(_pair_rows(model)[i])


def harmonic_reliability(model: ObservationModel, rule) -> float:
    """Harmonic mean M / sum_i 1/R(i, w); 0 when any R(i, w) = 0."""
    return _harmonic(_mixed_min(_pair_rows(model), as_weights(rule, model.K)))


def maxmin_reliability(model: ObservationModel):
    """The rule maximizing min_i R(i, .) and its value, solved as one LP."""
    return _maxmin_rule(_pair_rows(model).reshape(-1, model.K))


def minmax_reliability(model: ObservationModel) -> float:
    """min over i of max over rules of R(i, .)."""
    return min(max_reliability(model, i)[1] for i in range(model.M))


def _n_count_matrices(cells: int, n: int) -> int:
    return math.comb(n + cells - 1, cells - 1)


def _before(k: int, n: int) -> np.ndarray:
    """comb(j + k - 2, k - 1) for j = 0 .. n + 1: with k cells left for m
    draws, the count vectors whose first count exceeds m - j.  Built as
    k - 1 cumsums of (0, 1, 1, ...), since comb(j + k - 2, k - 1) is the sum
    over i <= j of comb(i + k - 3, k - 2).  Refused where it would wrap int64."""
    if _n_count_matrices(k, n) > np.iinfo(np.int64).max:
        raise BudgetError(f"count vectors of {n} draws over {k} cells outnumber int64 ranks")
    table = np.ones(n + 2, dtype=np.int64)
    table[0] = 0
    for _ in range(k - 1):
        table = np.cumsum(table)
    return table


def _count_matrices(cells: int, n: int, ranks: np.ndarray) -> np.ndarray:
    """Count vectors of n draws over ``cells`` categories, by rank.

    Rank r is the r-th vector in decreasing lexicographic order, (n, 0, ...)
    first, so ``np.arange(_n_count_matrices(cells, n))`` lists them all.
    Unranked one cell at a time against the ``_before`` table.
    """
    out = np.empty((ranks.size, cells), dtype=np.int64)
    r = ranks.astype(np.int64)
    left = np.full(ranks.size, n, dtype=np.int64)
    for c in range(cells - 1):
        before = _before(cells - c, n)
        j = np.searchsorted(before, r, side="right") - 1
        out[:, c] = left - j
        r = r - before[j]
        left = j
    out[:, cells - 1] = left
    return out


def _count_ranks(counts: np.ndarray) -> np.ndarray:
    """Rank of each count vector (row) among those of its total, the exact
    inverse of ``_count_matrices``."""
    cells = counts.shape[1]
    after = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]  # after[:, c] = counts[:, c + 1:].sum(axis=1)
    ranks = np.zeros(counts.shape[0], dtype=np.int64)
    for c in range(cells - 1):
        ranks += _before(cells - c, int(after.max()))[after[:, c]]
    return ranks


def simplex_grid(K: int, resolution: float) -> np.ndarray:
    """All points of the regular simplex grid with the given resolution: the
    count vectors of n = round(1 / resolution) draws, by descending rank, / n."""
    _check_count(K, "K", positive=True)
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    n = max(1, round(1.0 / resolution))
    return _count_matrices(K, n, np.arange(_n_count_matrices(K, n)))[::-1] / n


def _first_feasible_step(ds: np.ndarray, s: np.ndarray) -> float:
    """The first step of the line search's halvings 1, 1/2, ..., 2**-40 (its
    floor, the first below 1e-12) at which every step * ds / s > -1, for s > 0.

    Scaling by a power of two is exact, so for q = min(ds / s) = -f 2**e with
    1/2 <= f < 1 that step is 2**-e.  A q that is not finite skips nothing.
    """
    q = float((ds / s).min())
    if q <= -1.0 and math.isfinite(q):
        return 2.0 ** -min(math.frexp(-q)[1], 40)
    return 1.0


def _minimize_weighted_inverse(pair_rows: np.ndarray, coeffs: np.ndarray):
    """Minimize sum_i coeffs_i / R(i, w) over the simplex, given the uncapped
    ``_pair_rows`` table.

    Terms with coeffs_i <= 0 are dropped; with none left the value is 0.  The
    rest is solved on the capped rows and its value re-evaluated on the
    uncapped ones, where an infinite R(i, w) adds 0.  With one action the
    simplex is the point w = [1], which is only re-evaluated.  Otherwise the
    solve is the lifted convex program  min sum_i c_i / t_i  subject to
    t_i <= D_ij . w, t > 0, w >= 0, sum(w) = 1, solved by the log-barrier
    method (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 11): Newton
    centering within sum(w) = 1, with the barrier weight tau raised 50-fold
    until the duality gap m / tau of the m inequality rows is at most GAP_TOL
    times the objective.  From the second stage on, centering starts at the
    first-order extrapolation of the central path x(tau) ~ x* + v / tau:
    x + (x - x_prev) / 50, where x is the last center and x_prev the one
    before it (the starting point, for the second stage), pulled back to 0.99
    of the way to the domain's edge if it would leave it.  A stage's centering
    takes at most 50 Newton steps.  It ends once the Newton decrement is at
    most 1e-6, or early after a full step from a decrement of at most 1e-3:
    by quadratic convergence the next decrement is then about 1e-6, so its
    solve is skipped.  A stage that ended early and meets the gap test
    resumes its centering with no early end, so the solve returns only a
    tested center.  Each Newton step is
    a least-squares solve, so a flat optimal face (several actions separating
    every pair at KL_CAP) yields a minimum-norm step instead of a singular
    system.  Its backtracking line search starts at the first power-of-two
    step that keeps every inequality row positive (``_first_feasible_step``).
    """
    keep = coeffs > 0.0
    c, rows = coeffs[keep], _cap(pair_rows[keep])
    n, J, K = rows.shape
    w = np.full(K, 1.0 / K)
    if n == 0:
        return w, 0.0
    r = (rows @ w).min(axis=1)
    if np.any(r <= 0.0):  # a pair no action separates: R(i, .) = 0 everywhere
        return w, math.inf
    if K > 1:
        w = _barrier_rule(c, rows, w, r)
    r = _mixed_min(pair_rows[keep], w)
    return w, math.inf if np.any(r <= 0.0) else float(np.sum(c / r))


def _barrier_rule(c: np.ndarray, rows: np.ndarray, w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The barrier solve of ``_minimize_weighted_inverse``, started at the rule
    w with t = r / 2, where r are w's worst rates on the capped rows."""
    n, J, K = rows.shape
    # Inequality rows A @ (w, t) > 0, and a basis Z of the moves keeping sum(w) = 1.
    A = np.vstack(
        [np.hstack([rows.reshape(n * J, K), -np.repeat(np.eye(n), J, axis=0)]), np.eye(K + n)]
    )
    Z = np.linalg.svd(np.concatenate([np.ones(K), np.zeros(n)])[None, :])[2][1:].T
    m = A.shape[0]
    # The Newton matrix [A / s; 0 diag(h)] and its right-hand side [1; h t / 2],
    # refilled in place at each step.
    N, rhs = np.zeros((m + n, K + n)), np.ones(m + n)
    h_entries = (np.arange(m, m + n), np.arange(K, K + n))
    x = np.concatenate([w, 0.5 * r])
    x_prev, early = None, False
    tau = m / np.sum(c / x[K:])
    while True:
        # a stage that ended early and meets the gap test resumes its
        # centering within the same 50 steps, with no early end: at large tau
        # rounding can hold the decrement above 1e-6 after every full step
        recheck = m / tau <= GAP_TOL * np.sum(c / x[K:])
        if recheck and not early:
            return _clean_weights(x[:K])
        if not recheck:
            steps_left = 50
            tau *= 50.0
            start = x
            if x_prev is not None:
                # The central path is x* + v / tau to first order, so the next
                # center lies near x + (x - x_prev) / 50; start there, or 0.99 of
                # the way to the edge of the domain if that is nearer.
                d = (x - x_prev) / 50.0
                with np.errstate(divide="ignore"):
                    ratios = -(A @ x) / (A @ d)
                edge = ratios[ratios > 0.0].min(initial=math.inf)
                start = x + min(1.0, 0.99 * edge) * d
            x_prev, x = x, start
        early = False
        while steps_left:  # Newton centering of tau * sum(c / t) - sum(log(A @ x))
            steps_left -= 1
            s, t = A @ x, x[K:]
            # The quadratic model of the centering objective along Z is
            # ||L y - b||^2 / 2 up to a constant, so its minimizer is the Newton step.
            h = np.sqrt(2.0 * tau * c / t**3)
            np.divide(A, s[:, None], out=N[:m])
            N[h_entries] = h
            rhs[m:] = 0.5 * h * t
            L = N @ Z
            y = np.linalg.lstsq(L, rhs, rcond=None)[0]
            decrement = float(np.sum((L @ y) ** 2))
            if decrement <= 1e-6:  # a tighter test stalls on rounding at large tau
                break
            d = Z @ y
            ds, dt = A @ d, d[K:]
            with np.errstate(invalid="ignore", divide="ignore"):
                step = _first_feasible_step(ds, s)
                # The change of the objective, formed as a difference so it keeps
                # its digits at large tau; an infeasible step makes it NaN and fails.
                while step > 1e-12 and not (
                    -tau * np.sum(c * step * dt / (t * (t + step * dt)))
                    - np.sum(np.log1p(step * ds / s))
                    <= -0.25 * step * decrement
                ):
                    step *= 0.5
            x = x + step * d
            # Newton converges quadratically, so after a full step from a
            # decrement of 1e-3 the next one is about 1e-6: skip that solve
            if step == 1.0 and decrement <= 1e-3 and not recheck:
                early = True
                break


def max_harmonic_reliability(model: ObservationModel):
    """The rule maximizing the harmonic reliability, and its value."""
    w, _ = _minimize_weighted_inverse(_pair_rows(model), np.ones(model.M))
    rule = RandomizedRule(w)
    return rule, harmonic_reliability(model, rule)


@dataclass(frozen=True)
class DiscriminationOptimum:
    """Best rule found for the worst-pair discrimination exponent.

    ``value`` is F at ``rule``, so a lower bound on max F; ``d_hat_upper`` is
    an upper bound on max F, and the two are equal when the rule is certified
    optimal.  The bound comes from the pairs that no action separates
    perfectly, and is +inf when there are none.
    """

    rule: RandomizedRule
    value: float
    d_hat_upper: float


def _pair_exponents(model: ObservationModel, pairs):
    """The evaluator of E[p, a](alpha) = (1 - alpha) D_alpha(q_i^a || q_j^a) over
    the ordered pairs p = (I[p], J[p]) of ``pairs = (I, J)``.

    ``exponents(p, alphas)`` takes one pair index and one alpha per job,
    both of shape (N,), and returns E[p[n], a](alphas[n]) of shape (N, K);
    ``exponents(p, alphas, derivatives=True)`` returns (E, E', E''), the
    derivatives taken in alpha.  Finite kernels read ``log_probs`` as
    E = -log sum_z exp(alpha (log q_i - log q_j) + log q_j), with the cells
    outside the common support masked to -inf, so an action that separates the
    pair perfectly gives +inf; E' and E'' are minus the mean and the variance
    of the log-ratio under the tilted weights.  Gaussian kernels use the
    closed forms.
    """
    I, J = pairs
    if model.is_finite:
        lp, lq = model.kernel.log_probs[I], model.kernel.log_probs[J]  # (P, K, Z)
        both = np.isfinite(lp) & np.isfinite(lq)
        diff = np.subtract(lp, lq, out=np.zeros(lp.shape), where=both)
        base = np.where(both, lq, -np.inf)

        def exponents(p, alphas, derivatives=False):
            d = diff[p]
            e = np.exp(alphas[:, None, None] * d + base[p])
            total = e.sum(axis=2)
            with np.errstate(divide="ignore"):  # log(0) = -inf on a separated pair
                E = -np.log(total)
            if not derivatives:
                return E
            # A separated pair's 0 / 0 is NaN; no search reads it.
            with np.errstate(invalid="ignore"):
                mean = (d * e).sum(axis=2) / total
                second = (d * d * e).sum(axis=2) / total
            return E, -mean, mean * mean - second

    else:
        means, variances = model.kernel.means, model.kernel.variances
        dm, p_var, q_var = means[I] - means[J], variances[I], variances[J]

        def exponents(p, alphas, derivatives=False):
            a = alphas[:, None]
            E = _gaussian_tilted_exponent(dm[p], p_var[p], q_var[p], a)
            if not derivatives:
                return E
            # With v = a Q + (1 - a) P and u = (Q - P) / v, the derivatives of
            # (1 - a) log(Q / P) / 2 - log(Q / v) / 2 + a (1 - a) dm^2 / (2 v).
            P, Q, d2 = p_var[p], q_var[p], dm[p] ** 2
            v = a * Q + (1.0 - a) * P
            u = (Q - P) / v
            first = -0.5 * np.log(Q / P) + 0.5 * u + d2 * ((1.0 - 2.0 * a) - a * (1.0 - a) * u) / (2.0 * v)
            second = -0.5 * u * u + d2 * (-1.0 - (1.0 - 2.0 * a) * u + a * (1.0 - a) * u * u) / v
            return E, first, second

    return exponents


def _newton_max(evaluate, n: int):
    """Maxima of n concave functions on [0, 1] by a safeguarded Newton search, in lockstep.

    ``evaluate(jobs, x)`` returns (F, F', F'') at x[k] for each listed job,
    and ``evaluate(jobs, x, derivatives=False)`` F alone.  Each job starts at
    0.5 with the bracket [0, 1], which the sign of F' shrinks.  It steps to x - F'/F'' when F'' <= 0 and that target lies in the
    bracket; a target beyond 0 or 1 probes that end (so does F'' = 0, an E
    linear in alpha), and any other target bisects the bracket.  A job stops
    when its step is at most ``_NEWTON_TOL``, F' = 0, or its bracket is
    narrower than ``_NEWTON_TOL``; ``_NEWTON_ITERATIONS`` caps the loop, since
    F'' can vanish at a peak.  Only live jobs are evaluated, each on its own
    numbers, so a batch gives every job what a one-job call gives.  Returns
    (x, f), each job's best probe and its value, with both ends probed too.
    """
    lo, hi, x = np.zeros(n), np.ones(n), np.full(n, 0.5)
    best_x, best_f = x.copy(), np.full(n, -math.inf)
    live = np.arange(n)
    for _ in range(_NEWTON_ITERATIONS):
        if live.size == 0:
            break
        xl = x[live]
        f, g, h = evaluate(live, xl)
        better = f > best_f[live]
        best_x[live[better]], best_f[live[better]] = xl[better], f[better]
        lo[live] = np.where(g > 0.0, xl, lo[live])
        hi[live] = np.where(g < 0.0, xl, hi[live])
        a, b = lo[live], hi[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            # x - F'/F'' for F'' <= 0, where F'' = 0 aims at the end F' points to
            target = np.clip(xl + g / np.abs(h), 0.0, 1.0)
        newton = (h <= 0.0) & (a <= target) & (target <= b)
        x[live] = np.where(newton, target, 0.5 * (a + b))
        done = (np.abs(x[live] - xl) <= _NEWTON_TOL) | (g == 0.0) | (b - a < _NEWTON_TOL)
        live = live[~done]
    f = evaluate(np.tile(np.arange(n), 2), np.repeat([0.0, 1.0], n), derivatives=False)
    for end, fx in ((0.0, f[:n]), (1.0, f[n:])):
        better = fx > best_f
        best_x, best_f = np.where(better, end, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def _pair_optima(exponents, separated: np.ndarray, W: np.ndarray):
    """Per rule W[r] and pair p, max over alpha of sum_a W[r, a] E[p, a](alpha) and its
    alpha, each (R, P), by one lockstep Newton search (``_newton_max``) over the
    (rule, pair) jobs, which reads E' and E'' from the evaluator.

    A pair that a weighted action separates (``separated[p, a]``: E = +inf at
    every alpha) has value +inf and is not searched; 0.5 is reported.
    """
    shape = (len(W), len(separated))
    values, alphas = np.full(shape, math.inf), np.full(shape, 0.5)
    rule, pair = np.nonzero(~((W[:, None, :] > 0.0) & separated).any(axis=2))
    w = W[rule]
    active = w > 0.0

    def total(jobs, terms):
        # A stacked matmul sums each job's terms as w @ E would.
        return np.matmul(w[jobs][:, None, :], np.where(active[jobs], terms, 0.0)[:, :, None])[:, 0, 0]

    def mixed(jobs, x, derivatives=True):
        if not derivatives:
            return total(jobs, exponents(pair[jobs], x))
        return tuple(total(jobs, t) for t in exponents(pair[jobs], x, derivatives=True))

    alphas[rule, pair], values[rule, pair] = _newton_max(mixed, rule.size)
    return values, alphas


@dataclass(frozen=True)
class AlphaOptimum:
    """Maximizer and value of the mixed discrimination exponent."""

    alpha_star: float
    value: float


def alpha_max(model: ObservationModel, i: int, j: int, weights) -> AlphaOptimum:
    """Maximize sum_a w_a * (1-alpha) * D_alpha(q_i^a || q_j^a) over alpha in [0, 1].

    ``weights`` is a rule or a point on the action simplex with one weight per
    action.  The objective is concave in alpha; this is ``d_hat``'s safeguarded
    Newton search (``_pair_optima``) run as one job on the ordered pair (i, j),
    so a pair that a weighted action separates perfectly gives value +inf at
    alpha_star 0.5.
    """
    check_hypotheses(model, i, j)
    if i == j:
        raise ValueError("hypotheses must be distinct")
    w = as_weights(weights, model.K)
    exponents = _pair_exponents(model, ([i], [j]))
    separated = np.isinf(exponents(np.zeros(1, dtype=int), np.array([0.5])))  # +inf at one alpha is +inf at all
    values, alphas = _pair_optima(exponents, separated, w[None, :])
    return AlphaOptimum(alpha_star=float(alphas[0, 0]), value=float(values[0, 0]))


def d_hat(model: ObservationModel) -> DiscriminationOptimum:
    """Maximize the worst-pair mixed discrimination exponent over the simplex.

    The objective  F(w) = min over pairs p of  max_alpha  sum_a w_a E_{p,a}(alpha),
    with E_{p,a}(alpha) = (1-alpha) D_alpha(q_i^a || q_j^a), is concave in
    alpha but not in w.  A fixed coarse simplex screen (alpha-grid scores,
    then exact evaluations of the 25 leaders, the uniform rule and the
    vertices) picks the start.  An LP ascent follows: fix each pair's
    maximizing alpha_p at the current w and solve the LP
    max_w min_p sum_a w_a E_{p,a}(alpha_p), capped as the other LPs are.  At
    fixed alpha_p that LP value lower-bounds F at the new rule and equals F
    at the old one, so F never drops; the ascent stops when F rises by no
    more than _ASCENT_TOL relative.  The maximizations over alpha run as
    lockstep safeguarded Newton searches over (rule, pair) jobs
    (``_pair_optima``): one over every screen candidate and pair, then one
    over the pairs at each ascent step.

    The certificate is U = max_w min_p sum_a w_a C[p, a], where C[p, a] =
    max_alpha E_{p,a}(alpha) is the per-action Chernoff information (Chernoff,
    Ann. Math. Stat. 1952) and a max of sums is at most the sum of maxima.  U
    is one LP, bounded by the row weights of the solver's optimal basis, and
    the ascent is skipped once F meets it.  A pair with an infinite C[p, a] (disjoint supports, so the
    model carries the ``kl_capped`` flag) is left out of that LP: F is a
    minimum over pairs, so the minimum over the other pairs still bounds it
    from above.  U is +inf only when every pair has an infinite entry.
    The reported value is always an exact evaluation of F at the reported
    rule.
    """
    K = model.K
    P = model.M * (model.M - 1) // 2
    exponents = _pair_exponents(model, np.triu_indices(model.M, 1))
    pairs = np.arange(P)

    alpha_grid = np.linspace(0.0, 1.0, 129)
    curves = exponents(np.repeat(pairs, alpha_grid.size), np.tile(alpha_grid, P))
    curves = curves.reshape(P, alpha_grid.size, K).transpose(0, 2, 1)  # (P, K, S)
    separated = np.isinf(curves).any(axis=2)  # no common support: E = +inf at every alpha

    grid = simplex_grid(K, _SCREEN_RESOLUTION)
    # C order: einsum's rounding, and so the ranking of near-tied rules, follows the layout.
    screen_table = np.ascontiguousarray(np.where(np.isinf(curves), 1e9, curves))
    screened = np.einsum("gk,pks->gps", grid, screen_table).max(axis=2).min(axis=1)
    top = np.argsort(screened)[::-1][:25]
    vertices = np.eye(K)
    candidates = {}
    for w in (*grid[top], np.full(K, 1.0 / K), *vertices):
        candidates.setdefault(tuple(np.round(w, 12)), w)
    W = np.array(list(candidates.values()))
    values, alphas = _pair_optima(exponents, separated, W)
    best = int(np.argmax(values.min(axis=1)))
    best_w, best_v, alphas = W[best], values[best].min(), alphas[best]

    # At a vertex the mixed exponent is a single action's, so C[:, a] = F's
    # pair values at vertex a.
    C = values[[list(candidates).index(tuple(e)) for e in vertices]].T
    bounded = np.all(np.isfinite(C), axis=1)
    upper = _reliability_lp(C[bounded])[1] if bounded.any() else math.inf

    for _ in range(_ASCENT_ITERATIONS):
        if not best_v < upper * (1.0 - _ASCENT_TOL):  # certified, or F infinite
            break
        w, _ = _reliability_lp(_cap(exponents(pairs, alphas)))
        values, w_alphas = _pair_optima(exponents, separated, w[None, :])
        if not values.min() > best_v * (1.0 + _ASCENT_TOL):
            break
        best_w, best_v, alphas = w, values.min(), w_alphas[0]

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
    """Per hypothesis i, the min and the max over j != i of log prior_i - log prior_j."""
    logp = np.log(prior)
    spread = logp[:, None] - logp[None, :]
    off = ~np.eye(prior.size, dtype=bool)
    return np.where(off, spread, np.inf).min(axis=1), np.where(off, spread, -np.inf).max(axis=1)


def leading_order_bounds(
    model: ObservationModel,
    *,
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

    pair_rows = _pair_rows(model)
    up_w, sn_upper = _minimize_weighted_inverse(pair_rows, prior * w_up)
    # M = 2 and uniform priors give w_lo == w_up, and so the same program
    same = np.array_equal(w_lo, w_up)
    lo_w, sn_lower = (up_w, sn_upper) if same else _minimize_weighted_inverse(pair_rows, prior * w_lo)

    r_star = np.array([val for _, val in reliabilities])
    sa_upper = float(np.sum(prior * w_up / r_star))
    sa_lower = float(np.sum(prior * w_lo / r_star))

    na_index = int(np.argmin(r_star))
    na_lower = w_lo[na_index] / minmax_value

    return LeadingOrderBounds(
        nn_upper=nn_upper,
        nn_lower=nn_lower,
        nn_lower_factor2=nn_lower_factor2,
        sn_upper=sn_upper,
        sn_upper_rule=RandomizedRule(up_w),
        sn_lower=sn_lower,
        sn_lower_rule=RandomizedRule(lo_w),
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
        # Equal values are a zero gap even when both are inf (inf - inf is NaN).
        zero_adaptivity=max_r_bar == r_bar_star or abs(max_r_bar - r_bar_star) <= 1e-6,
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


def binary_specialize(model: ObservationModel) -> BinaryReport:
    """Closed-form coefficients for M = 2, plus the adaptivity-gain predicate.

    With two hypotheses the reliabilities are plain mixtures, so the optimal
    rules are point masses on the argmax actions.  A logarithmic adaptivity
    gain is predicted exactly when the two argmax sets (with near-ties within
    1e-9 counted as members, biasing toward "no gain") share no action.
    """
    if model.M != 2:
        raise ValueError(f"binary specialization requires M == 2, got M = {model.M}")
    _validated(model)
    D = kl_matrix(model)
    d12 = D[0, 1].copy()
    d21 = D[1, 0].copy()

    def argmax_set(values: np.ndarray):
        # At an infinite maximum, top - 1e-9 is inf and only the infinite entries tie.
        return tuple(int(a) for a in np.nonzero(values >= values.max() - 1e-9)[0])

    set1 = argmax_set(d12)
    set2 = argmax_set(d21)
    r1 = float(d12.max())
    r2 = float(d21.max())
    return BinaryReport(
        d12=d12,
        d21=d21,
        rule_1=RandomizedRule.point_mass(model.K, set1[0]),
        rule_2=RandomizedRule.point_mass(model.K, set2[0]),
        r1_star=r1,
        r2_star=r2,
        r_bar_star=_harmonic([r1, r2]),
        argmax_set_1=set1,
        argmax_set_2=set2,
        log_adaptivity_gain=not set(set1) & set(set2),
    )


def dominance_check(model: ObservationModel):
    """First action whose divergences dominate every other action pairwise.

    Returns the lowest such action index, or None.  When a dominating action
    exists, playing it alone is optimal for every hypothesis, so adaptivity
    buys nothing at leading order.
    """
    D = kl_matrix(model)
    # dominates[s]: D[:, :, a] <= D[:, :, s] + _DOMINANCE_TOL for every action a.
    dominates = np.all(D[:, :, None, :] <= D[:, :, :, None] + _DOMINANCE_TOL, axis=(0, 1, 3))
    return int(np.argmax(dominates)) if dominates.any() else None


def _jsonable(value):
    """Rules as weight lists, report dataclasses as dicts, tuples as lists."""
    if isinstance(value, RandomizedRule):
        return value.weights.tolist()
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    return list(value) if isinstance(value, tuple) else value


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

    def to_dict(self) -> dict:
        """Every field but ``penalty``, JSON-ready; ``cost_bounds`` is keyed
        ``"bounds"`` and notes that its o(log L) terms are dropped."""
        doc = {
            f.name: _jsonable(getattr(self, f.name))
            for f in fields(self)
            if f.name not in ("reliabilities", "cost_bounds", "penalty")
        }
        doc["reliabilities"] = [
            {"rule": rule.weights.tolist(), "value": value} for rule, value in self.reliabilities
        ]
        doc["bounds"] = {
            **_jsonable(self.cost_bounds),
            "note": "leading order: o(log L) terms evaluated as zero",
        }
        return doc

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


def _validated(model: ObservationModel):
    """validate(model), raising AssumptionError on an indistinguishable pair."""
    report = validate(model)
    if not report.distinguishable:
        pairs = ", ".join(map(str, report.indistinguishable_pairs))
        raise AssumptionError(f"indistinguishable hypothesis pairs: {pairs}")
    return report


def compute_bounds(model: ObservationModel) -> BoundsReport:
    """Run the full asymptotic analysis for one model.

    Raises AssumptionError when some pair of hypotheses cannot be separated
    by any action (the coefficients would all degenerate to zero).
    """
    report = _validated(model)
    flags = []
    if not report.bounded_ratios:
        flags.append("unbounded_likelihood_ratios")

    if np.any(np.isinf(kl_matrix(model))):
        flags.append("kl_capped")

    reliabilities = tuple(max_reliability(model, i) for i in range(model.M))
    r_values = [value for _, value in reliabilities]
    r_bar_star = _harmonic(r_values)

    maxmin_rule, maxmin_value = maxmin_reliability(model)
    minmax_value = min(r_values)

    hr_rule, max_r_bar = max_harmonic_reliability(model)

    opt = d_hat(model)

    costs = leading_order_bounds(
        model,
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
        costs = dc_replace(
            old, **{f.name: getattr(old, f.name) * ratio for f in fields(old) if f.type == "float"}
        )
    else:
        costs = leading_order_bounds(
            model,
            d_hat_value=report.d_hat,
            reliabilities=report.reliabilities,
            maxmin_value=report.maxmin_r,
            minmax_value=report.minmax_r,
        )
    return dc_replace(report, cost_bounds=costs, penalty=model.penalty)
