"""Exhaustive exact evaluation of policies on tiny finite-alphabet models.

Two evaluators are provided on purpose:

* ``exact_eval``    — a layered forward pass over merged (action, symbol)
  count-vector states for any policy that reads only (posterior, step),
  with exact pruning of zero-probability branches;
* ``backward_eval`` — a backward dynamic program over the same count-matrix
  states, valid for fixed-horizon i.i.d.-rule policies.

Both merge paths by count vector, but one pushes probability mass forward
and the other pulls values back from the horizon, so their agreement
(within accumulation error) is a meaningful cross-check of both.
``exact_pairwise`` additionally computes the exact pairwise
posterior-comparison error rates under i.i.d. actions and the
discrimination-exponent sandwich they are predicted to satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divergences import alpha_max
from .exceptions import BudgetError, HorizonError
from .model import ObservationModel, as_weights, log0
from .policies import Policy

# exact_pairwise scores count matrices in chunks of this many, so its
# (chunk, M, M) comparison arrays stay small whatever the state count.
PAIRWISE_CHUNK = 1024


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps on exact evaluation: depth, and total merged count-vector
    states visited (summed over depths)."""

    horizon: int = 32
    nodes: int = 10_000_000

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.nodes < 1:
            raise ValueError(f"node budget must be >= 1, got {self.nodes}")


@dataclass(frozen=True)
class ExactEvaluation:
    """Exact objective value of a policy, plus enumeration diagnostics."""

    expected_tau: float
    pe: float
    cost: float
    nodes: int            # merged count-vector states visited, over all depths
    truncated_mass: float
    entering_mass: tuple  # probability mass arriving at each depth
    stopped_mass: tuple   # probability mass stopping at each depth

    def mass_residuals(self) -> np.ndarray:
        """|entering[d] - stopped[d] - entering[d+1]| per depth.

        All residuals are at accumulation-error level when the enumeration
        covered a valid probability space.
        """
        entering = np.asarray(self.entering_mass)
        stopped = np.asarray(self.stopped_mass)
        nxt = np.append(entering[1:], 0.0)
        return np.abs(entering - stopped - nxt)


def _require_finite(model: ObservationModel):
    if not model.is_finite:
        raise ValueError("exact evaluation requires a finite observation kernel")


def _rule_cells(model: ObservationModel, w: np.ndarray):
    """Per-cell tables of the i.i.d. rule ``w``: (gen (M, C), log_like (M, C)).

    The cells are the (action, symbol) pairs, in that order, of the actions
    the rule plays and the symbols some hypothesis can emit under them.
    ``gen[i, c]`` is the chance that one draw under hypothesis i lands in
    cell c = (a, z), w[a] q_i(z | a); ``log_like[i, c]`` is log q_i(z | a).
    """
    q = model.kernel.probs
    a, z = np.nonzero((w > 0.0)[:, None] & (q.sum(axis=0) > 0.0))
    # C order, so sums over cells keep numpy's pairwise summation order
    gen, log_like = w[a] * q[:, a, z], model.kernel.log_probs[:, a, z]
    return np.ascontiguousarray(gen), np.ascontiguousarray(log_like)


def exact_eval(model: ObservationModel, policy: Policy, budget: OracleBudget | None = None) -> ExactEvaluation:
    """Exact E[stopping time], error probability, and total cost of a policy.

    Runs forward one depth at a time over merged states.  Every path that
    reaches the same (action, symbol) count vector has the same posterior,
    and its action-draw factors are common to all hypotheses, so for a
    policy that reads only (posterior, step) such paths merge exactly: a
    state is a count vector with the summed unnormalized posterior weights
    of its paths.  Each depth makes one ``policy.batch_weights`` query;
    zero-probability children are dropped exactly.  States the policy
    truncates at its own safety horizon stop there (mirroring the
    simulator); a state still live at ``budget.horizon`` raises
    HorizonError, and visiting more than ``budget.nodes`` states raises
    BudgetError.
    """
    _require_finite(model)
    if budget is None:
        budget = OracleBudget()
    q = model.kernel.probs  # (M, K, Z)
    M, K, Z = q.shape
    C = K * Z
    cell_q = q.reshape(M, C).T  # (C, M): cell a * Z + z
    H = budget.horizon
    fh = policy.safety_horizon

    entering, stopped = [], []
    exp_tau = err_mass = trunc_mass = 0.0
    nodes = 0

    mass = np.asarray(model.prior, dtype=float)[None, :]  # (S, M) unnormalized
    counts = np.zeros((1, C), dtype=np.int64)  # (S, C) count vector per state
    for d in range(H + 1):
        nodes += mass.shape[0]
        if nodes > budget.nodes:
            raise BudgetError(f"enumeration exceeded node budget {budget.nodes}")
        s = mass.sum(axis=1)
        weights, stop = policy.batch_weights(mass / s[:, None], d)
        truncates = ~stop if fh is not None and d >= fh else np.zeros_like(stop)
        stop = stop | truncates
        entering.append(float(s.sum()))
        stopped.append(float(s[stop].sum()))
        exp_tau += d * stopped[-1]
        # mass off the mode, summed directly: s - max would cancel when small
        err_mass += float(np.sort(mass[stop], axis=1)[:, :-1].sum())
        trunc_mass += float(s[truncates].sum())
        live = ~stop
        if not live.any():
            break
        if d >= H:
            raise HorizonError(f"path still live at horizon {H}")
        w = np.repeat(weights[live], Z, axis=1)  # (S, C)
        children = ((w[:, :, None] * mass[live][:, None, :]) * cell_q[None]).reshape(-1, M)
        child_counts = (counts[live][:, None, :] + np.eye(C, dtype=np.int64)).reshape(-1, C)
        keep = children.sum(axis=1) > 0.0
        counts, merged = np.unique(child_counts[keep], axis=0, return_inverse=True)
        merged = merged.ravel()
        mass = np.column_stack(
            [np.bincount(merged, weights=col, minlength=counts.shape[0]) for col in children[keep].T]
        )

    return ExactEvaluation(
        expected_tau=exp_tau,
        pe=err_mass,
        cost=exp_tau + model.penalty * err_mass,
        nodes=nodes,
        truncated_mass=trunc_mass,
        entering_mass=tuple(entering),
        stopped_mass=tuple(stopped),
    )


def _n_count_matrices(cells: int, n: int) -> int:
    return math.comb(n + cells - 1, cells - 1)


def _count_matrices(cells: int, n: int, ranks: np.ndarray) -> np.ndarray:
    """Count vectors of n draws over ``cells`` categories, by rank.

    Rank r is the r-th vector in decreasing lexicographic order, (n, 0, ...)
    first, so ``np.arange(_n_count_matrices(cells, n))`` lists them all.
    Unranked one cell at a time: with k cells left for m draws, the vectors
    whose first count exceeds m - j number comb(j + k - 2, k - 1).
    """
    out = np.empty((ranks.size, cells), dtype=np.int64)
    r = ranks.astype(np.int64)
    left = np.full(ranks.size, n, dtype=np.int64)
    for c in range(cells - 1):
        k = cells - c
        before = np.array([math.comb(j + k - 2, k - 1) for j in range(n + 2)], dtype=np.int64)
        j = np.searchsorted(before, r, side="right") - 1
        out[:, c] = left - j
        r = r - before[j]
        left = j
    out[:, cells - 1] = left
    return out


def backward_eval(model: ObservationModel, rule, n: int, budget: OracleBudget | None = None) -> ExactEvaluation:
    """Backward dynamic program for an i.i.d.-rule, fixed-horizon policy.

    States are the (action, symbol) count matrices — a sufficient statistic
    when actions are i.i.d. — and the value function is propagated from the
    horizon back to the root using posterior-weighted transition
    probabilities.  Deliberately different arithmetic from ``exact_eval``.
    """
    _require_finite(model)
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    if budget is None:
        budget = OracleBudget()
    cell_prob, _ = _rule_cells(model, as_weights(rule, model.K))  # (M, C)
    n_cells = cell_prob.shape[1]
    total_states = sum(_n_count_matrices(n_cells, d) for d in range(n + 1))
    if total_states > budget.nodes:
        raise BudgetError(
            f"backward DP needs {total_states} states, over node budget {budget.nodes}"
        )
    prior = np.asarray(model.prior, dtype=float)

    @lru_cache(maxsize=None)
    def weight_vec(counts):
        v = prior.copy()
        for c_idx, cnt in enumerate(counts):
            if cnt:
                v = v * cell_prob[:, c_idx] ** cnt
        return v

    @lru_cache(maxsize=None)
    def value(counts):
        v = weight_vec(counts)
        s = v.sum()
        if s == 0.0:
            return 0.0
        depth = sum(counts)
        if depth == n:
            return float(np.sort(v)[:-1].sum()) / s
        acc = 0.0
        post = v / s
        for c_idx in range(n_cells):
            p_trans = float(post @ cell_prob[:, c_idx])
            if p_trans > 0.0:
                child = list(counts)
                child[c_idx] += 1
                acc += p_trans * value(tuple(child))
        return acc

    pe = value(tuple([0] * n_cells))
    return ExactEvaluation(
        expected_tau=float(n),
        pe=pe,
        cost=float(n) + model.penalty * pe,
        nodes=total_states,
        truncated_mass=0.0,
        entering_mass=(1.0,),
        stopped_mass=(0.0,),
    )


@dataclass(frozen=True)
class PairSandwich:
    """Observed vs predicted discrimination exponent for one pair."""

    i: int
    j: int
    n: int
    exponent: float      # -log max(e_ij, e_ji) / n
    alpha_star: float
    predicted: float     # best mixed discrimination exponent for the rule
    gap: float           # |exponent - predicted|


@dataclass(frozen=True)
class PairwiseExact:
    """Exact pairwise posterior-comparison error rates at horizon n."""

    rates: np.ndarray     # rates[i, j] = P(posterior of j strictly beats i | truth i)
    ties: np.ndarray      # ties[i, j] = P(posteriors of i and j tied | truth i)
    n: int
    sandwiches: tuple


def exact_pairwise(model: ObservationModel, rule, n: int, budget: OracleBudget | None = None) -> PairwiseExact:
    """Exact e_ij(n) matrix under i.i.d. actions from ``rule``.

    e_ij(n) is the probability, given hypothesis i is true, that after n
    i.i.d.-rule steps the posterior of j strictly exceeds that of i.  Because
    actions are i.i.d., the (action, symbol) count matrix is a sufficient
    statistic, and the enumeration runs over count matrices (multinomial
    multiplicity attached) instead of raw paths, scored as arrays
    ``PAIRWISE_CHUNK`` at a time; the node budget counts those states.
    Count classes whose log-likelihood sums agree up to accumulated
    rounding (which happens structurally when kernel rows are permutations of
    one another) are reported as ties rather than being split between the two
    strict rates by last-bit noise, so rates[i, j] == rates[j, i] whenever the
    model has an (i <-> j)-swap symmetry that the rule respects.  For each
    pair the result records the observed decay exponent next to the
    predicted one (the alpha-optimized mixed discrimination exponent for the
    pairwise error decay, computable to rate order only).
    """
    _require_finite(model)
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if budget is None:
        budget = OracleBudget()
    w = as_weights(rule, model.K)
    M = model.M
    gen, cell_loglike = _rule_cells(model, w)  # (M, C)
    n_cells = gen.shape[1]
    n_states = _n_count_matrices(n_cells, n)
    if n_states > budget.nodes:
        raise BudgetError(f"pairwise enumeration needs {n_states} states, over budget {budget.nodes}")

    log_prior = np.log(model.prior)
    log_gen = log0(gen)
    abs_loglike = np.where(np.isfinite(cell_loglike), np.abs(cell_loglike), 0.0)
    abs_log_prior = np.where(np.isfinite(log_prior), np.abs(log_prior), 0.0)

    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    rates = np.zeros((M, M))
    ties = np.zeros((M, M))
    off_diagonal = ~np.eye(M, dtype=bool)
    for r0 in range(0, n_states, PAIRWISE_CHUNK):
        counts = _count_matrices(n_cells, n, np.arange(r0, min(r0 + PAIRWISE_CHUNK, n_states)))
        carr = counts.astype(float)[:, None, :]  # (B, 1, C)
        active = carr > 0
        # P(count matrix | theta = i), multinomial multiplicity and
        # action-draw probabilities included: (B, M)
        log_mult = log_fact[n] - log_fact[counts].sum(axis=1)
        path_prob = np.exp(log_mult[:, None] + (carr * np.where(active, log_gen, 0.0)).sum(axis=2))
        # terminal log posterior masses (common action probs cancel)
        lm = log_prior + (carr * np.where(active, cell_loglike, 0.0)).sum(axis=2)
        # tie tolerance: rounding in the lm sums accumulates to at most a few
        # ulps of the total term magnitude, far below the spacing of distinct
        # lattice values, so this snaps exactly the structurally tied classes
        magnitude = abs_log_prior + (carr * np.where(active, abs_loglike, 0.0)).sum(axis=2)
        tol = 1e-12 * np.maximum(magnitude.max(axis=1), 1.0)[:, None, None]
        with np.errstate(invalid="ignore"):
            diff = lm[:, None, :] - lm[:, :, None]  # diff[b, i, j] = lm[b, j] - lm[b, i]
            beats = diff > tol
            equal = (np.abs(diff) <= tol) | (np.isneginf(lm)[:, None, :] & np.isneginf(lm)[:, :, None])
        equal &= off_diagonal
        rates += np.einsum("bi,bij->ij", path_prob, beats)
        ties += np.einsum("bi,bij->ij", path_prob, equal)

    sandwiches = []
    for i in range(M):
        for j in range(i + 1, M):
            worst = max(rates[i, j], rates[j, i])
            exponent = math.inf if worst == 0.0 else -math.log(worst) / n
            opt = alpha_max(model, i, j, w)
            sandwiches.append(
                PairSandwich(
                    i=i,
                    j=j,
                    n=n,
                    exponent=exponent,
                    alpha_star=opt.alpha_star,
                    predicted=opt.value,
                    gap=abs(exponent - opt.value) if math.isfinite(exponent) else math.inf,
                )
            )
    return PairwiseExact(rates=rates, ties=ties, n=n, sandwiches=tuple(sandwiches))
