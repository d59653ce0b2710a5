"""Exhaustive exact evaluation of policies on tiny finite-alphabet models.

Two evaluators are provided on purpose:

* ``exact_eval``    — a layered forward pass over merged (action, symbol)
  count-vector states for any policy that reads only (posterior, step),
  with exact pruning of zero-probability branches;
* ``backward_eval`` — a backward DP, depth by depth, over the count-matrix
  lattice of fixed-horizon i.i.d.-rule policies, finding children by rank.

Both key count vectors by exact rank in the lattice ``bounds`` enumerates
(``simplex_grid`` scales it by 1/n); one pushes mass forward, the other pulls
values back from the horizon, so agreement to rounding cross-checks both.
``exact_pairwise`` additionally computes the exact pairwise
posterior-comparison error rates under i.i.d. actions and the
discrimination-exponent sandwich they are predicted to satisfy; the
prediction is ``bounds.alpha_max``, the alpha-search ``d_hat`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import normalize, posterior_error
from .bounds import _count_matrices, _count_ranks, _n_count_matrices, alpha_max
from .exceptions import BudgetError, HorizonError
from .model import ObservationModel, RandomizedRule, as_weights, log0
from .policies import Policy, _check_count, _check_stop, _stop_stack, _truncated, stops

# exact_pairwise scores count matrices in chunks of this many, so its
# (chunk, M, M) comparison arrays stay small whatever the state count.
PAIRWISE_CHUNK = 1024


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps on exact evaluation: depth, and total merged count-vector
    states visited (summed over depths)."""

    horizon: int = 32  # exact_eval's only: backward_eval and exact_pairwise run to their own n
    nodes: int = 10_000_000

    def __post_init__(self):
        _check_count(self.horizon, "horizon", positive=True)
        _check_count(self.nodes, "nodes", positive=True)


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
    state is a count vector, keyed by its exact rank, with the summed
    unnormalized posterior weights of its paths.  Each depth stops states by
    ``policies.stops`` on a stack of the policy's one stop, as the simulator
    does, flags truncations by ``policies._truncated`` and makes one
    ``policy.batch_weights`` query for the live ones; zero-probability children
    are dropped exactly.  A state still live at ``budget.horizon`` raises
    HorizonError, and visiting more than ``budget.nodes`` states raises
    BudgetError.
    """
    _require_finite(model)
    _check_stop(policy)
    if budget is None:
        budget = OracleBudget()
    q = model.kernel.probs  # (M, K, Z)
    M, K, Z = q.shape
    C = K * Z
    cell_q = q.reshape(M, C).T  # (C, M): cell a * Z + z
    H = budget.horizon
    stack = _stop_stack([(policy.threshold, policy.horizon)])

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
        probs = mass / s[:, None]
        top = probs.max(axis=1)
        stop = stops(stack, top, d) == 1
        entering.append(float(s.sum()))
        stopped.append(float(s[stop].sum()))
        exp_tau += d * stopped[-1]
        err_mass += float(posterior_error(mass[stop]).sum())
        trunc_mass += float(s[stop & _truncated(stack, top[None])[0]].sum())
        live = ~stop
        if not live.any():
            break
        if d >= H:
            raise HorizonError(f"path still live at horizon {H}")
        w = np.repeat(policy.batch_weights(probs[live], d), Z, axis=1)  # (S, C)
        children = ((w[:, :, None] * mass[live][:, None, :]) * cell_q[None]).reshape(-1, M)
        child_counts = (counts[live][:, None, :] + np.eye(C, dtype=np.int64)).reshape(-1, C)
        keep = children.sum(axis=1) > 0.0
        kept = child_counts[keep]
        # states in ascending lexicographic order (descending rank) fix every sum's order
        _, first, merged = np.unique(-_count_ranks(kept[:, kept.any(axis=0)]), return_index=True, return_inverse=True)
        counts = kept[first]
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


def _class_log_masses(offset, counts: np.ndarray, log_terms: np.ndarray) -> np.ndarray:
    """offset + counts . log_terms: (B, M) from (B, C) counts and (M, C) log
    terms, where a zero count contributes 0 even against a log 0 term."""
    carr = counts.astype(float)[:, None, :]  # (B, 1, C)
    return offset + (carr * np.where(carr > 0, log_terms, 0.0)).sum(axis=2)


def backward_eval(model: ObservationModel, rule, n: int, budget: OracleBudget | None = None) -> ExactEvaluation:
    """Backward dynamic program for an i.i.d.-rule, fixed-horizon policy.

    States are the (action, symbol) count matrices — a sufficient statistic
    when actions are i.i.d. — of the lattice ``exact_pairwise`` scores.  The
    value, the posterior mass off the mode at the horizon, is pulled back
    one depth at a time; each state finds its children by rank in the next
    depth.  Posteriors come from log masses, so deep horizons cannot
    underflow.  Deliberately different arithmetic from ``exact_eval``.
    """
    _require_finite(model)
    _check_count(n, "horizon")
    if budget is None:
        budget = OracleBudget()
    cell_prob, cell_loglike = _rule_cells(model, as_weights(rule, model.K))  # (M, C)
    n_cells = cell_prob.shape[1]
    total_states = _n_count_matrices(n_cells + 1, n)  # the states of depths 0 .. n
    if total_states > budget.nodes:
        raise BudgetError(
            f"backward DP needs {total_states} states, over node budget {budget.nodes}"
        )
    log_prior = log0(model.prior)
    for d in range(n, -1, -1):
        counts = _count_matrices(n_cells, d, np.arange(_n_count_matrices(n_cells, d)))
        lm = _class_log_masses(log_prior, counts, cell_loglike)
        # states no hypothesis reaches (parents move there with chance 0) get a stand-in posterior
        _, post = normalize(np.where(np.isneginf(lm).all(axis=1)[:, None], 0.0, lm))
        if d == n:
            value = posterior_error(post)
        else:
            children = _count_ranks((counts[:, None, :] + np.eye(n_cells, dtype=np.int64)).reshape(-1, n_cells))
            value = ((post @ cell_prob) * value[children.reshape(-1, n_cells)]).sum(axis=1)
    pe = float(value[0])
    return ExactEvaluation(
        expected_tau=float(n),
        pe=pe,
        cost=float(n) + model.penalty * pe,
        nodes=total_states,
        truncated_mass=0.0,
        entering_mass=(1.0,) * (n + 1),
        stopped_mass=(0.0,) * n + (1.0,),
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
    _check_count(n, "horizon", positive=True)
    if budget is None:
        budget = OracleBudget()
    # validated once: alpha_max takes a RandomizedRule's weights unchanged, so
    # the rates and the predicted exponents see the same weights
    rule = rule if isinstance(rule, RandomizedRule) else RandomizedRule(np.asarray(rule, dtype=float))
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
        # P(count matrix | theta = i), multinomial multiplicity and
        # action-draw probabilities included: (B, M)
        log_mult = log_fact[n] - log_fact[counts].sum(axis=1)
        path_prob = np.exp(_class_log_masses(log_mult[:, None], counts, log_gen))
        # terminal log posterior masses (common action probs cancel)
        lm = _class_log_masses(log_prior, counts, cell_loglike)
        # tie tolerance: rounding in the lm sums accumulates to at most a few
        # ulps of the total term magnitude, far below the spacing of distinct
        # lattice values, so this snaps exactly the structurally tied classes
        magnitude = _class_log_masses(abs_log_prior, counts, abs_loglike)
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
            opt = alpha_max(model, i, j, rule)
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
