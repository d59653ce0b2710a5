"""Monte Carlo harness for sensing policies.

Reproducibility rules:

* trial k draws from ``default_rng((*master_seed, k))`` so every trial is an
  independent stream that can be replayed on its own;
* true hypotheses are assigned by a deterministic quota scheme that keeps
  empirical frequencies within one trial of the prior at every prefix (for a
  uniform prior this is plain round-robin), which strips the prior-sampling
  variance out of every estimate;
* trials are folded into fixed blocks of 1024 and block sums are merged in
  index order, so summaries are bit-identical no matter how many workers
  processed them.

Sequential policies run in a lockstep engine: all live trials of a block
advance together, one ``Policy.batch_weights`` query and one vectorized
log-domain Bayes update per step, and a trial retires when its policy stops
or it reaches the policy's safety horizon (flagged as truncated).  Each
trial still draws only from its own generator, in a fixed order per step:
on a finite kernel the action uniform, then the symbol uniform (taken from
``rng.random`` in chunks, which yields the same stream as one call per
draw); on a Gaussian kernel the action uniform, then one standard normal
scaled by the chosen action's mean and deviation.  A trial's trajectory
therefore does not depend on the other trials in its block.  Fixed-horizon
i.i.d.-rule policies take a separate path that draws all of a trial's
uniforms at once and sums the log-likelihoods without per-step
normalization.

The error probability reported by a summary is the mean terminal posterior
error E[1 - max_i posterior_i(stop)], which is exactly the probability of a
wrong declaration under the model and has far lower variance than counting
wrong declarations; the raw count is kept alongside it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundsReport, report_at_penalty
from .exceptions import AssumptionError
from .model import ObservationModel
from .policies import FixedRulePolicy, Policy, build_policy, inverse_cdf_index

BLOCK = 1024

# Steps of uniforms a lockstep trial on a finite kernel draws per refill.
CHUNK = 64

# When a run observes zero wrong declarations, the error estimate is floored
# at 1/(2N) and flagged: the tail of the posterior-error distribution is then
# under-sampled and the estimate is only trustworthy as a lower bound.
def _pe_floor(n_trials: int) -> float:
    return 0.5 / n_trials


def _seed_path(master_seed) -> tuple:
    if isinstance(master_seed, (int, np.integer)):
        return (int(master_seed),)
    return tuple(int(s) for s in master_seed)


def _trial_rng(path: tuple, k: int) -> np.random.Generator:
    return np.random.default_rng((*path, k))


def stratified_hypotheses(prior: np.ndarray, n: int) -> np.ndarray:
    """Deterministic quota assignment of true hypotheses for n trials."""
    M = prior.size
    if np.allclose(prior, 1.0 / M, rtol=0.0, atol=1e-12):
        return np.arange(n, dtype=np.int64) % M
    counts = np.zeros(M)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        i = int(np.argmax(prior * (t + 1) - counts))
        out[t] = i
        counts[i] += 1.0
    return out


class _Tables:
    """Precomputed sampling/likelihood tables for one model."""

    def __init__(self, model: ObservationModel):
        self.model = model
        self.prior = np.asarray(model.prior, dtype=float)
        with np.errstate(divide="ignore"):
            self.log_prior = np.log(self.prior)
        if model.is_finite:
            probs = model.kernel.probs
            self.cdf = np.cumsum(probs, axis=2)
            with np.errstate(divide="ignore"):
                logq = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), -np.inf)
            self.logq_iaz = logq                       # (M, K, Z)
            self.logq_az = np.ascontiguousarray(np.transpose(logq, (1, 2, 0)))  # (K, Z, M)
        else:
            self.means = model.kernel.means
            self.vars = model.kernel.variances
            self.stds = np.sqrt(self.vars)
            self.log_norm = -0.5 * np.log(2.0 * np.pi * self.vars)  # (M, K)
            # (K, M) copies, so one gather gives a row per trial
            self.means_am = np.ascontiguousarray(self.means.T)
            self.vars_am = np.ascontiguousarray(self.vars.T)
            self.log_norm_am = np.ascontiguousarray(self.log_norm.T)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single trial."""

    index: int
    theta: int
    tau: int
    declared: int
    correct: bool
    posterior_error: float
    truncated: bool


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregate outcome of a run; stderrs are sample-std / sqrt(N)."""

    n_trials: int
    mean_tau: float
    se_tau: float
    pe: float
    se_pe: float
    cost: float
    se_cost: float
    n_wrong: int
    n_truncated: int
    penalty: float
    master_seed: tuple


class _Acc:
    __slots__ = ("n", "s_tau", "s_tau2", "s_err", "s_err2", "s_cost", "s_cost2", "n_wrong", "n_trunc")

    def __init__(self):
        self.n = 0
        self.s_tau = self.s_tau2 = 0.0
        self.s_err = self.s_err2 = 0.0
        self.s_cost = self.s_cost2 = 0.0
        self.n_wrong = 0
        self.n_trunc = 0

    def add_arrays(self, tau, err, wrong, trunc, L: float):
        cost = tau + L * err
        self.n += tau.size
        self.s_tau += float(tau.sum())
        self.s_tau2 += float((tau * tau).sum())
        self.s_err += float(err.sum())
        self.s_err2 += float((err * err).sum())
        self.s_cost += float(cost.sum())
        self.s_cost2 += float((cost * cost).sum())
        self.n_wrong += int(wrong)
        self.n_trunc += int(trunc)

    def merge(self, other: "_Acc"):
        self.n += other.n
        self.s_tau += other.s_tau
        self.s_tau2 += other.s_tau2
        self.s_err += other.s_err
        self.s_err2 += other.s_err2
        self.s_cost += other.s_cost
        self.s_cost2 += other.s_cost2
        self.n_wrong += other.n_wrong
        self.n_trunc += other.n_trunc

    def summary(self, L: float, path: tuple) -> SimulationSummary:
        n = self.n

        def mean_se(s, s2):
            mean = s / n
            if n > 1:
                var = max(0.0, (s2 - n * mean * mean) / (n - 1))
            else:
                var = 0.0
            return mean, math.sqrt(var / n)

        mean_tau, se_tau = mean_se(self.s_tau, self.s_tau2)
        pe, se_pe = mean_se(self.s_err, self.s_err2)
        _, se_cost = mean_se(self.s_cost, self.s_cost2)
        return SimulationSummary(
            n_trials=n,
            mean_tau=mean_tau,
            se_tau=se_tau,
            pe=pe,
            se_pe=se_pe,
            cost=mean_tau + L * pe,  # exact identity, not a re-averaged sum
            se_cost=se_cost,
            n_wrong=self.n_wrong,
            n_truncated=self.n_trunc,
            penalty=L,
            master_seed=path,
        )


def _lockstep_block(tables: _Tables, policy: Policy, thetas: np.ndarray, path: tuple, k0: int):
    """Run trials k0, k0+1, ... (true hypotheses ``thetas``) in lockstep.

    Returns per-trial (tau, terminal posterior (B, M), truncated).
    """
    model = tables.model
    B, M = thetas.size, model.M
    rngs = [_trial_rng(path, k0 + b) for b in range(B)]
    lm = np.tile(tables.log_prior, (B, 1))
    probs = np.tile(tables.prior, (B, 1))
    tau = np.zeros(B, dtype=np.int64)
    final = np.empty((B, M))
    truncated = np.zeros(B, dtype=bool)
    live = np.arange(B)
    finite = model.is_finite
    if finite:
        U = np.empty((B, 2 * CHUNK))
    horizon = policy.safety_horizon
    t = 0
    while True:
        w, stop = policy.batch_weights(probs, t)
        if horizon is not None and t >= horizon:
            truncated[live[~stop]] = True
            stop = np.ones(live.size, dtype=bool)
        if stop.any():
            done = live[stop]
            tau[done] = t
            final[done] = probs[stop]
            go = ~stop
            live, lm, probs, w = live[go], lm[go], probs[go], w[go]
            if finite:
                U = U[go]
            if live.size == 0:
                return tau, final, truncated
        theta = thetas[live]
        if finite:
            j = t % CHUNK
            if j == 0:
                for r, b in enumerate(live):
                    rngs[b].random(out=U[r])
            a = inverse_cdf_index(np.cumsum(w, axis=1), U[:, 2 * j])
            z = inverse_cdf_index(tables.cdf[theta, a], U[:, 2 * j + 1])
            ll = tables.logq_az[a, z]
        else:
            u = np.empty(live.size)
            z0 = np.empty(live.size)
            for r, b in enumerate(live):
                g = rngs[b]
                u[r] = g.random()
                z0[r] = g.standard_normal()
            a = inverse_cdf_index(np.cumsum(w, axis=1), u)
            z = tables.means[theta, a] + tables.stds[theta, a] * z0
            ll = tables.log_norm_am[a] - (z[:, None] - tables.means_am[a]) ** 2 / (2.0 * tables.vars_am[a])
        lm = lm + ll
        lm -= lm.max(axis=1)[:, None]
        p = np.exp(lm)
        probs = p / p.sum(axis=1)[:, None]
        t += 1


def _fixed_rule_logmass_block(
    tables: _Tables, weights: np.ndarray, n: int, thetas: np.ndarray, path: tuple, k0: int
):
    """Terminal log masses (M, B) for i.i.d.-rule, fixed-horizon trials."""
    model = tables.model
    B = thetas.size
    if n == 0:
        return np.tile(tables.log_prior[:, None], (1, B))
    U = np.empty((B, 2 * n))
    for b in range(B):
        U[b] = _trial_rng(path, k0 + b).random(2 * n)
    actions = inverse_cdf_index(np.cumsum(weights), U[:, 0::2])
    if model.is_finite:
        z = inverse_cdf_index(tables.cdf[thetas[:, None], actions], U[:, 1::2])
        gathered = tables.logq_iaz[:, actions, z]  # (M, B, n)
    else:
        mu = tables.means[thetas[:, None], actions]
        sd = tables.stds[thetas[:, None], actions]
        z = mu + sd * _normals_from_uniforms(U[:, 1::2])
        gathered = (
            tables.log_norm[:, actions]
            - (z[None, :, :] - tables.means[:, actions]) ** 2 / (2.0 * tables.vars[:, actions])
        )
    return tables.log_prior[:, None] + gathered.sum(axis=2)


def _normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF (keeps one uniform per draw)."""
    from scipy.special import ndtri

    return ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


def _run_block(model, tables, policy, thetas, path, k0, k1, L, want_records):
    block_thetas = thetas[k0:k1]
    if isinstance(policy, FixedRulePolicy) and policy.n is not None:
        lm = _fixed_rule_logmass_block(tables, policy.weights, policy.n, block_thetas, path, k0)
        p = np.exp(lm - lm.max(axis=0)[None, :])
        err = 1.0 - p.max(axis=0) / p.sum(axis=0)
        final, mode = (p / p.sum(axis=0)).T, p.argmax(axis=0)
        tau = np.full(block_thetas.size, policy.n)
        truncated = np.zeros(block_thetas.size, dtype=bool)
    else:
        tau, final, truncated = _lockstep_block(tables, policy, block_thetas, path, k0)
        err = 1.0 - final.max(axis=1)
        mode = final.argmax(axis=1)
    if type(policy).declare is Policy.declare:
        declared = mode
    else:  # a subclass's own rule, asked once per terminal posterior
        declared = np.array([policy.declare(p) for p in final], dtype=np.int64)
    wrong = declared != block_thetas
    acc = _Acc()
    acc.add_arrays(tau.astype(float), err, wrong.sum(), truncated.sum(), L)
    records = None
    if want_records:
        records = [
            TrialRecord(
                index=k0 + b,
                theta=int(block_thetas[b]),
                tau=int(tau[b]),
                declared=int(declared[b]),
                correct=not wrong[b],
                posterior_error=float(err[b]),
                truncated=bool(truncated[b]),
            )
            for b in range(block_thetas.size)
        ]
    return acc, records


def _block_task(args):
    model, policy, path, thetas, k0, k1, L = args
    tables = _Tables(model)
    acc, _ = _run_block(model, tables, policy, thetas, path, k0, k1, L, False)
    return k0, acc


def run_trials(
    model: ObservationModel,
    policy: Policy,
    n_trials: int,
    master_seed,
    *,
    record_trials: bool = False,
    workers: int = 1,
):
    """Simulate n_trials trials; returns (SimulationSummary, records or None).

    The summary is a deterministic fold over trial indices: the same
    (model, policy, n_trials, master_seed) always produces the identical
    summary, bit for bit, regardless of ``workers``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    path = _seed_path(master_seed)
    tables = _Tables(model)
    thetas = stratified_hypotheses(model.prior, n_trials)
    L = model.penalty
    ranges = [(k0, min(k0 + BLOCK, n_trials)) for k0 in range(0, n_trials, BLOCK)]

    total = _Acc()
    records = [] if record_trials else None
    if workers > 1 and not record_trials and len(ranges) > 1:
        tasks = [(model, policy, path, thetas, k0, k1, L) for k0, k1 in ranges]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partial = dict(pool.map(_block_task, tasks))
        for k0, _ in ranges:
            total.merge(partial[k0])
    else:
        for k0, k1 in ranges:
            acc, recs = _run_block(model, tables, policy, thetas, path, k0, k1, L, record_trials)
            total.merge(acc)
            if record_trials:
                records.extend(recs)
    return total.summary(L, path), records


@dataclass(frozen=True)
class SweepPoint:
    """One penalty setting of a sweep."""

    L: float
    log_L: float
    mean_tau: float
    se_tau: float
    pe: float
    se_pe: float
    cost: float
    cost_over_log_L: float
    n_truncated: int


def sweep_L(
    model: ObservationModel,
    policy_kind: str,
    L_values: Sequence[float],
    n_trials: int,
    master_seed,
    *,
    report: Optional[BoundsReport] = None,
    rule=None,
    fixed_n: Optional[int] = None,
    threshold: Optional[float] = None,
    phase_threshold: float = 0.5,
    workers: int = 1,
):
    """Rebuild the policy at each penalty L and simulate it.

    Returns (points, summaries); cost is E[tau] + L * P(error) per point.
    """
    from .bounds import compute_bounds

    path = _seed_path(master_seed)
    if report is None and policy_kind in ("nn", "sn", "sa"):
        report = compute_bounds(model)
    points = []
    summaries = []
    for idx, L in enumerate(L_values):
        model_L = model.with_penalty(float(L))
        report_L = report_at_penalty(report, model_L) if report is not None else None
        policy = build_policy(
            policy_kind,
            model_L,
            report_L,
            rule=rule,
            n=fixed_n,
            threshold=threshold,
            phase_threshold=phase_threshold,
        )
        summary, _ = run_trials(
            model_L, policy, n_trials, (*path, idx), workers=workers
        )
        logL = math.log(L)
        points.append(
            SweepPoint(
                L=float(L),
                log_L=logL,
                mean_tau=summary.mean_tau,
                se_tau=summary.se_tau,
                pe=summary.pe,
                se_pe=summary.se_pe,
                cost=summary.cost,
                cost_over_log_L=summary.cost / logL,
                n_truncated=summary.n_truncated,
            )
        )
        summaries.append(summary)
    return points, summaries


def pairwise_error_rates(model: ObservationModel, rule, n: int, n_trials: int, master_seed):
    """Monte Carlo estimate of P(posterior of j beats i | true i) at horizon n.

    Actions are drawn i.i.d. from ``rule``; entry (i, j) counts trials where
    the terminal posterior strictly prefers j over i given the truth is i.
    Returns (rates, stderrs), both (M, M) with zero diagonals.
    """
    w = np.asarray(getattr(rule, "weights", rule), dtype=float)
    path = _seed_path(master_seed)
    tables = _Tables(model)
    M = model.M
    rates = np.zeros((M, M))
    for i in range(M):
        beats = np.zeros(M)
        for k0 in range(0, n_trials, BLOCK):
            k1 = min(k0 + BLOCK, n_trials)
            thetas = np.full(k1 - k0, i, dtype=np.int64)
            lm = _fixed_rule_logmass_block(tables, w, n, thetas, (*path, i), k0)
            beats += (lm > lm[i][None, :]).sum(axis=1)
        rates[i] = beats / n_trials
        rates[i, i] = 0.0
    stderr = np.sqrt(rates * (1.0 - rates) / n_trials)
    return rates, stderr


@dataclass(frozen=True)
class BudgetPoint:
    """One expected-step budget of an exponent estimate."""

    budget: float
    penalty: Optional[float]
    mean_tau: float
    pe: float
    n_errors: int
    clean: bool
    neg_log_pe: float
    tuned: bool


@dataclass(frozen=True)
class ExponentEstimate:
    """Least-squares decay rate of -log P(error) against the step budget."""

    policy_kind: str
    slope: float
    slope_stderr: float
    intercept: float
    points: tuple
    lower_bound_only: bool
    n_trials: int


def _mean_tau_probe(model_L, policy, probe_trials, seed_path):
    summary, _ = run_trials(model_L, policy, probe_trials, seed_path)
    return summary.mean_tau


def _tune_penalty(model, policy_kind, report, target: float, probe_trials: int, path: tuple, *, phase_threshold: float, rel_tol: float):
    """Bisection on log L until the probe's mean stopping time hits target.

    The bisection accepts at half of ``rel_tol`` so that, with probe noise on
    top, the final full-size run lands within the stated tolerance.
    """

    def policy_at(logL: float):
        model_L = model.with_penalty(math.exp(logL))
        return model_L, build_policy(
            policy_kind, model_L, report_at_penalty(report, model_L), phase_threshold=phase_threshold
        )

    def tau_at(logL: float, probe_idx: int) -> float:
        model_L, policy = policy_at(logL)
        return _mean_tau_probe(model_L, policy, probe_trials, (*path, 7000 + probe_idx))

    rate = report.exponents.sa if policy_kind == "sa" else report.exponents.sn
    x = max(0.05, rate * target)
    lo = hi = x
    probe = 0
    t_lo = tau_at(lo, probe)
    probe += 1
    while t_lo > target and lo > 0.05:
        lo = max(0.05, lo * 0.5)
        t_lo = tau_at(lo, probe)
        probe += 1
    t_hi = tau_at(hi, probe)
    probe += 1
    while t_hi < target and hi < 200.0:
        hi = min(200.0, hi * 1.6)
        t_hi = tau_at(hi, probe)
        probe += 1
    tuned = False
    mid = 0.5 * (lo + hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        t_mid = tau_at(mid, probe)
        probe += 1
        if abs(t_mid - target) <= 0.5 * rel_tol * target:
            tuned = True
            break
        if t_mid < target:
            lo = mid
        else:
            hi = mid
    return math.exp(mid), tuned


def estimate_error_exponent(
    model: ObservationModel,
    policy_kind: str,
    budgets: Sequence[float],
    n_trials: int,
    master_seed,
    *,
    report: Optional[BoundsReport] = None,
    rule=None,
    phase_threshold: float = 0.5,
    tune_rel_tol: float = 0.02,
    workers: int = 1,
) -> ExponentEstimate:
    """Estimate how fast the error probability decays with the step budget.

    For fixed-horizon families (``nn``/``fixed``) the budget is the horizon
    itself; for sequential families the penalty is tuned by bisection until
    the mean stopping time matches the budget within ``tune_rel_tol``.  A
    budget with zero observed wrong declarations has its error estimate
    floored at 1/(2N) and flagged; flagged budgets are excluded from the
    least-squares fit when at least two trustworthy budgets remain, otherwise
    the fit uses the floored values and the whole estimate is marked as a
    lower bound only.
    """
    from .bounds import compute_bounds

    if report is None and policy_kind in ("nn", "sn", "sa"):
        report = compute_bounds(model)
    path = _seed_path(master_seed)
    probe_trials = max(4000, n_trials // 25)
    points = []
    for idx, budget in enumerate(budgets):
        if policy_kind in ("nn", "fixed"):
            use_rule = rule if policy_kind == "fixed" else report.d_hat_rule
            policy = build_policy("fixed", model, report, rule=use_rule, n=int(budget))
            model_L = model
            penalty = None
            tuned = True
        else:
            L, tuned = _tune_penalty(
                model,
                policy_kind,
                report,
                float(budget),
                probe_trials,
                (*path, idx),
                phase_threshold=phase_threshold,
                rel_tol=tune_rel_tol,
            )
            model_L = model.with_penalty(L)
            policy = build_policy(
                policy_kind,
                model_L,
                report_at_penalty(report, model_L),
                phase_threshold=phase_threshold,
            )
            penalty = L
        summary, _ = run_trials(model_L, policy, n_trials, (*path, idx), workers=workers)
        clean = summary.n_wrong > 0
        pe = summary.pe if clean else max(summary.pe, _pe_floor(n_trials))
        points.append(
            BudgetPoint(
                budget=float(budget),
                penalty=penalty,
                mean_tau=summary.mean_tau,
                pe=pe,
                n_errors=summary.n_wrong,
                clean=clean,
                neg_log_pe=-math.log(pe),
                tuned=tuned,
            )
        )

    fit_points = [p for p in points if p.clean]
    lower_bound_only = len(fit_points) < 2
    if lower_bound_only:
        fit_points = points
    x = np.array([p.budget for p in fit_points])
    y = np.array([p.neg_log_pe for p in fit_points])
    if x.size < 2 or np.ptp(x) == 0.0:
        slope, intercept, slope_se = 0.0, float(y.mean()) if y.size else 0.0, math.inf
        lower_bound_only = True
    else:
        xbar, ybar = x.mean(), y.mean()
        sxx = float(((x - xbar) ** 2).sum())
        slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
        intercept = float(ybar - slope * xbar)
        dof = x.size - 2
        if dof > 0:
            rss = float(((y - slope * x - intercept) ** 2).sum())
            slope_se = math.sqrt(rss / dof / sxx)
        else:
            slope_se = 0.0
    return ExponentEstimate(
        policy_kind=policy_kind,
        slope=slope,
        slope_stderr=slope_se,
        intercept=intercept,
        points=tuple(points),
        lower_bound_only=lower_bound_only,
        n_trials=n_trials,
    )
