"""Monte Carlo harness for sensing policies.

Reproducibility rules:

* trial k of seed path S draws its own counter-based stream, so every trial
  can be replayed on its own and no numpy generator is built.  S is hashed
  once to a 64-bit word h (``_path_hash``); trial k's key is
  seed_k = mix(mix(k * PHI + h) ^ h) and its odd step gamma_k =
  mix(seed_k + PHI) | 1 (``_trial_keys``), and its uniform c = 1, 2, ... is
  the top 53 bits of mix(seed_k + c * gamma_k), mix being SplitMix64's
  output mix (``_uniforms``).  Each trial steps by its own gamma, so two
  trials' streams are windows of one Weyl sequence only if their steps
  coincide (chance about N**2 / 2**64 among N trials).  A run has at most
  2**32 trials; a negative seed word raises numpy's own error, and any word
  that is not an integer a ``TypeError`` naming it;
* true hypotheses are assigned by a deterministic quota scheme that keeps
  empirical frequencies within one trial of the prior at every prefix (for a
  uniform prior this is plain round-robin), which strips the prior-sampling
  variance out of every estimate;
* trials are folded into fixed blocks of 1024, each reduced to one row of
  sums per stop, and a run's block rows are summed in index order, so
  summaries are bit-identical no matter how many workers processed them.

Blocks run in the process's one worker pool (``_worker_pool``), opened on
the first call that needs more than one worker and kept for every later
``run_trials``, ``sweep_L`` and ``estimate_error_exponent`` call; it is
reopened when the worker count changes, a worker dies or the process forks.
Workers are forked, so they see module state as it was when the pool
opened: a test that patches an attribute the workers read must run at
``workers=1`` or close the pool first (``_close_pool``).  Modules load the
same way: a worker forked before the process's first Gaussian draw imports
``scipy.special`` (for ``model.draw_symbol``) itself, once, on its own first
Gaussian draw (~0.3 s).

Sequential policies run in a lockstep engine: all live trials of a block
advance together, one ``policies.stops`` count, one ``Policy.batch_weights``
query of the trials left and one vectorized log-domain Bayes update
(``belief.normalize``) per step.  The engine runs a stack of (threshold,
horizon) stops whose top is the policy's own; below it sit the stops of a
sweep's lower points, if any.  Each stop records a trial at its first
passage, and the trial plays on until it has met every stop of the stack.
``sweep_L`` runs each group of points whose policies differ only in their
stops as one such pass, so every point of the group sees the same trials,
and folds each point's summary straight from the pass's block results.
A ``FixedRulePolicy`` with a horizon and no threshold, whose class keeps
its ``batch_weights``, takes a separate path that draws all of a trial's
uniforms at once and sums the log-likelihoods without per-step
normalization; a subclass that overrides ``batch_weights`` runs in the
engine.  Both paths read one uniform stream per trial, in the same order on
every kernel type: per step, the action uniform, then the symbol uniform
(the engine asks for its live trials' next ``CHUNK`` steps of uniforms at
a counter offset, which yields the same stream at any chunk size).
``model.draw_symbol`` turns the symbol uniform into a symbol, through the
inverse CDF of a finite row or the inverse normal CDF of a Gaussian one.  A
trial's trajectory therefore does not depend on the other trials in its
block, and a fixed-horizon rule written as a plain ``Policy`` sees the same
trajectories in the engine.  Per-trial arrays keep the trial axis innermost,
so that a sum or maximum over a short axis runs across trials: uniforms are
step-major (T, B), and the engine's posteriors are (B, M) views of
hypothesis-major (M, B) arrays.  Both paths declare ``belief.posterior_mode``,
the lowest index among masses tied up to rounding, and read the kernel's own
tables and ``ObservationModel.log_likelihood``; the simulator keeps no copy
of them.

The error probability reported by a summary is the mean terminal posterior
error, E[posterior mass off the mode at the stop] (``belief.posterior_error``,
summed directly so that it does not cancel when small), which is exactly
the probability of a wrong declaration under the model and has far lower
variance than counting wrong declarations; the raw count is kept alongside
it.
"""

from __future__ import annotations

import gc
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .belief import normalize, posterior_error, posterior_mode
from .bounds import BoundsReport, report_at_penalty
from .model import ObservationModel, as_weights, draw_symbol, inverse_cdf_index
from .policies import FixedRulePolicy, Policy, TwoPhasePolicy, build_policy, stops
from .policies import _check_count, _check_stop, _stop_stack, _truncated

BLOCK = 1024

# Steps of uniforms a lockstep trial draws per refill; the stream is the same
# at any value, and 16 ran fastest of 2 to 32 replaying a sweep's refills.
CHUNK = 16

# estimate_error_exponent places a sequential family's budgets on a pilot
# sweep over this many penalties, evenly spaced in log L.
LADDER = 32

# When a run observes zero wrong declarations, the error estimate is floored
# at 1/(2N) and flagged: the tail of the posterior-error distribution is then
# under-sampled and the estimate is only trustworthy as a lower bound.
def _pe_floor(n_trials: int) -> float:
    return 0.5 / n_trials


def _seed_path(master_seed) -> tuple:
    """The words of ``master_seed``, an integer or a sequence of them.

    A word must be an ``int``, ``bool`` or numpy integer, and not negative;
    a word numpy would parse (a nested list, a hex string) is rejected.
    """
    words = tuple(master_seed) if isinstance(master_seed, (tuple, list)) or np.ndim(master_seed) else (master_seed,)
    for word in words:
        if not isinstance(word, (int, np.integer)):
            raise TypeError(f"seed must be integer, got {word!r}")
    path = tuple(int(word) for word in words)
    if any(word < 0 for word in path):
        raise ValueError("expected non-negative integer")
    return path


def _check_trials(n_trials: int) -> None:
    """A whole, positive number of trials, at most 2**32.

    The stream takes any trial index below 2**64 (its keys are a bijection
    of the index), so the cap is not the stream's: it is the run size the
    seed contract has always admitted, kept so that a count one version
    accepts the next accepts too.
    """
    _check_count(n_trials, "n_trials", positive=True)
    if n_trials > 2**32:
        raise ValueError(f"n_trials must be at most 2**32, got {n_trials}")


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio Weyl step
# and the two multipliers of the output mix (Stafford's variant 13)
_PHI, _M1, _M2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _mix64(z):
    """SplitMix64's output mix of uint64 values: an array is mixed in place,
    a numpy scalar only under ``np.errstate(over="ignore")``."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def _path_hash(path: tuple) -> np.uint64:
    """One 64-bit word of a seed path: each word enters as its count of
    64-bit limbs and then its limbs, low first, so the encoding is prefix-free
    and paths such as (2**64,) and (0, 1) differ."""
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for word in path:
            limbs = [word >> shift & 2**64 - 1 for shift in range(0, max(word.bit_length(), 1), 64)]
            for x in [len(limbs), *limbs]:
                h = _mix64((h + _PHI) ^ np.uint64(x))
    return h


def _trial_keys(path: tuple, k0: int, B: int) -> np.ndarray:
    """(2, B) uint64: the key seed_k and the odd step gamma_k of each trial k0 <= k < k0 + B.

    seed_k = mix(mix(k * PHI + h) ^ h), h the path's hash, and gamma_k =
    mix(seed_k + PHI) | 1.  A step with fewer than 24 bit transitions is
    xored with 0xAA...A, SplitMix's guard against weak Weyl steps (its
    popcount is SWAR, as numpy < 2 has no ``bitwise_count``).
    """
    h = _path_hash(path)
    seed = _mix64(_mix64(np.arange(k0, k0 + B, dtype=np.uint64) * _PHI + h) ^ h)
    gamma = _mix64(seed + _PHI) | np.uint64(1)
    x = gamma ^ gamma >> np.uint64(1)
    x -= x >> np.uint64(1) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (x >> np.uint64(2) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    weak = (x * np.uint64(0x0101010101010101)) >> np.uint64(56) < np.uint64(24)
    gamma[weak] ^= np.uint64(0xAAAAAAAAAAAAAAAA)
    return np.stack([seed, gamma])


def _uniforms(keys: np.ndarray, c0: int, T: int) -> np.ndarray:
    """Uniforms c0 + 1 ... c0 + T of the trials whose ``_trial_keys`` columns are ``keys``, as (T, n).

    Uniform c of a trial is the top 53 bits of mix(seed + c * gamma), scaled
    to [0, 1): a counter, so a stream resumes at any c0 with no state kept.
    """
    seed, gamma = keys
    z = np.arange(c0 + 1, c0 + T + 1, dtype=np.uint64)[:, None] * gamma
    z += seed
    _mix64(z)
    z >>= np.uint64(11)
    return z * 2.0**-53


def stratified_hypotheses(prior: np.ndarray, n: int) -> np.ndarray:
    """Deterministic quota assignment of true hypotheses for n trials."""
    M = prior.size
    if np.allclose(prior, 1.0 / M, rtol=0.0, atol=1e-12):
        return np.arange(n, dtype=np.int64) % M
    # Python floats round as numpy's float64 does, and index(max) takes the
    # first maximum, as argmax would, at a fraction of a numpy call per trial
    weights, counts, out = prior.tolist(), [0.0] * M, []
    for t in range(1, n + 1):
        lead = [w * t - c for w, c in zip(weights, counts)]
        i = lead.index(max(lead))
        out.append(i)
        counts[i] += 1.0
    return np.array(out, dtype=np.int64)


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


def _block_sums(tau: np.ndarray, err: np.ndarray, wrong: np.ndarray, truncated: np.ndarray, L: float):
    """One block's (n, sums of tau, err and cost, sums of their squares, n_wrong, n_truncated)."""
    cols = np.stack([tau, err, tau + L * err])
    return np.concatenate([[tau.size], cols.sum(axis=1), (cols * cols).sum(axis=1), [wrong.sum(), truncated.sum()]])


def _summary(sums: np.ndarray, L: float, path: tuple) -> SimulationSummary:
    """The summary of a run from the sum of its blocks' ``_block_sums``."""
    n, s, s2 = int(sums[0]), sums[1:4], sums[4:7]
    mean = s / n
    var = np.maximum(0.0, (s2 - n * mean * mean) / (n - 1)) if n > 1 else np.zeros(3)
    (mean_tau, pe, _), (se_tau, se_pe, se_cost) = mean.tolist(), np.sqrt(var / n).tolist()
    return SimulationSummary(
        n_trials=n,
        mean_tau=mean_tau,
        se_tau=se_tau,
        pe=pe,
        se_pe=se_pe,
        cost=mean_tau + L * pe,  # exact identity, not a re-averaged sum
        se_cost=se_cost,
        n_wrong=int(sums[7]),
        n_truncated=int(sums[8]),
        penalty=L,
        master_seed=path,
    )


def _lockstep_block(model: ObservationModel, policy: Policy, thetas: np.ndarray, path: tuple, k0: int, stack):
    """Run trials k0, k0+1, ... (true hypotheses ``thetas``) in lockstep.

    ``policy`` plays every step, and its own stop tops ``stack``, a
    ``policies._stop_stack`` whose lower stops are those of the points
    below it; ``policies.stops`` tells how many of the P stops each trial
    meets at a step.  A trial is recorded at each stop it first meets, and
    retires once it has met all P, at ``policy``'s own stop.  Returns per-trial (tau (P, B),
    terminal posterior (P, B, M)), one row per stop of the stack.
    """
    B, M, P = thetas.size, model.M, stack.shape[1]
    keys = _trial_keys(path, k0, B)
    # (B, M) views of (M, B) arrays, so maxima and sums over M run across trials
    lm = np.tile(np.log(model.prior)[:, None], (1, B)).T
    probs = np.tile(model.prior[:, None], (1, B)).T
    tau = np.zeros((P, B), dtype=np.int64)
    final = np.empty((P, B, M))
    live = np.arange(B)
    met = np.zeros(B, dtype=np.intp)  # stops each live trial has met
    points = np.arange(P)[:, None]
    U = np.empty((2 * CHUNK, B))  # column b holds trial b's uniforms for CHUNK steps
    t = 0
    while True:
        due = stops(stack, probs.max(axis=1), t)
        # every (stop, row) pair met now, in one scatter
        p, row = ((met <= points) & (points < due)).nonzero()
        if row.size:
            tau[p, live[row]] = t
            final[p, live[row]] = probs[row]
            np.maximum(met, due, out=met)
            go = met < P
            if not go.all():
                live, met = live[go], met[go]
                lm, probs = (x.T.compress(go, axis=1).T for x in (lm, probs))  # x[go] is trial-major
                if live.size == 0:
                    return tau, final
        w = policy.batch_weights(probs, t)
        j = t % CHUNK
        if j == 0:
            U[:, live] = _uniforms(keys[:, live], 2 * t, 2 * CHUNK)
        a = inverse_cdf_index(np.cumsum(w, axis=1), U[2 * j, live])
        z = draw_symbol(model.kernel, thetas[live], a, U[2 * j + 1, live])
        lm, probs = normalize((lm.T + model.log_likelihood(a, z)).T)  # lm.T is C-contiguous, so the sum is
        t += 1


def _fixed_rule_logmass_block(
    model: ObservationModel, weights: np.ndarray, n: int, thetas: np.ndarray, path: tuple, k0: int
):
    """Terminal log masses (M, B) for i.i.d.-rule, fixed-horizon trials."""
    B = thetas.size
    log_prior = np.log(model.prior)
    if n == 0:
        return np.tile(log_prior[:, None], (1, B))
    U = _uniforms(_trial_keys(path, k0, B), 0, 2 * n)
    actions = inverse_cdf_index(np.cumsum(weights), U[0::2])
    z = draw_symbol(model.kernel, thetas, actions, U[1::2])
    # the (M, n, B) log-likelihoods keep the step axis outside the trial axis, so
    # the sum over it adds each trial's n terms in step order; along a contiguous
    # axis numpy would add them pairwise, which rounds differently for n >= 8
    return log_prior[:, None] + model.log_likelihood(actions, z).sum(axis=1)


def _run_block(model, policy, block_thetas, path, k0, want_records, lower=()):
    """One block's (P, 9) ``_block_sums``, a row per (threshold, horizon,
    penalty) of ``lower`` and then one for ``policy``'s own stop, the top of
    their stack, and that own stop's records (None unless ``want_records``)."""
    stack = _stop_stack([*(stop[:2] for stop in lower), (policy.threshold, policy.horizon)])
    if type(policy).batch_weights is FixedRulePolicy.batch_weights and policy.threshold is None:
        lm = _fixed_rule_logmass_block(model, policy.weights, policy.horizon, block_thetas, path, k0)
        taus, finals = np.full((1, block_thetas.size), policy.horizon), normalize(lm.T)[1][None]
    else:
        taus, finals = _lockstep_block(model, policy, block_thetas, path, k0, stack)
    truncs = _truncated(stack, finals.max(axis=2))
    ends = zip(taus, finals, truncs, [stop[2] for stop in lower] + [model.penalty])
    sums = []
    for tau, final, truncated, L in ends:
        err = posterior_error(final)
        declared = posterior_mode(final, tau)
        wrong = declared != block_thetas
        sums.append(_block_sums(tau.astype(float), err, wrong, truncated, L))
    records = None
    if want_records:
        # the loop ends on the own stop, the only one records are asked of
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
    return np.array(sums), records


def _block_tasks(model: ObservationModel, policy: Policy, thetas: np.ndarray, path: tuple, want_records=False, lower=()):
    """``_run_block`` arguments for each block of ``BLOCK`` trials (true hypotheses ``thetas``), in index order."""
    starts = range(0, thetas.size, BLOCK)
    return [(model, policy, thetas[k0 : k0 + BLOCK], path, k0, want_records, lower) for k0 in starts]


def _block_task(task):
    return _run_block(*task)


def _map_blocks(tasks: list, workers: int) -> list:
    """``_run_block`` of each task, run in the process's pool, as a list in index order."""
    pool = _worker_pool(workers) if len(tasks) > 1 else None
    return list((map if pool is None else pool.map)(_block_task, tasks))


# The process's worker pool, its worker count and the pid of the process that
# opened it; see _worker_pool.
_process_pool = None
_process_pool_lock = threading.RLock()


def _worker_pool(workers: int):
    """The process's worker pool for ``workers`` workers (None for 1 worker).

    The pool is opened on the first call and shared by every later one at
    the same worker count.  It is reopened when the worker count changes
    (the old pool is shut down before the new one forks), when it is broken
    (a worker died), or in a fork of the process that opened it, which must
    not touch its parent's pool.  ``concurrent.futures`` joins the workers
    at interpreter exit.

    Each worker freezes the objects it inherits from the parent.  Otherwise
    its first full collection, which comes sooner or later depending on the
    parent's allocation history, scans every inherited object and copies the
    pages they sit on.
    """
    global _process_pool
    if workers <= 1:
        return None
    with _process_pool_lock:
        if _process_pool is not None:
            pool, size, owner = _process_pool
            if owner == os.getpid() and size == workers and not pool._broken:
                return pool
            _close_pool()
        pool = ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze)
        _process_pool = pool, workers, os.getpid()
        return pool


def _close_pool() -> None:
    """Shut down the process's worker pool, if this process opened one."""
    global _process_pool
    with _process_pool_lock:
        if _process_pool is not None and _process_pool[2] == os.getpid():
            _process_pool[0].shutdown()
        _process_pool = None


def _share_a_pass(a: Policy, b: Policy) -> bool:
    """Whether one pass plays both ``a`` and ``b``: threshold rules of one
    built-in class (a subclass never shares) whose every field but their
    stop (threshold and horizon) is equal."""
    if type(a) is not type(b) or type(a) not in (FixedRulePolicy, TwoPhasePolicy):
        return False
    if a.threshold is None or b.threshold is None:
        return False
    plays = [f.name for f in fields(a) if f.name not in ("threshold", "horizon")]
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in plays)


def run_trials(
    model: ObservationModel,
    policy: Policy,
    n_trials: int,
    master_seed,
    *,
    record_trials: bool = False,
    workers: int = 1,
    _blocks=None,
):
    """Simulate n_trials trials; returns (SimulationSummary, records or None).

    The summary is a deterministic fold over trial indices: the same
    (model, policy, n_trials, master_seed) always produces the identical
    summary, bit for bit, regardless of ``workers``: the (n_blocks, 9) array
    of its blocks' ``_block_sums`` is summed in index order.  ``_blocks`` is
    ``sweep_L``'s such array, this run's stop of its group's pass, folded in
    place of running the blocks.
    """
    path, records = _seed_path(master_seed), None
    if _blocks is None:
        _check_trials(n_trials)
        _check_stop(policy)
        tasks = _block_tasks(model, policy, stratified_hypotheses(model.prior, n_trials), path, record_trials)
        results = _map_blocks(tasks, workers)
        _blocks = np.concatenate([sums for sums, _ in results])
        if record_trials:
            records = [record for _, block_records in results for record in block_records]
    return _summary(_blocks.sum(axis=0), model.penalty, path), records


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
    workers: int = 1,
):
    """Rebuild the policy at each penalty L and simulate it.

    The built families ``nn``, ``sn`` and ``sa`` need ``report``; ``fixed``
    takes ``rule`` and one of ``fixed_n`` / ``threshold`` (see ``build_policy``).
    Points whose policies differ only in their stop (threshold and horizon)
    form a group: threshold rules of one built-in class,
    ``FixedRulePolicy`` or ``TwoPhasePolicy``, whose every other field is
    equal, as ``sa``'s are at every L and ``sn``'s under a uniform prior.  A
    group builds its blocks once and runs them as one lockstep pass on the
    seed path ``(*master_seed, g)``, g the least index of its points; each
    point's ``run_trials`` call folds its column of the group's block sums,
    and equals ``run_trials`` of that point's policy on that seed, bit for bit.
    Any other point is a group of one.
    Returns (points, summaries) in the order of ``L_values``; cost is
    E[tau] + L * P(error) per point.
    """
    path = _seed_path(master_seed)
    _check_trials(n_trials)
    runs = []
    for L in L_values:
        model_L = model.with_penalty(float(L))
        report_L = report_at_penalty(report, model_L) if report is not None else None
        policy = build_policy(policy_kind, model_L, report_L, rule=rule, n=fixed_n, threshold=threshold)
        runs.append((model_L, policy))
    # each group lists its points sorted by L, so that the top point plays
    # every step of the group's pass and stops last
    groups = []
    for idx in sorted(range(len(runs)), key=lambda i: runs[i][0].penalty):
        group = next((g for g in groups if _share_a_pass(runs[g[0]][1], runs[idx][1])), None)
        if group is None:
            groups.append([idx])
        else:
            group.append(idx)
    # every point has the model's prior, so one stratification serves them all
    thetas, tasks = stratified_hypotheses(model.prior, n_trials), []
    for group in groups:
        lower = [(runs[i][1].threshold, runs[i][1].horizon, runs[i][0].penalty) for i in group[:-1]]
        tasks += _block_tasks(*runs[group[-1]], thetas, (*path, min(group)), lower=lower)
    n_blocks = -(-n_trials // BLOCK)
    results = _map_blocks(tasks, workers)
    summaries = [None] * len(runs)
    # each point's run_trials folds its stop's (n_blocks, 9) view of its group's (n_blocks, P, 9) blocks
    for g, group in enumerate(groups):
        blocks = np.stack([sums for sums, _ in results[g * n_blocks : (g + 1) * n_blocks]])
        for pos, idx in enumerate(group):
            summaries[idx] = run_trials(*runs[idx], n_trials, (*path, min(group)), _blocks=blocks[:, pos])[0]
    points = [
        SweepPoint(
            L=float(L),
            log_L=math.log(L),
            mean_tau=summary.mean_tau,
            se_tau=summary.se_tau,
            pe=summary.pe,
            se_pe=summary.se_pe,
            cost=summary.cost,
            cost_over_log_L=summary.cost / math.log(L),
            n_truncated=summary.n_truncated,
        )
        for L, summary in zip(L_values, summaries)
    ]
    return points, summaries


def pairwise_error_rates(model: ObservationModel, rule, n: int, n_trials: int, master_seed):
    """Monte Carlo estimate of P(posterior of j beats i | true i) at horizon n.

    Actions are drawn i.i.d. from ``rule``; entry (i, j) counts trials where
    the terminal posterior strictly prefers j over i given the truth is i.
    Returns (rates, stderrs), both (M, M) with zero diagonals.
    """
    _check_trials(n_trials)
    _check_count(n, "horizon")
    w = as_weights(rule, model.K)
    path = _seed_path(master_seed)
    M = model.M
    rates = np.zeros((M, M))
    for i in range(M):
        beats = np.zeros(M)
        for k0 in range(0, n_trials, BLOCK):
            k1 = min(k0 + BLOCK, n_trials)
            thetas = np.full(k1 - k0, i, dtype=np.int64)
            lm = _fixed_rule_logmass_block(model, w, n, thetas, (*path, i), k0)
            beats += (lm > lm[i][None, :]).sum(axis=1)
        rates[i] = beats / n_trials
        rates[i, i] = 0.0
    stderr = np.sqrt(rates * (1.0 - rates) / n_trials)
    return rates, stderr


@dataclass(frozen=True)
class BudgetPoint:
    """One budget of an exponent estimate; ``penalty`` is None for a fixed horizon."""

    budget: float
    penalty: Optional[float]
    mean_tau: float
    pe: float
    n_errors: int
    clean: bool
    neg_log_pe: float


@dataclass(frozen=True)
class ExponentEstimate:
    """Least-squares decay rate of -log P(error) against the mean stopping
    time; ``slope_stderr`` is infinite when the fit leaves no residual."""

    policy_kind: str
    slope: float
    slope_stderr: float
    intercept: float
    points: tuple
    lower_bound_only: bool
    n_trials: int


def _place_budgets(model, policy_kind, report, budgets, path: tuple, workers: int) -> list:
    """The penalties at which ``policy_kind`` (``sn`` or ``sa``) meets each budget in mean tau.

    One pilot ``sweep_L`` of ``BLOCK`` trials on seed path ``(*path,
    len(budgets))`` runs ``LADDER`` penalties, evenly spaced in log L from 0.05
    up to the report's exponent times the largest budget; the top doubles
    until the pilot's largest mean tau reaches the largest budget.  Each
    budget's log L is interpolated in the pilot's running maximum of mean tau.
    """
    # a model the family cannot run on (an infinite max-min reliability) raises here, before any run
    build_policy(policy_kind, model.with_penalty(math.exp(0.05)), report)
    rate = report.exponents.sa if policy_kind == "sa" else report.exponents.sn
    top, seed = max(0.05, rate * max(budgets)), (*path, len(budgets))
    while True:
        log_L = np.linspace(0.05, top, LADDER)
        pilot, _ = sweep_L(model, policy_kind, np.exp(log_L), BLOCK, seed, report=report, workers=workers)
        tau = np.maximum.accumulate([p.mean_tau for p in pilot])
        if tau[-1] >= max(budgets):
            return np.exp(np.interp(budgets, tau, log_L)).tolist()
        top *= 2.0


def estimate_error_exponent(
    model: ObservationModel,
    policy_kind: str,
    budgets: Sequence[float],
    n_trials: int,
    master_seed,
    *,
    report: Optional[BoundsReport] = None,
    rule=None,
    workers: int = 1,
) -> ExponentEstimate:
    """Estimate how fast the error probability decays with the step budget.

    For fixed-horizon families (``nn``/``fixed``) the budget is the horizon
    itself, a whole number; for sequential families it is a target mean
    stopping time, and its penalty is read off one pilot ladder
    (``_place_budgets``).  Budget i runs on seed path ``(*master_seed, i)``,
    and -log P(error) is fitted against each run's measured mean stopping
    time.  Budgets must be a non-empty list of finite, positive numbers.
    ``nn``, ``sn`` and ``sa`` need ``report`` and take no ``rule``; ``fixed``
    plays ``rule``.
    A budget with zero observed wrong declarations has its error estimate
    floored at 1/(2N) and flagged; flagged budgets are excluded from the
    least-squares fit when at least two trustworthy budgets remain, otherwise
    the fit uses the floored values and the whole estimate is marked as a
    lower bound only.
    """
    fixed_horizon = policy_kind in ("nn", "fixed")
    valid = (math.isfinite(b) and b > 0 and (not fixed_horizon or float(b).is_integer()) for b in budgets)
    if len(budgets) == 0 or not all(valid):
        kind = "positive whole numbers" if fixed_horizon else "finite, positive numbers"
        raise ValueError(
            f"{policy_kind} budgets must be a non-empty list of {kind}, got {[float(b) for b in budgets]}"
        )
    _check_trials(n_trials)
    if policy_kind != "fixed":
        if rule is not None:
            raise ValueError(f"policy kind {policy_kind!r} takes no rule")
        if report is None:
            raise ValueError(f"policy kind {policy_kind!r} needs a bounds report")
    path = _seed_path(master_seed)
    if fixed_horizon:
        use_rule = rule if policy_kind == "fixed" else report.d_hat_rule
        runs = [(model, build_policy("fixed", model, rule=use_rule, n=int(budget)), None) for budget in budgets]
    else:
        models = [model.with_penalty(L) for L in _place_budgets(model, policy_kind, report, budgets, path, workers)]
        runs = [(model_L, build_policy(policy_kind, model_L, report), model_L.penalty) for model_L in models]
    points = []
    for idx, (budget, (model_L, policy, penalty)) in enumerate(zip(budgets, runs)):
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
            )
        )

    fit_points = [p for p in points if p.clean]
    lower_bound_only = len(fit_points) < 2
    if lower_bound_only:
        fit_points = points
    x = np.array([p.mean_tau for p in fit_points])
    y = np.array([p.neg_log_pe for p in fit_points])
    if x.size < 2 or np.ptp(x) == 0.0:
        slope, intercept, slope_se = 0.0, float(y.mean()) if y.size else 0.0, math.inf
        lower_bound_only = True
    else:
        xbar, ybar = x.mean(), y.mean()
        sxx = float(((x - xbar) ** 2).sum())
        slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
        intercept = float(ybar - slope * xbar)
        rss = float(((y - slope * x - intercept) ** 2).sum())
        # two points fit exactly and leave no residual to measure the slope by
        slope_se = math.sqrt(rss / (x.size - 2) / sxx) if x.size > 2 else math.inf
    return ExponentEstimate(
        policy_kind=policy_kind,
        slope=slope,
        slope_stderr=slope_se,
        intercept=intercept,
        points=tuple(points),
        lower_bound_only=lower_bound_only,
        n_trials=n_trials,
    )
