"""Monte Carlo harness for sensing policies.

Reproducibility rules:

* trial k draws from ``default_rng((*master_seed, k))`` so every trial is an
  independent stream that can be replayed on its own.  A block builds no
  generator: ``_seed_rows`` runs numpy's ``SeedSequence`` hash (entropy pool
  of 4 words, then ``generate_state(4, uint64)``) over all of its trial
  indices at once in uint32 arrays, and ``_Streams`` runs PCG64 over the
  hashed rows, all trials at once, returning the uniforms
  ``Generator.random`` would.  A seed word enters the hash as its uint32
  words, as numpy splits it, and a trial index as one word, so a run has at
  most 2**32 trials; a negative seed word raises numpy's own error, and any
  word that is not an integer a ``TypeError`` naming it;
* true hypotheses are assigned by a deterministic quota scheme that keeps
  empirical frequencies within one trial of the prior at every prefix (for a
  uniform prior this is plain round-robin), which strips the prior-sampling
  variance out of every estimate;
* trials are folded into fixed blocks of 1024, each reduced to one vector
  of sums, and the block vectors are added in index order, so summaries
  are bit-identical no matter how many workers processed them.

Blocks run in the process's one worker pool (``_worker_pool``), opened on
the first call that needs more than one worker and kept for every later
``run_trials``, ``sweep_L`` and ``estimate_error_exponent`` call; it is
reopened when the worker count changes, a worker dies or the process forks.
Workers are forked, so they see module state as it was when the pool
opened: a test that patches an attribute the workers read must run at
``workers=1`` or close the pool first (``_close_pool``).

Sequential policies run in a lockstep engine: all live trials of a block
advance together, one ``Policy.batch_weights`` query and one vectorized
log-domain Bayes update (``belief.normalize``) per step, and a trial retires when its policy stops
or it reaches the policy's safety horizon (flagged as truncated).
One pass of the engine can also serve a stack of lower stops, (threshold,
horizon) pairs below the policy's own: each records a trial at its first
passage and the trial plays on to the policy's stop.  ``sweep_L`` runs each
group of points whose policies differ only in their stops as one such pass,
so every point of the group sees the same trials.
A fixed-horizon ``FixedRulePolicy`` whose class keeps its ``batch_weights``
takes a separate path that draws all of a trial's uniforms at once and sums
the log-likelihoods without per-step normalization; a subclass that
overrides ``batch_weights`` runs in the engine.  Both paths read one
uniform stream per trial, in the same order on every kernel type: per
step, the action uniform, then the symbol uniform (the engine continues the
streams of its live trials in chunks of ``CHUNK`` steps, which yields the
same stream at any chunk size).
``model.draw_symbol`` turns the symbol uniform into a symbol, through the
inverse CDF of a finite row or the inverse normal CDF of a Gaussian one.  A
trial's trajectory therefore does not depend on the other trials in its
block, and a fixed-horizon rule written as a plain ``Policy`` sees the same
trajectories in the engine.  Both paths declare ``belief.posterior_mode``,
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
import itertools
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .belief import normalize, posterior_error, posterior_mode
from .bounds import BoundsReport, report_at_penalty
from .model import ObservationModel, as_weights, draw_symbol, inverse_cdf_index
from .policies import FixedRulePolicy, Policy, TwoPhasePolicy, build_policy

BLOCK = 1024

# Steps of uniforms a lockstep trial draws per refill; the stream is the same
# at any value, and 16 ran fastest of 2 to 32 replaying a sweep's refills.
CHUNK = 16

# _tune_penalty gives up once its log-L bracket is narrower than this: mean
# tau is a step function of L, so a target band inside a step is never hit.
MIN_LOG_L_BRACKET = 1e-3

# estimate_error_exponent tunes a sequential family's penalty until the mean
# stopping time is within this relative distance of the step budget.
TUNE_REL_TOL = 0.02

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
    """Trial indices are one uint32 entropy word each, so at most 2**32 trials."""
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if n_trials > 2**32:
        raise ValueError(f"n_trials must be at most 2**32, got {n_trials}")


def _seed_rows(path: tuple, k0: int, B: int) -> np.ndarray:
    """``SeedSequence((*path, k)).generate_state(4, np.uint64)`` for k0 <= k < k0 + B.

    numpy's hash (``mix_entropy`` into a pool of 4 words, then
    ``generate_state``) run over uint32 arrays, one entry per trial.  Each
    word of ``path`` enters as its little-endian uint32 words (0 as one
    word), as numpy splits it; every k must lie in [0, 2**32), one word.
    Returns (B, 4) uint64.
    """
    u32 = np.uint32
    pool_size, mask = 4, 0xFFFFFFFF
    xshift = u32(16)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * 0x931E8875 & mask
        value = value * u32(hash_const)
        return value ^ value >> xshift

    def mix(x, y):
        result = u32(0xCA01F9DD) * x - u32(0x4973F715) * y
        return result ^ result >> xshift

    words = [word >> shift & mask for word in path for shift in range(0, max(word.bit_length(), 1), 32)]
    entropy = [np.full(B, word, dtype=u32) for word in words]
    entropy.append(np.arange(k0, k0 + B, dtype=u32))
    # an entropy shorter than the pool runs the hash out on zeros
    entropy += [np.zeros(B, dtype=u32)] * (pool_size - len(entropy))
    with np.errstate(over="ignore"):
        mixer = [hashmix(word) for word in entropy[:pool_size]]
        for src in range(pool_size):
            for dst in range(pool_size):
                if src != dst:
                    mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
        for word in entropy[pool_size:]:
            for dst in range(pool_size):
                mixer[dst] = mix(mixer[dst], hashmix(word))
        state = np.empty((B, 2 * pool_size), dtype=u32)
        hash_const = 0x8B51F9DD
        for i in range(2 * pool_size):
            value = mixer[i % pool_size] ^ u32(hash_const)
            hash_const = hash_const * 0x58F38DED & mask
            value = value * u32(hash_const)
            state[:, i] = value ^ value >> xshift
    return state.astype("<u4").view("<u8").astype(np.uint64)


# numpy's PCG64 multiplier: each draw maps the 128-bit state to state * MULT + inc
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)

# A jump of d = 2**j draws maps the state to state * MULT**d + inc_d, with
# inc_d = inc * (1 + MULT + ... + MULT**(d - 1)); _JUMPS[j] holds MULT**d as
# uint64 (high word, low word, low word's 32-bit limbs).  _LANES caps d and so
# the rows one jump fills: T draws take about log2(_LANES) + T / _LANES jumps.
_LANES = 16
_JUMPS = [
    tuple(np.uint64(w) for w in (m >> 64, m & 2**64 - 1, m & 2**32 - 1, m >> 32 & 2**32 - 1))
    for m in (pow(_PCG_MULT, 2**j, 2**128) for j in range(_LANES.bit_length()))
]


def _mul_add(hi, lo, mult, add_hi, add_lo, scratch):
    """(hi:lo) = (hi:lo) * mult + (add_hi:add_lo) mod 2**128 in place, ``mult`` from ``_JUMPS``.

    The high word of lo * mult's low word is built from 32-bit limbs, the low
    words wrap in uint64; ``scratch`` holds five uint64 arrays shaped like ``hi``.
    """
    m_hi, m_lo, m_lo0, m_lo1 = mult
    a0, a1, t, u, carry = scratch
    np.bitwise_and(lo, _M32, out=a0)
    np.right_shift(lo, _S32, out=a1)
    np.multiply(a0, m_lo0, out=t)
    np.right_shift(t, _S32, out=t)
    np.multiply(a1, m_lo0, out=u)
    np.add(u, t, out=t)
    np.bitwise_and(t, _M32, out=u)
    np.multiply(a0, m_lo1, out=a0)
    np.add(a0, u, out=u)
    np.multiply(a1, m_lo1, out=a1)
    np.right_shift(t, _S32, out=t)
    np.add(a1, t, out=a1)
    np.right_shift(u, _S32, out=u)
    np.add(a1, u, out=a1)
    np.multiply(hi, m_lo, out=hi)
    np.add(hi, a1, out=hi)
    np.multiply(lo, m_hi, out=a1)
    np.add(hi, a1, out=hi)
    np.multiply(lo, m_lo, out=lo)
    np.add(lo, add_lo, out=lo)
    np.less(lo, add_lo, out=carry)
    np.add(hi, add_hi, out=hi)
    np.add(hi, carry, out=hi)


class _Streams:
    """The uniform streams of trials k0 <= k < k0 + B: row b continues
    ``default_rng((*path, k0 + b)).random``.

    Runs numpy's PCG64 (128-bit LCG, XSL-RR output) on the hashed seed rows
    of the whole block at once, each 128-bit state and increment as two
    uint64 arrays, so that no ``Generator`` is built.
    """

    def __init__(self, path: tuple, k0: int, B: int):
        s0, s1, s2, s3 = _seed_rows(path, k0, B).T
        scratch = np.empty((5, B), dtype=np.uint64)
        # PCG64 seeding: inc = (s2:s3) << 1 | 1, state = (inc + (s0:s1)) * MULT + inc
        inc = s2 << 1 | s3 >> 63, s3 << 1 | 1
        self.lo = inc[1] + s1
        self.hi = inc[0] + s0 + (self.lo < s1)
        _mul_add(self.hi, self.lo, _JUMPS[0], *inc, scratch)
        # incs[j] = inc_d for d = 2**j, from inc_2d = inc_d * MULT**d + inc_d
        self.incs = [inc]
        for mult in _JUMPS[:-1]:
            hi, lo = (x.copy() for x in self.incs[-1])
            _mul_add(hi, lo, mult, *self.incs[-1], scratch)
            self.incs.append((hi, lo))

    def random(self, rows, T: int) -> np.ndarray:
        """The next T uniforms of each of ``rows`` (None: every row), as (rows, T).

        Row 0 of ``hi``/``lo`` holds the current states and row t the states
        t draws on; rows [m, m + k) are rows [m - d, m - d + k) jumped by
        d = min(m, _LANES) draws.
        """
        rows = slice(None) if rows is None else rows
        incs = [(c_hi[rows], c_lo[rows]) for c_hi, c_lo in self.incs[: min(T, _LANES).bit_length()]]
        n = self.hi[rows].size
        hi, lo = np.empty((2, T + 1, n), dtype=np.uint64)
        hi[0], lo[0] = self.hi[rows], self.lo[rows]
        scratch = np.empty((5, min(T, _LANES), n), dtype=np.uint64)
        m = 1
        while m <= T:
            d = min(m, _LANES)
            k = min(d, T + 1 - m)
            j = d.bit_length() - 1
            hi[m : m + k], lo[m : m + k] = hi[m - d : m - d + k], lo[m - d : m - d + k]
            _mul_add(hi[m : m + k], lo[m : m + k], _JUMPS[j], *incs[j], scratch[:, :k])
            m += k
        self.hi[rows], self.lo[rows] = hi[T], lo[T]
        # XSL-RR: rotate hi ^ lo right by the top 6 bits of hi; numpy's shift
        # by 64 gives 0, so a rotation by 0 needs no mask
        x, r = lo[1:], hi[1:]
        np.bitwise_xor(x, r, out=x)
        np.right_shift(r, np.uint64(58), out=r)
        y = np.right_shift(x, r)
        np.subtract(np.uint64(64), r, out=r)
        np.left_shift(x, r, out=x)
        np.bitwise_or(x, y, out=x)
        # Generator.random: the top 53 bits of each word, scaled to [0, 1)
        x >>= np.uint64(11)
        return np.multiply(x.T, 2.0**-53, out=np.empty((n, T)))


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


def _lockstep_block(model: ObservationModel, policy: Policy, thetas: np.ndarray, path: tuple, k0: int, lower=()):
    """Run trials k0, k0+1, ... (true hypotheses ``thetas``) in lockstep.

    ``policy`` plays every step.  ``lower`` holds the (threshold, horizon)
    stops of the points below ``policy``'s own, with thresholds and horizons
    non-decreasing and none above ``policy``'s: point p stops a trial at the
    first step where its posterior mode reaches its threshold, or at its
    horizon (None: none), flagged truncated.  So a trial retires at
    ``policy``'s own stop, the last.
    Returns per-trial (tau (P, B), terminal posterior (P, B, M), truncated
    (P, B)), one row per point of ``lower`` and then ``policy``'s own.
    """
    B, M, P = thetas.size, model.M, len(lower) + 1
    streams = _Streams(path, k0, B)
    lm = np.tile(np.log(model.prior), (B, 1))
    probs = np.tile(model.prior, (B, 1))
    tau = np.zeros((P, B), dtype=np.int64)
    final = np.empty((P, B, M))
    truncated = np.zeros((P, B), dtype=bool)
    live = np.arange(B)
    U = np.empty((B, 2 * CHUNK))  # row b holds trial b's uniforms for CHUNK steps
    horizon = policy.safety_horizon
    if lower:
        thresholds = np.array([threshold for threshold, _ in lower])
        horizons = np.array([math.inf if h is None else h for _, h in lower])
        passed = np.zeros(B, dtype=np.intp)  # lower points each live trial has stopped at
    t = 0
    while True:
        w, stop = policy.batch_weights(probs, t)
        if lower:
            # lower points [passed, due) stop now; those past ``reached`` by their horizon
            reached = np.searchsorted(thresholds, probs.max(axis=1), side="right")
            due = np.maximum(reached, np.searchsorted(horizons, t, side="right"))
            if (due > passed).any():
                for p in range(passed.min(), due.max()):
                    rows = (passed <= p) & (p < due)
                    tau[p, live[rows]] = t
                    final[p, live[rows]] = probs[rows]
                    truncated[p, live[rows]] = reached[rows] <= p
                passed = np.maximum(passed, due)
        if horizon is not None and t >= horizon:
            truncated[-1, live[~stop]] = True
            stop = np.ones(live.size, dtype=bool)
        if stop.any():
            done = live[stop]
            tau[-1, done] = t
            final[-1, done] = probs[stop]
            go = ~stop
            live, lm, probs, w = live[go], lm[go], probs[go], w[go]
            if live.size == 0:
                return tau, final, truncated
            if lower:
                passed = passed[go]
        j = t % CHUNK
        if j == 0:
            U[live] = streams.random(live, 2 * CHUNK)
        a = inverse_cdf_index(np.cumsum(w, axis=1), U[live, 2 * j])
        z = draw_symbol(model.kernel, thetas[live], a, U[live, 2 * j + 1])
        lm, probs = normalize(lm + model.log_likelihood(a, z).T)
        t += 1


def _fixed_rule_logmass_block(
    model: ObservationModel, weights: np.ndarray, n: int, thetas: np.ndarray, path: tuple, k0: int
):
    """Terminal log masses (M, B) for i.i.d.-rule, fixed-horizon trials."""
    B = thetas.size
    log_prior = np.log(model.prior)
    if n == 0:
        return np.tile(log_prior[:, None], (1, B))
    U = _Streams(path, k0, B).random(None, 2 * n)
    actions = inverse_cdf_index(np.cumsum(weights), U[:, 0::2])
    z = draw_symbol(model.kernel, thetas[:, None], actions, U[:, 1::2])
    # summed over the last axis of (M, B, n): numpy's pairwise summation
    # would round differently for n >= 8 along another axis
    return log_prior[:, None] + model.log_likelihood(actions, z).sum(axis=2)


def _run_block(model, policy, block_thetas, path, k0, want_records, lower=()):
    """One block's (sums, records) at each stop: one per (threshold, horizon,
    penalty) of ``lower`` (see ``_lockstep_block``), then ``policy``'s own."""
    if type(policy).batch_weights is FixedRulePolicy.batch_weights and policy.n is not None:
        lm = _fixed_rule_logmass_block(model, policy.weights, policy.n, block_thetas, path, k0)
        _, final = normalize(lm.T)
        tau = np.full(block_thetas.size, policy.n)
        truncated = np.zeros(block_thetas.size, dtype=bool)
        stops = [(tau, final, truncated, model.penalty)]
    else:
        taus, finals, truncs = _lockstep_block(model, policy, block_thetas, path, k0, [s[:2] for s in lower])
        stops = zip(taus, finals, truncs, [s[2] for s in lower] + [model.penalty])
    out = []
    for tau, final, truncated, L in stops:
        err = posterior_error(final)
        declared = posterior_mode(final, tau)
        wrong = declared != block_thetas
        sums = _block_sums(tau.astype(float), err, wrong, truncated, L)
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
        out.append((sums, records))
    return out


def _block_tasks(
    model: ObservationModel, policy: Policy, n_trials: int, path: tuple, want_records: bool = False, lower=()
):
    """``_run_block`` arguments for each block of ``BLOCK`` trials, in index order."""
    _check_trials(n_trials)
    thetas = stratified_hypotheses(model.prior, n_trials)
    return [
        (model, policy, thetas[k0 : k0 + BLOCK], path, k0, want_records, lower)
        for k0 in range(0, n_trials, BLOCK)
    ]


def _block_task(task):
    return _run_block(*task)


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


def _stop(policy):
    """The (threshold, safety horizon) at which a threshold-stopped ``policy`` stops."""
    return (policy.threshold if type(policy) is FixedRulePolicy else policy.stop_threshold), policy.safety_horizon


def _share_a_pass(a: Policy, b: Policy) -> bool:
    """Whether ``a`` and ``b`` are threshold rules of one class whose fields
    other than their stops are equal, so that one pass plays both."""
    if type(a) is not type(b):
        return False
    if type(a) is FixedRulePolicy:
        return a.threshold is not None and b.threshold is not None and np.array_equal(a.weights, b.weights)
    if type(a) is TwoPhasePolicy:
        return (
            np.array_equal(a.explore_weights, b.explore_weights)
            and np.array_equal(a.exploit_weights, b.exploit_weights)
            and a.phase_threshold == b.phase_threshold
        )
    return False


class _SharedMap:
    """A ``_pool`` for ``run_trials`` calls made in the order of one map's tasks.

    Each call takes the next results, one per block task it builds.
    """

    def __init__(self, results):
        self.results = results

    def map(self, fn, tasks):
        return [next(self.results) for _ in tasks]


def run_trials(
    model: ObservationModel,
    policy: Policy,
    n_trials: int,
    master_seed,
    *,
    record_trials: bool = False,
    workers: int = 1,
    _pool: Optional[_SharedMap] = None,
):
    """Simulate n_trials trials; returns (SimulationSummary, records or None).

    The summary is a deterministic fold over trial indices: the same
    (model, policy, n_trials, master_seed) always produces the identical
    summary, bit for bit, regardless of ``workers``.  ``_pool`` is
    ``sweep_L``'s ``_SharedMap`` of results already computed, used instead
    of the worker pool.
    """
    path = _seed_path(master_seed)
    tasks = _block_tasks(model, policy, n_trials, path, record_trials)
    total, records = np.zeros(9), [] if record_trials else None
    pool = _pool
    if pool is None and len(tasks) > 1:
        pool = _worker_pool(workers)
    for [(sums, recs)] in (map if pool is None else pool.map)(_block_task, tasks):
        total += sums
        if record_trials:
            records.extend(recs)
    return _summary(total, model.penalty, path), records


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
    Points whose policies differ only in their stop (threshold and safety
    horizon) form a group: a ``FixedRulePolicy`` threshold rule or a
    ``TwoPhasePolicy`` whose other fields are equal, as ``sa``'s are at every
    L and ``sn``'s under a uniform prior.  A group runs one lockstep pass on
    the seed path ``(*master_seed, g)``, g the index of its first point, and
    each of its points equals ``run_trials`` of that point's policy on that
    seed, bit for bit; any other point is a group of one.
    Returns (points, summaries) in the order of ``L_values``; cost is
    E[tau] + L * P(error) per point.
    """
    path = _seed_path(master_seed)
    runs = []
    for L in L_values:
        model_L = model.with_penalty(float(L))
        report_L = report_at_penalty(report, model_L) if report is not None else None
        policy = build_policy(policy_kind, model_L, report_L, rule=rule, n=fixed_n, threshold=threshold)
        runs.append((model_L, policy))
    groups = []
    for idx, (_, policy) in enumerate(runs):
        group = next((g for g in groups if _share_a_pass(runs[g[0]][1], policy)), None)
        if group is None:
            groups.append([idx])
        else:
            group.append(idx)
    # each group's pass runs its points sorted by L, so that the top point
    # plays every step and stops last; one map over every group's blocks
    orders = [sorted(group, key=lambda i: runs[i][0].penalty) for group in groups]
    tasks = []
    for group, order in zip(groups, orders):
        lower = [(*_stop(runs[i][1]), runs[i][0].penalty) for i in order[:-1]]
        tasks += _block_tasks(*runs[order[-1]], n_trials, (*path, group[0]), lower=lower)
    n_blocks = -(-n_trials // BLOCK)
    summaries = [None] * len(runs)
    pool = _worker_pool(workers) if len(tasks) > 1 else None
    results = (map if pool is None else pool.map)(_block_task, tasks)
    # each point's run_trials folds its own block sums, in index order;
    # the group's first fold draws the blocks, the others read them again
    for group, order in zip(groups, orders):
        columns = itertools.tee(itertools.islice(results, n_blocks), len(order))
        for pos, (idx, column) in enumerate(zip(order, columns)):
            shared = _SharedMap(block[pos : pos + 1] for block in column)
            summaries[idx] = run_trials(*runs[idx], n_trials, (*path, group[0]), _pool=shared)[0]
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
    if n < 0:
        raise ValueError("horizon must be nonnegative")
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


def _tune_penalty(
    model,
    policy_kind,
    report,
    target: float,
    probe_trials: int,
    path: tuple,
    workers: int,
):
    """Bisection on log L until the probe's mean stopping time hits target.

    The bisection accepts at half of ``TUNE_REL_TOL`` so that, with probe noise on
    top, the final full-size run lands within the stated tolerance, and gives
    up untuned once the bracket is narrower than ``MIN_LOG_L_BRACKET``.
    """

    probes = itertools.count(7000)

    def tau_at(logL: float) -> float:
        model_L = model.with_penalty(math.exp(logL))
        policy = build_policy(policy_kind, model_L, report_at_penalty(report, model_L))
        seed = (*path, next(probes))
        summary, _ = run_trials(model_L, policy, probe_trials, seed, workers=workers)
        return summary.mean_tau

    rate = report.exponents.sa if policy_kind == "sa" else report.exponents.sn
    lo = hi = max(0.05, rate * target)
    t_lo = t_hi = tau_at(lo)
    while t_lo > target and lo > 0.05:
        lo = max(0.05, lo * 0.5)
        t_lo = tau_at(lo)
    while t_hi < target and hi < 200.0:
        hi = min(200.0, hi * 1.6)
        t_hi = tau_at(hi)
    while True:
        mid = 0.5 * (lo + hi)
        t_mid = tau_at(mid)
        if abs(t_mid - target) <= 0.5 * TUNE_REL_TOL * target:
            return math.exp(mid), True
        if t_mid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < MIN_LOG_L_BRACKET:
            return math.exp(mid), False


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
    itself, a whole number; for sequential families the penalty is tuned by
    bisection until the mean stopping time matches the budget within
    ``TUNE_REL_TOL``.  Budgets must be a non-empty list of finite, positive numbers.  ``nn``, ``sn``
    and ``sa`` need ``report`` and take no ``rule``; ``fixed`` plays ``rule``.
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
    if policy_kind != "fixed":
        if rule is not None:
            raise ValueError(f"policy kind {policy_kind!r} takes no rule")
        if report is None:
            raise ValueError(f"policy kind {policy_kind!r} needs a bounds report")
    path = _seed_path(master_seed)
    probe_trials = max(4000, n_trials // 25)
    points = []
    for idx, budget in enumerate(budgets):
        if fixed_horizon:
            use_rule = rule if policy_kind == "fixed" else report.d_hat_rule
            policy = build_policy("fixed", model, rule=use_rule, n=int(budget))
            model_L = model
            penalty = None
            tuned = True
        else:
            L, tuned = _tune_penalty(model, policy_kind, report, float(budget), probe_trials, (*path, idx), workers)
            model_L = model.with_penalty(L)
            policy = build_policy(policy_kind, model_L, report_at_penalty(report, model_L))
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
