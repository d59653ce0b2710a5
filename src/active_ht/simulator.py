"""Monte Carlo harness for sensing policies.

Reproducibility rules:

* trial k draws from ``default_rng((*master_seed, k))`` so every trial is an
  independent stream that can be replayed on its own.  A block builds no
  generator: ``_seed_rows`` runs numpy's ``SeedSequence`` hash (entropy pool
  of 4 words, then ``generate_state(4, uint64)``) over all of its trial
  indices at once in uint32 arrays, and ``_Streams`` runs PCG64 over the
  hashed rows, all trials at once, returning the uniforms
  ``Generator.random`` would.  Its set-up is one stacked 128-bit product:
  every trial's seeded state and its five jump increments come from one
  multiply-add over a (6, B) stack, a constant multiplier per row.  A seed
  word enters the hash as its uint32 words, as numpy splits it, and a trial
  index as one word, so a run has at most 2**32 trials; a negative seed word
  raises numpy's own error, and any word that is not an integer a
  ``TypeError`` naming it;
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
(the engine continues the streams of its live trials in chunks of ``CHUNK``
steps, which yields the same stream at any chunk size).
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
    """A whole, positive number of trials; trial indices are one uint32 entropy word each, so at most 2**32."""
    _check_count(n_trials, "n_trials", positive=True)
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

    # the path's words are shared by every trial, so they hash as scalars
    entropy = [u32(word >> shift & mask) for word in path for shift in range(0, max(word.bit_length(), 1), 32)]
    entropy.append(np.arange(k0, k0 + B, dtype=u32))
    # an entropy shorter than the pool runs the hash out on zeros
    entropy += [u32(0)] * (pool_size - len(entropy))
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


def _words(m) -> tuple:
    """A 128-bit multiplier as ``_mul_add`` takes it: (high word, low word, low word's 32-bit limbs)."""
    return m >> 64, m & 2**64 - 1, m & 2**32 - 1, m >> 32 & 2**32 - 1


# A jump of d = 2**j draws maps the state to state * MULT**d + inc_d, with
# inc_d = inc * S_d, S_d = 1 + MULT + ... + MULT**(d - 1); _JUMPS[j] holds
# MULT**d as uint64 words.  _LANES caps d and so the rows one jump fills: T
# draws take about log2(_LANES) + T / _LANES jumps.
_LANES = 16
_JUMPS = [tuple(map(np.uint64, _words(pow(_PCG_MULT, 2**j, 2**128)))) for j in range(_LANES.bit_length())]

# _Streams' set-up multiplies a stack of rows by these, one multiplier a row:
# the seeded state by MULT, then inc by S_d for each jump d = 2**j of _JUMPS
_SETUP = [_PCG_MULT] + [sum(pow(_PCG_MULT, k, 2**128) for k in range(2**j)) % 2**128 for j in range(len(_JUMPS))]
_SETUP_WORDS = tuple(np.array(column, dtype=np.uint64)[:, None] for column in zip(*map(_words, _SETUP)))


def _mul_add(hi, lo, mult, add_hi, add_lo, scratch):
    """(hi:lo) = (hi:lo) * mult + (add_hi:add_lo) mod 2**128 in place, ``mult``'s
    words as ``_words`` gives them (uint64 scalars, or arrays that broadcast).

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
        # PCG64 seeding: inc = (s2:s3) << 1 | 1, state = (inc + (s0:s1)) * MULT + inc.
        # Row 0 of the stack becomes the state, row 1 + j the jump increment
        # inc_d = inc * S_d for d = 2**j, all in one product.
        hi, lo = np.empty((2, len(_SETUP), B), dtype=np.uint64)
        hi[1:], lo[1:] = s2 << 1 | s3 >> 63, s3 << 1 | 1
        lo[0] = lo[1] + s1
        hi[0] = hi[1] + s0 + (lo[0] < s1)
        add = np.zeros((2, *hi.shape), dtype=np.uint64)
        add[:, 0] = hi[1], lo[1]
        _mul_add(hi, lo, _SETUP_WORDS, *add, np.empty((5, *hi.shape), dtype=np.uint64))
        self.hi, self.lo = hi[0], lo[0]
        self.incs = list(zip(hi[1:], lo[1:]))

    def random(self, rows, T: int) -> np.ndarray:
        """The next T uniforms of each of ``rows`` (None: every row), as (T, rows).

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
        return x * 2.0**-53


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
    streams = _Streams(path, k0, B)
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
            U[:, live] = streams.random(live, 2 * CHUNK)
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
    U = _Streams(path, k0, B).random(None, 2 * int(n))  # a numpy integer has no bit_length
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
