"""The posterior over hypotheses: its update, declaration and error.

The Bayes update adds an observation's log likelihoods
(``model.log_likelihood``) to a posterior's log masses and renormalizes by
log-sum-exp (``normalize``), so long observation sequences cannot
underflow.  ``normalize`` (the posterior step), ``posterior_mode`` (the
declaration) and ``posterior_error`` (the chance that declaration is wrong)
act on one row or a (B, M) stack.  They are the only copies: the
simulator's lockstep engine and fixed-horizon path call all three, and the
oracles call ``normalize`` and ``posterior_error``.
"""

from __future__ import annotations

import numpy as np


# Relative tolerance per step under which posterior masses tie.
TIE_TOL = 1e-12


def normalize(log_masses: np.ndarray):
    """The posterior of unnormalized log masses, over the last axis.

    Shifts each row of a row or a (B, M) stack by its max, exponentiates and
    normalizes.  Returns (shifted log masses, probabilities), laid out as
    ``log_masses`` is, so a hypothesis-major stack stays hypothesis-major.
    """
    shifted = log_masses - log_masses.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    # numpy adds a contiguous row of 8 or more masses pairwise but a strided
    # one in sequence, which rounds differently; below 8 the orders agree
    total = (p if p.shape[-1] < 8 else np.ascontiguousarray(p)).sum(axis=-1, keepdims=True)
    return shifted, p / total


def _first_max(x: np.ndarray) -> np.ndarray:
    """``x.argmax(axis=-1)`` of a NaN-free ``x``: each row's first maximum,
    the lowest index on exact ties, from M - 1 compares of whole columns.

    numpy's ``argmax`` loops per row, and first copies a strided row
    contiguous; the columns of a hypothesis-major (B, M) stack are
    contiguous, so this is about twice as fast there at M <= 4.
    """
    M = x.shape[-1]
    best, index = x[..., 0], np.zeros(x.shape[:-1], dtype=np.intp)
    for k in range(1, M):
        ahead = x[..., k] > best
        index = ahead.astype(np.intp) if k == 1 else np.where(ahead, k, index)
        if k + 1 < M:
            best = np.maximum(best, x[..., k])
    return index


def posterior_mode(probs: np.ndarray, steps=0):
    """The posterior mode of each row, the lowest index among tied masses.

    Masses that are equal in exact arithmetic differ by rounding that grows
    with the step count (the simulator's two paths sum a trial's log masses
    in different orders).  As ``exact_pairwise`` snaps structural ties,
    masses within a relative ``TIE_TOL`` per step of the row's largest count
    as tied; ``steps`` is the step count of each row (at least 1 is used).
    """
    cut = probs.max(axis=-1) * np.exp(-TIE_TOL * np.maximum(steps, 1))
    return _first_max(probs >= cut[..., None])


def posterior_error(probs: np.ndarray):
    """The mass off the mode of each row, over the last axis.

    Summed directly from the smaller masses: ``1 - max`` cancels, and reads
    0 once the error is below the rounding of the largest mass.  Two or three
    masses need no sort: the sum is the smaller one alone, or the smallest
    plus the middle one, the same single addition as the sorted sum's.
    """
    M = probs.shape[-1]
    if M == 2:
        return probs.min(axis=-1)
    if M == 3:
        a, b, c = probs[..., 0], probs[..., 1], probs[..., 2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return np.minimum(lo, c) + np.maximum(lo, np.minimum(hi, c))
    return np.sort(probs, axis=-1)[..., :-1].sum(axis=-1)
