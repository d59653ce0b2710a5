"""Divergences between two observation densities.

Two density families are supported: finite distributions given as 1-D
probability vectors, and univariate Gaussians.  All divergences use natural
logarithms.  Probabilities below ``ZERO_PROB`` are treated as exact zeros,
with the usual conventions 0*log(0/q) = 0 and p*log(p/0) = +inf for p > 0.
These act on one pair of densities; ``bounds.d_hat`` and ``bounds.alpha_max``
evaluate the kernel's tables in batches, with the Gaussian closed form below,
and search alpha there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

# Below this, a probability is considered an exact zero.
ZERO_PROB = 1e-300


@dataclass(frozen=True)
class Gaussian:
    """A univariate Gaussian observation density."""

    mean: float
    var: float

    def __post_init__(self):
        if not (self.var > 0.0 and math.isfinite(self.var)):
            raise ValueError(f"variance must be positive and finite, got {self.var}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")

    def log_density(self, z: float) -> float:
        return -0.5 * math.log(2.0 * math.pi * self.var) - (z - self.mean) ** 2 / (2.0 * self.var)


def _as_pmf(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise ValueError("finite density must be a 1-D probability vector")
    return arr


def _check_same_domain(p, q):
    p_gauss = isinstance(p, Gaussian)
    q_gauss = isinstance(q, Gaussian)
    if p_gauss != q_gauss:
        raise DomainError("cannot compare a finite density with a Gaussian density")
    if not p_gauss:
        p, q = _as_pmf(p), _as_pmf(q)
        if p.shape != q.shape:
            raise DomainError(f"finite densities have different alphabets: {p.shape} vs {q.shape}")
        return p, q
    return p, q


def kl(p, q) -> float:
    """Kullback-Leibler divergence D(p || q) in nats.

    Returns +inf when p puts mass where q has none.  For Gaussians the
    closed form log(s_q/s_p) + (s_p^2 + (m_p - m_q)^2) / (2 s_q^2) - 1/2
    is used.
    """
    p, q = _check_same_domain(p, q)
    if isinstance(p, Gaussian):
        return (
            0.5 * math.log(q.var / p.var)
            + (p.var + (p.mean - q.mean) ** 2) / (2.0 * q.var)
            - 0.5
        )
    p = np.where(p > ZERO_PROB, p, 0.0)
    q = np.where(q > ZERO_PROB, q, 0.0)
    support = p > 0.0
    if np.any(support & (q == 0.0)):
        return math.inf
    ps = p[support]
    qs = q[support]
    return float(np.sum(ps * (np.log(ps) - np.log(qs))))


def renyi(p, q, alpha: float) -> float:
    """Renyi divergence D_alpha(p || q) of order alpha in [0, 1].

    D_alpha = ``tilted_exponent(p, q, alpha)`` / (1 - alpha), that is
    -(1/(1-alpha)) * log sum p^alpha q^(1-alpha); at alpha = 1 it is the KL
    divergence.  Only the order range [0, 1] needed by the
    discrimination exponent is supported.
    """
    if alpha == 1.0:
        return kl(p, q)
    return tilted_exponent(p, q, alpha) / (1.0 - alpha)


def _gaussian_tilted_exponent(dm, p_var, q_var, alpha):
    """(1 - alpha) * D_alpha(p || q) for Gaussians, elementwise, smooth on all of [0, 1].

    With mean gap dm = m_p - m_q and v* = alpha*v_q + (1-alpha)*v_p:
        (1-a) D_a = (1-a) log(s_q/s_p) - 0.5 log(v_q/v*) + a(1-a) dm^2 / (2 v*)
    The mixture variance v* is positive for every alpha in [0, 1].
    """
    vstar = alpha * q_var + (1.0 - alpha) * p_var
    return (
        (1.0 - alpha) * 0.5 * np.log(q_var / p_var)
        - 0.5 * np.log(q_var / vstar)
        + alpha * (1.0 - alpha) * dm * dm / (2.0 * vstar)
    )


def tilted_exponent(p, q, alpha: float) -> float:
    """(1 - alpha) * D_alpha(p || q), finite-sample discrimination exponent.

    Equals -log sum_z p^alpha q^(1-alpha) for finite densities; continuous in
    alpha on [0, 1] with value 0 at both endpoints for full-support pairs.
    Symmetric under (p, q, alpha) -> (q, p, 1 - alpha).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    p, q = _check_same_domain(p, q)
    if isinstance(p, Gaussian):
        return float(_gaussian_tilted_exponent(p.mean - q.mean, p.var, q.var, alpha))
    both = (p > ZERO_PROB) & (q > ZERO_PROB)
    # sum_z p^alpha q^(1-alpha) over the common support, 0 when there is none
    m = float(np.exp(alpha * np.log(p[both]) + (1.0 - alpha) * np.log(q[both])).sum())
    return -math.log(m) if m > 0.0 else math.inf

