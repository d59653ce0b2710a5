"""Observation models for active M-ary hypothesis testing.

A model fixes M hypotheses, K sensing actions, an observation kernel giving
the density of the observed symbol under each (hypothesis, action) pair, a
positive prior over hypotheses, and the penalty L > 1 charged for a wrong
final declaration.  Kernels are either finite (a pmf row per pair) or
Gaussian (a mean/variance per pair).

Each kernel computes its derived tables (hypothesis first) once, on first
use, and every copy of the model shares them: ``log_probs`` and ``cdf`` for
finite kernels, ``stds`` and ``log_norm`` for Gaussian ones, and for both the
divergence table ``kl_table``.  Every posterior in the package reads
``ObservationModel.log_likelihood`` or these tables, and every KL divergence
between kernel rows that ``validate`` and ``bounds`` use is read from
``kl_table``.  Every draw maps one uniform to an index through
``inverse_cdf_index``, or to a symbol through ``draw_symbol``.

``draw_symbol`` and ``log_likelihood`` gather entries by one flat ``take`` a
table, from reshaped views: ``cdf`` as (M * K, Z) rows, ``means`` and
``stds`` flat, at ``i * K + a``, and ``log_probs`` as (M, K * Z) at
``a * Z + z``.  A flat index does not reject an index past its axis, so
``log_likelihood`` checks its symbols; ``draw_symbol`` takes the
simulator's in-range indices unchecked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .divergences import Gaussian, ZERO_PROB, kl
from .exceptions import ModelValidationError

ROW_SUM_TOL = 1e-9


def log0(x) -> np.ndarray:
    """Elementwise natural log with log 0 = -inf, and no divide warning."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)), -np.inf)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def inverse_cdf_index(cdf: np.ndarray, u) -> np.ndarray:
    """Index drawn by uniform(s) ``u`` from cumulative masses ``cdf`` (last axis).

    On a non-decreasing ``cdf`` this is ``searchsorted(cdf, u, side="right")``
    clipped to the last index, so float dust in a total just below 1 cannot
    draw past the end: the count of the entries before the last that are
    ``<= u``.  ``cdf[..., k]`` broadcasts against ``u``.
    """
    u = np.asarray(u)
    if cdf.shape[-1] == 1:
        return np.zeros(np.broadcast_shapes(cdf.shape[:-1], u.shape), dtype=np.int64)
    index = (cdf[..., 0] <= u).astype(np.int64)
    for k in range(1, cdf.shape[-1] - 1):
        index += cdf[..., k] <= u
    return index


def _density(kernel, i: int, a: int):
    if isinstance(kernel, FiniteKernel):
        return kernel.probs[i, a]
    return Gaussian(float(kernel.means[i, a]), float(kernel.variances[i, a]))


def _kl_table(kernel, M: int, K: int) -> np.ndarray:
    D = np.zeros((M, M, K))
    for i, j, a in np.ndindex(M, M, K):
        if i != j:
            D[i, j, a] = kl(_density(kernel, i, a), _density(kernel, j, a))
    return _read_only(D)


def draw_symbol(kernel, i, a, u):
    """Symbol(s) drawn by uniform(s) ``u`` under hypothesis ``i`` and action ``a``.

    A finite kernel inverts its ``cdf`` row; a Gaussian kernel returns
    ``means[i, a] + stds[i, a] * ndtri(u)``, the inverse normal CDF with ``u``
    clipped off 0 and 1.  Either way one symbol costs one uniform.  ``i``,
    ``a`` and ``u`` broadcast together.

    ``scipy.special.ndtri`` is imported on the first Gaussian draw, not with
    the package: it costs ~0.3 s and ~20 MB, and a path that meets only
    finite kernels loads numpy alone.
    """
    if isinstance(kernel, FiniteKernel):
        M, K, Z = kernel.probs.shape
        return inverse_cdf_index(kernel.cdf.reshape(M * K, Z).take(np.multiply(i, K) + a, axis=0), u)
    from scipy.special import ndtri

    flat = np.multiply(i, kernel.means.shape[1]) + a
    return kernel.means.take(flat) + kernel.stds.take(flat) * ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


@dataclass(frozen=True)
class FiniteKernel:
    """Finite observation kernel: probs[i, a, z] = P(symbol z | hypothesis i, action a)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        # Values below the zero threshold are snapped to exact zeros up front
        # so downstream support checks are unambiguous.  Negative or non-finite
        # entries are left alone for the validators to reject.
        tiny = np.isfinite(arr) & (arr >= 0.0) & (arr <= ZERO_PROB)
        arr = np.where(tiny, 0.0, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @cached_property
    def log_probs(self) -> np.ndarray:
        """log probs[i, a, z], with log 0 = -inf."""
        return _read_only(log0(self.probs))

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative masses of each (hypothesis, action) row over symbols."""
        return _read_only(np.cumsum(self.probs, axis=2))

    @cached_property
    def kl_table(self) -> np.ndarray:
        """D[i, j, a] = D(q_i^a || q_j^a), +inf where q_j^a misses q_i^a's support."""
        return _kl_table(self, *self.probs.shape[:2])

    def violations(self, M: int, K: int) -> list[str]:
        out = []
        if self.probs.ndim != 3:
            return [f"finite kernel must be an M x K x Z array, got ndim={self.probs.ndim}"]
        if self.probs.shape[0] != M or self.probs.shape[1] != K:
            out.append(
                f"finite kernel shape {self.probs.shape[:2]} does not match (M, K)=({M}, {K})"
            )
            return out
        if self.probs.shape[2] < 1:
            out.append("finite kernel needs at least one symbol")
        if np.any(self.probs < 0.0) or not np.all(np.isfinite(self.probs)):
            out.append("finite kernel entries must be finite and nonnegative")
        else:
            sums = self.probs.sum(axis=2)
            bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
            for i, a in bad:
                out.append(
                    f"kernel row (hypothesis {i}, action {a}) sums to {float(sums[i, a])}, not 1"
                )
        return out


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian observation kernel: N(means[i, a], variances[i, a]) per pair."""

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        m.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @cached_property
    def stds(self) -> np.ndarray:
        return _read_only(np.sqrt(self.variances))

    @cached_property
    def log_norm(self) -> np.ndarray:
        """The log density's constant term, -log(2 pi variance) / 2."""
        return _read_only(-0.5 * np.log(2.0 * np.pi * self.variances))

    @cached_property
    def kl_table(self) -> np.ndarray:
        """D[i, j, a] = D(q_i^a || q_j^a) between the Gaussians of each pair."""
        return _kl_table(self, *self.means.shape)

    def violations(self, M: int, K: int) -> list[str]:
        out = []
        if self.means.shape != (M, K) or self.variances.shape != (M, K):
            out.append(
                f"gaussian kernel arrays must both have shape ({M}, {K}), got "
                f"{self.means.shape} and {self.variances.shape}"
            )
            return out
        if not np.all(np.isfinite(self.means)):
            out.append("gaussian means must be finite")
        if not np.all(np.isfinite(self.variances)) or np.any(self.variances <= 0.0):
            out.append("gaussian variances must be finite and positive")
        return out


Kernel = Union[FiniteKernel, GaussianKernel]


@dataclass(frozen=True)
class RandomizedRule:
    """A point on the action simplex: draw action a with probability weights[a]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("rule weights must be a nonempty 1-D vector")
        if np.any(w < -1e-12) or not np.all(np.isfinite(w)):
            raise ValueError("rule weights must be finite and nonnegative")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"rule weights must sum to 1, got {float(total)}")
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, K: int) -> "RandomizedRule":
        return cls(np.full(K, 1.0 / K))

    @classmethod
    def point_mass(cls, K: int, a: int) -> "RandomizedRule":
        w = np.zeros(K)
        w[a] = 1.0
        return cls(w)


def as_weights(rule, K: Optional[int] = None) -> np.ndarray:
    """The weights of ``rule``, checked to lie on the simplex (and to number K).

    A RandomizedRule's weights pass through unchanged; anything else is
    validated as one, so no entry point acts on garbage weights.
    """
    if isinstance(rule, RandomizedRule):
        w = rule.weights
    else:
        w = RandomizedRule(np.asarray(rule, dtype=float)).weights
    if K is not None and w.size != K:
        raise ValueError(f"action rule has {w.size} weights, model has {K} actions")
    return w


def _check_count(value, name: str, *, positive: bool = False) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a whole number,
    an ``int`` or numpy integer, that is >= 0 (>= 1 if ``positive``)."""
    if not (isinstance(value, (int, np.integer)) and value >= (1 if positive else 0)):
        raise ValueError(f"{name} must be a {'positive' if positive else 'nonnegative'} integer, got {value}")


def check_hypotheses(model, *indices) -> None:
    """Raise ValueError unless every index names one of the model's hypotheses."""
    for i in indices:
        if not 0 <= i < model.M:
            raise ValueError(f"hypothesis index {i} is outside [0, {model.M})")


@dataclass(frozen=True)
class ObservationModel:
    """An active hypothesis testing instance.

    penalty is the cost L > 1 of declaring the wrong hypothesis; the figure
    of merit for a policy is E[stopping time] + L * P(wrong declaration).
    """

    kernel: Kernel
    prior: np.ndarray
    penalty: float

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        prior.setflags(write=False)
        object.__setattr__(self, "prior", prior)
        violations = []
        if prior.ndim != 1 or prior.size < 2:
            violations.append("prior must be a 1-D vector over at least two hypotheses")
        else:
            if not np.all(np.isfinite(prior)) or np.any(prior <= 0.0):
                violations.append("all prior masses must be positive")
            elif abs(prior.sum() - 1.0) > ROW_SUM_TOL:
                violations.append(f"prior sums to {float(prior.sum())}, not 1")
            M = prior.size
            K = self._kernel_K()
            if K is not None and K < 1:
                violations.append("model needs at least one action")
            if K is not None:
                violations.extend(self.kernel.violations(M, K))
        penalty = self.penalty.item() if isinstance(self.penalty, np.generic) else self.penalty
        object.__setattr__(self, "penalty", penalty)  # np.int64(1000) is stored as 1000
        if type(penalty) not in (int, float) or not math.isfinite(penalty):
            violations.append("penalty must be a finite number")
        elif penalty <= 1.0:
            violations.append(f"penalty must exceed 1, got {penalty}")
        if violations:
            raise ModelValidationError(violations)

    def _kernel_K(self):
        if isinstance(self.kernel, FiniteKernel):
            if self.kernel.probs.ndim != 3:
                return None
            return self.kernel.probs.shape[1]
        if isinstance(self.kernel, GaussianKernel):
            if self.kernel.means.ndim != 2:
                return None
            return self.kernel.means.shape[1]
        raise ModelValidationError([f"unknown kernel type {type(self.kernel).__name__}"])

    @property
    def M(self) -> int:
        return self.prior.size

    @property
    def K(self) -> int:
        return self._kernel_K()

    @property
    def is_finite(self) -> bool:
        return isinstance(self.kernel, FiniteKernel)

    def density_of(self, i: int, a: int):
        """The observation density under hypothesis i and action a.

        Returns a read-only pmf vector for finite kernels, a Gaussian for
        Gaussian kernels.
        """
        return _density(self.kernel, i, a)

    def log_likelihood(self, a, z) -> np.ndarray:
        """log q_i(z | a) for every hypothesis i, with log 0 = -inf.

        ``a`` and ``z`` broadcast together and the result has shape
        ``(M, *broadcast(a, z))``.  Symbols of a finite kernel are indices
        in [0, Z); any other raises ``IndexError``.
        """
        k = self.kernel
        if self.is_finite:
            M, K, Z = k.probs.shape
            z = np.asarray(z)
            # a symbol past its axis would read the next action's entry
            if z.size and (z.min() < 0 or z.max() >= Z):
                raise IndexError(f"symbols must lie in [0, {Z}), got {z.min()} to {z.max()}")
            return k.log_probs.reshape(M, K * Z).take(np.multiply(a, Z) + z, axis=1)
        a = np.broadcast_arrays(a, z)[0]
        return k.log_norm.take(a, axis=1) - (z - k.means.take(a, axis=1)) ** 2 / (2.0 * k.variances.take(a, axis=1))

    def with_penalty(self, penalty: float) -> "ObservationModel":
        return replace(self, penalty=float(penalty))


def likelihood_ratio_bound(model: ObservationModel) -> float:
    """Worst-case single-step likelihood ratio over all pairs and actions.

    For finite kernels this is max over (i, j, a, z) of q_i(z|a)/q_j(z|a),
    skipping symbols where both densities vanish; any positive/zero ratio
    makes the bound +inf.  Gaussian kernels are unbounded unless, for every
    action, all hypotheses share the identical density.
    """
    if not model.is_finite:
        kern = model.kernel
        for a in range(model.K):
            if np.ptp(kern.means[:, a]) != 0.0 or np.ptp(kern.variances[:, a]) != 0.0:
                return math.inf
        return 1.0
    q = model.kernel.probs
    live = ~np.eye(model.M, dtype=bool)[:, :, None, None] & (q[:, None] > 0.0)  # [i, j, a, z]
    if np.any(live & (q[None, :] == 0.0)):
        return math.inf
    return float(np.divide(q[:, None], q[None, :], out=np.ones(live.shape), where=live).max())


@dataclass(frozen=True)
class ValidationReport:
    """Result of checking a model against the testability assumptions."""

    distinguishable: bool
    indistinguishable_pairs: tuple
    likelihood_ratio_bound: float
    bounded_ratios: bool
    usable_for_bounds: bool
    notes: tuple = field(default=())


def validate(model: ObservationModel) -> ValidationReport:
    """Check the testability assumptions of a (structurally valid) model.

    Every ordered pair of hypotheses must be distinguishable under at least
    one action (positive KL divergence); otherwise no policy can separate
    them and the asymptotic machinery breaks down.  A finite likelihood
    ratio bound is reported separately: Gaussian kernels never satisfy it,
    which is flagged but does not make the model unusable.
    """
    D = model.kernel.kl_table
    bad_pairs = [
        (i, j)
        for i in range(model.M)
        for j in range(model.M)
        if i != j and np.all(D[i, j] <= 0.0)
    ]
    xi = likelihood_ratio_bound(model)
    notes = []
    if math.isinf(xi):
        notes.append(
            "single-step likelihood ratios are unbounded; finite-sample "
            "guarantees that rely on a ratio bound do not apply"
        )
    distinguishable = not bad_pairs
    return ValidationReport(
        distinguishable=distinguishable,
        indistinguishable_pairs=tuple(bad_pairs),
        likelihood_ratio_bound=xi,
        bounded_ratios=math.isfinite(xi),
        usable_for_bounds=distinguishable,
        notes=tuple(notes),
    )


def _model_to_dict(model: ObservationModel) -> dict:
    if model.is_finite:
        kernel = {"type": "finite", "rows": model.kernel.probs.tolist()}
    else:
        pairs = np.stack([model.kernel.means, model.kernel.variances], axis=-1)
        kernel = {"type": "gaussian", "gaussian": pairs.tolist()}
    return {
        "M": model.M,
        "K": model.K,
        "kernel": kernel,
        "prior": model.prior.tolist(),
        "L": model.penalty,
    }


def _model_from_dict(doc: dict) -> ObservationModel:
    violations = [f"missing key {key!r}" for key in ("M", "K", "kernel", "prior", "L") if key not in doc]
    for key in ("M", "K"):
        value = doc.get(key, 0)
        if not (type(value) is int or type(value) is float and value.is_integer()):
            violations.append(f"{key} must be a whole number, got {value!r}")
    if violations:
        raise ModelValidationError(violations)
    kern_doc = doc["kernel"]
    if not isinstance(kern_doc, dict) or "type" not in kern_doc:
        raise ModelValidationError(["kernel must be a mapping with a 'type' key"])
    ktype = kern_doc["type"]
    try:
        if ktype == "finite":
            kernel = FiniteKernel(np.asarray(kern_doc["rows"], dtype=float))
        elif ktype == "gaussian":
            pairs = np.asarray(kern_doc["gaussian"], dtype=float)
            if pairs.ndim != 3 or pairs.shape[2] != 2:
                raise ModelValidationError(
                    ["kernel.gaussian must be an M x K array of [mean, variance] pairs"]
                )
            kernel = GaussianKernel(pairs[..., 0], pairs[..., 1])
        else:
            raise ModelValidationError([f"unknown kernel type {ktype!r}"])
    except (KeyError, ValueError) as exc:
        raise ModelValidationError([f"malformed kernel: {exc}"]) from exc
    try:
        model = ObservationModel(
            kernel=kernel,
            prior=np.asarray(doc["prior"], dtype=float),
            penalty=float(doc["L"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelValidationError([f"malformed model: {exc}"]) from exc
    declared = (int(doc["M"]), int(doc["K"]))
    if declared != (model.M, model.K):
        raise ModelValidationError(
            [f"declared (M, K)={declared} does not match kernel/prior shapes ({model.M}, {model.K})"]
        )
    return model


def save_model(model: ObservationModel, path) -> None:
    """Write a model to a JSON document (the format the CLI reads)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ObservationModel:
    """Read a model from a JSON document, validating structure on the way in."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ModelValidationError([f"model file is not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ModelValidationError(["model file must contain a JSON object"])
    return _model_from_dict(doc)
