"""Shared fixtures, model builders and reference helpers used across the test modules.

Three reference models appear throughout:

* ``two_probe_model`` — two hypotheses, two Bernoulli probe actions whose
  success rates swap between hypotheses (0.9/0.4).  Small enough that the
  exhaustive oracle is cheap, rich enough that every coefficient is
  nontrivial.
* ``gaussian_binary_model`` — two hypotheses, two unit/4-variance Gaussian
  probes with swapped means, exercising the unbounded-likelihood-ratio path.
* ``garbled_model`` — three hypotheses where the second action observes the
  first action's output through a fixed noisy channel, making the first
  action informationally dominant (the zero-adaptivity regime).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import active_ht
from active_ht.bounds import BoundsReport, compute_bounds
from active_ht.model import FiniteKernel, GaussianKernel, ObservationModel

TWO_PROBE_ROWS = (
    ((0.9, 0.1), (0.4, 0.6)),
    ((0.4, 0.6), (0.9, 0.1)),
)


def make_two_probe_model(penalty: float = 1000.0) -> ObservationModel:
    return ObservationModel(
        kernel=FiniteKernel(np.asarray(TWO_PROBE_ROWS, dtype=float)),
        prior=np.array([0.5, 0.5]),
        penalty=penalty,
    )


def make_gaussian_binary_model(penalty: float = 1000.0) -> ObservationModel:
    return ObservationModel(
        kernel=GaussianKernel(
            means=np.array([[0.0, 1.0], [1.0, 0.0]]),
            variances=np.array([[1.0, 4.0], [4.0, 1.0]]),
        ),
        prior=np.array([0.5, 0.5]),
        penalty=penalty,
    )


def make_garbled_model(penalty: float = 100.0) -> ObservationModel:
    """M = 3 model whose second action is a noisy post-processing of the
    first: rows for action 1 are ``q @ W`` with W row-stochastic, so action 0
    dominates action 1 in every pairwise divergence."""
    rng = np.random.default_rng(5)
    q = rng.dirichlet(np.ones(4), size=3)
    w = rng.dirichlet(np.ones(4), size=4)
    rows = np.stack([q, q @ w], axis=1)
    return ObservationModel(
        kernel=FiniteKernel(rows), prior=np.full(3, 1.0 / 3.0), penalty=penalty
    )


def make_blind_model() -> ObservationModel:
    """Action 0 is uninformative, so rule [1, 0] never reaches a posterior threshold."""
    rows = [[[0.5, 0.5], [0.9, 0.1]], [[0.5, 0.5], [0.1, 0.9]]]
    return ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.5], penalty=2.0)


def make_perfect_probe_model(penalty: float = 100.0) -> ObservationModel:
    """Action 0 reveals the hypothesis in one step (disjoint supports), so
    every reliability, the max-min one included, is infinite."""
    rows = [[[1.0, 0.0], [0.6, 0.4]], [[0.0, 1.0], [0.4, 0.6]]]
    return ObservationModel(kernel=FiniteKernel(rows), prior=[0.5, 0.5], penalty=penalty)


def run_python(*args, cwd=None, timeout=120) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args``, importing this source tree's package."""
    src_dir = str(Path(active_ht.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, cwd=cwd, env=env
    )


def random_finite_model(rng: np.random.Generator, n_hypotheses: int | None = None) -> ObservationModel:
    """A random small finite-alphabet model for property/corpus tests."""
    m = int(rng.integers(2, 5)) if n_hypotheses is None else int(n_hypotheses)
    k = int(rng.integers(1, 5))
    z = int(rng.integers(2, 6))
    conc = float(rng.uniform(0.3, 3.0))
    rows = rng.dirichlet(np.full(z, conc), size=(m, k))
    prior = rng.dirichlet(np.full(m, 2.0))
    penalty = float(rng.uniform(5.0, 1e4))
    return ObservationModel(kernel=FiniteKernel(rows), prior=prior, penalty=penalty)


def scalar_golden_max(g, bracket_tol=1e-9):
    """Reference: the scalar golden-section recurrence on [0, 1]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = g(c), g(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while (b - a) > bracket_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
            if fd > best_f:
                best_x, best_f = d, fd
    for x in (0.0, 1.0, 0.5 * (a + b)):
        fx = g(x)
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


@pytest.fixture(scope="session")
def two_probe_model() -> ObservationModel:
    return make_two_probe_model()


@pytest.fixture(scope="session")
def two_probe_report(two_probe_model) -> BoundsReport:
    return compute_bounds(two_probe_model)


@pytest.fixture(scope="session")
def gaussian_binary_model() -> ObservationModel:
    return make_gaussian_binary_model()


@pytest.fixture(scope="session")
def garbled_model() -> ObservationModel:
    return make_garbled_model()


@pytest.fixture(scope="session")
def perfect_probe_model() -> ObservationModel:
    return make_perfect_probe_model()
