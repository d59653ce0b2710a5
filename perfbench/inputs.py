"""Benchmark inputs, built here so that edits under ``tests/`` cannot change them.

The three reference models repeat the definitions in ``tests/conftest.py``
(``perfbench/tests`` checks that they still match).  The random corpora are
drawn from the workload seed and stratified: the seed decides the kernel
entries, priors and penalties, never how many models of each shape there are,
because compute_bounds latency depends mostly on M and K and a corpus whose
shape mix moved with the seed would move the timings with it.
"""

from __future__ import annotations

import numpy as np

from active_ht.model import FiniteKernel, GaussianKernel, ObservationModel

TWO_PROBE_ROWS = (
    ((0.9, 0.1), (0.4, 0.6)),
    ((0.4, 0.6), (0.9, 0.1)),
)


def two_probe(penalty: float = 1000.0) -> ObservationModel:
    """Two hypotheses, two Bernoulli probes whose rates swap (0.9/0.4)."""
    return ObservationModel(
        kernel=FiniteKernel(np.asarray(TWO_PROBE_ROWS, dtype=float)),
        prior=np.array([0.5, 0.5]),
        penalty=penalty,
    )


def gaussian_binary(penalty: float = 1000.0) -> ObservationModel:
    """Two hypotheses, two unit/4-variance Gaussian probes with swapped means."""
    return ObservationModel(
        kernel=GaussianKernel(
            means=np.array([[0.0, 1.0], [1.0, 0.0]]),
            variances=np.array([[1.0, 4.0], [4.0, 1.0]]),
        ),
        prior=np.array([0.5, 0.5]),
        penalty=penalty,
    )


def garbled(penalty: float = 100.0) -> ObservationModel:
    """M = 3 model whose second action garbles the first (zero adaptivity gain)."""
    rng = np.random.default_rng(5)
    q = rng.dirichlet(np.ones(4), size=3)
    w = rng.dirichlet(np.ones(4), size=4)
    rows = np.stack([q, q @ w], axis=1)
    return ObservationModel(
        kernel=FiniteKernel(rows), prior=np.full(3, 1.0 / 3.0), penalty=penalty
    )


REFERENCE = {"two_probe": two_probe, "garbled": garbled, "gaussian_binary": gaussian_binary}


def finite_corpus(rng: np.random.Generator, per_k: int, ks=(1, 2, 3, 4)) -> list[tuple[str, ObservationModel]]:
    """``per_k`` random finite models for each action count K.

    M cycles through 2, 3, 4 and |Z| through 2..5, the acceptance-test
    ranges; Dirichlet rows, concentration, prior and penalty are random.
    """
    out = []
    for k in ks:
        for idx in range(per_k):
            m = 2 + idx % 3
            z = 2 + (idx + k) % 4
            conc = float(rng.uniform(0.3, 3.0))
            rows = rng.dirichlet(np.full(z, conc), size=(m, k))
            prior = rng.dirichlet(np.full(m, 2.0))
            penalty = float(rng.uniform(5.0, 1e4))
            model = ObservationModel(kernel=FiniteKernel(rows), prior=prior, penalty=penalty)
            out.append((f"finite_M{m}K{k}Z{z}_{idx}", model))
    return out


GAUSSIAN_SHAPES = ((2, 2), (3, 2), (2, 3))


def gaussian_corpus(rng: np.random.Generator, shapes=GAUSSIAN_SHAPES) -> list[tuple[str, ObservationModel]]:
    """One random Gaussian model per (M, K) shape: means in [-1, 1], variances in [0.5, 4]."""
    out = []
    for idx, (m, k) in enumerate(shapes):
        kernel = GaussianKernel(
            means=rng.uniform(-1.0, 1.0, size=(m, k)),
            variances=rng.uniform(0.5, 4.0, size=(m, k)),
        )
        prior = rng.dirichlet(np.full(m, 2.0))
        penalty = float(rng.uniform(5.0, 1e4))
        out.append((f"gaussian_M{m}K{k}_{idx}", ObservationModel(kernel=kernel, prior=prior, penalty=penalty)))
    return out
