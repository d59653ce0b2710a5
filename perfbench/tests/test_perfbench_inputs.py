"""The benchmark's own input builders: reference models and seeded corpora.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from active_ht.model import FiniteKernel  # noqa: E402
from perfbench import inputs  # noqa: E402


def _load_conftest():
    spec = importlib.util.spec_from_file_location("active_ht_tests_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _arrays(model):
    k = model.kernel
    kernel = (k.probs,) if isinstance(k, FiniteKernel) else (k.means, k.variances)
    return (*kernel, model.prior, np.array([model.penalty]))


@pytest.mark.parametrize(
    "name, conftest_builder",
    [
        ("two_probe", "make_two_probe_model"),
        ("garbled", "make_garbled_model"),
        ("gaussian_binary", "make_gaussian_binary_model"),
    ],
)
def test_reference_builders_equal_the_test_suite_models(name, conftest_builder):
    ours = inputs.REFERENCE[name]()
    theirs = getattr(_load_conftest(), conftest_builder)()
    assert type(ours.kernel) is type(theirs.kernel)
    for a, b in zip(_arrays(ours), _arrays(theirs), strict=True):
        np.testing.assert_array_equal(a, b)


def _corpus(seed):
    rng = np.random.default_rng(seed)
    return inputs.finite_corpus(rng, per_k=10) + inputs.gaussian_corpus(rng)


def test_corpus_repeats_for_a_seed_and_changes_with_it():
    a, b, c = _corpus(7), _corpus(7), _corpus(8)
    assert [name for name, _ in a] == [name for name, _ in b] == [name for name, _ in c]
    for (_, ma), (_, mb) in zip(a, b):
        for x, y in zip(_arrays(ma), _arrays(mb), strict=True):
            np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(_arrays(ma)[0], _arrays(mc)[0]) for (_, ma), (_, mc) in zip(a, c))


def test_finite_corpus_covers_the_acceptance_ranges():
    models = [m for _, m in inputs.finite_corpus(np.random.default_rng(1), per_k=10)]
    assert len(models) == 40
    shapes = {m.kernel.probs.shape for m in models}
    assert {s[0] for s in shapes} == {2, 3, 4}
    assert {s[1] for s in shapes} == {1, 2, 3, 4}
    assert {s[2] for s in shapes} == {2, 3, 4, 5}
