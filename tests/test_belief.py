"""Posterior dynamics: Bayes updates, log-odds bookkeeping, MAP declarations.

A Bayes step is the engines' own: ``normalize`` of the posterior's log
masses plus ``model.log_likelihood``, with symbols drawn by ``draw_symbol``
from uniforms.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from active_ht import FiniteKernel, ObservationModel, kl
from active_ht.belief import _first_max, normalize, posterior_error, posterior_mode
from active_ht.model import draw_symbol, log0


def _uninformative_model():
    return ObservationModel(
        kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
        prior=[0.5, 0.5],
        penalty=10.0,
    )


def _update(log_masses, model, a, z):
    """One Bayes step: the posterior's shifted log masses and its probabilities."""
    return normalize(log_masses + model.log_likelihood(a, z))


def _draws(model, rng, n, actions=None):
    """n (action, symbol) pairs under hypothesis 0, actions uniform unless given."""
    if actions is None:
        actions = rng.integers(0, model.K, size=n)
    return actions, draw_symbol(model.kernel, 0, actions, rng.random(n))


class TestBayesUpdate:
    def test_two_probe_single_step(self, two_probe_model):
        _, probs = _update(np.log([0.5, 0.5]), two_probe_model, 0, 0)
        assert_allclose(probs, [0.9 / 1.3, 0.4 / 1.3], rtol=1e-12)
        assert_allclose(probs, [0.692308, 0.307692], atol=5e-7)

    @pytest.mark.parametrize("M", [2, 7, 8, 9, 16, 40])
    def test_a_hypothesis_major_stack_keeps_its_layout_and_bits(self, M):
        # the simulator's engine keeps its stacks hypothesis-major; numpy
        # adds a contiguous row of 8 or more masses pairwise but a strided
        # one in sequence, and the seed pins hold only with the former
        lm = np.random.default_rng(M).normal(scale=5.0, size=(257, M))
        shifted, probs = normalize(np.asfortranarray(lm))
        assert shifted.flags.f_contiguous and probs.flags.f_contiguous
        want_shifted, want_probs = normalize(lm)
        assert_array_equal(shifted, want_shifted)
        assert_array_equal(probs, want_probs)

    def test_uninformative_kernel_leaves_belief_unchanged(self):
        m = _uninformative_model()
        prior = np.array([0.7, 0.3])
        for z in (0, 1):
            assert_allclose(_update(np.log(prior), m, 0, z)[1], prior, rtol=1e-15)

    def test_zero_mass_is_absorbing(self, two_probe_model):
        lm = log0([0.0, 1.0])
        for _ in range(5):
            lm, probs = _update(lm, two_probe_model, 0, 0)
        assert probs[0] == 0.0
        assert probs[1] == 1.0

    def test_normalization_over_long_horizon(self, two_probe_model):
        n = 100_000
        actions, symbols = _draws(two_probe_model, np.random.default_rng(2024), n)
        lm = np.log([0.5, 0.5])
        totals = np.empty(n)
        for t, step in enumerate(two_probe_model.log_likelihood(actions, symbols).T):
            lm, probs = normalize(lm + step)
            totals[t] = probs.sum()
        assert np.abs(totals - 1.0).max() <= 1e-12

    def test_gaussian_update(self, gaussian_binary_model):
        _, probs = _update(np.log([0.5, 0.5]), gaussian_binary_model, 0, 0.0)
        # Observing z = 0 under action 0 favors hypothesis 0 (mean 0, var 1).
        assert probs[0] > 0.5


class TestLogOdds:
    # The log odds of i against j are the difference of the posterior's log
    # masses, which normalize's shift leaves unchanged.
    def test_equal_masses_zero(self):
        lm, _ = normalize(np.log([0.5, 0.5]))
        assert lm[0] - lm[1] == 0.0

    def test_post_update_value(self, two_probe_model):
        lm, _ = _update(np.log([0.5, 0.5]), two_probe_model, 0, 0)
        assert_allclose(lm[0] - lm[1], math.log(2.25), rtol=1e-12)
        assert_allclose(lm[0] - lm[1], 0.810930, atol=5e-7)

    def test_pathwise_telescoping_identity(self, two_probe_model):
        # Log odds after n updates = initial log odds + sum of per-step
        # log-likelihood ratios, exactly (up to float roundoff).
        probs = two_probe_model.kernel.probs
        lm = np.log([0.5, 0.5])
        start = lm[0] - lm[1]
        increments = 0.0
        for a, z in zip(*_draws(two_probe_model, np.random.default_rng(555), 1000)):
            lm, _ = _update(lm, two_probe_model, a, z)
            increments += math.log(probs[0, a, z]) - math.log(probs[1, a, z])
        assert_allclose(lm[0] - lm[1] - start, increments, atol=1e-9)

    def test_expected_drift_matches_weighted_divergence(self, two_probe_model):
        # Under hypothesis 0 with actions ~ (0.3, 0.7), the mean one-step
        # change of the (0 vs 1) log odds is the weighted KL divergence.
        rng = np.random.default_rng(666)
        w = np.array([0.3, 0.7])
        probs = two_probe_model.kernel.probs
        n = 200_000
        loglik = two_probe_model.log_likelihood(*_draws(two_probe_model, rng, n, rng.choice(2, size=n, p=w)))
        steps = loglik[0] - loglik[1]
        want = sum(w[a] * kl(probs[0, a], probs[1, a]) for a in range(2))
        se = steps.std(ddof=1) / math.sqrt(n)
        assert abs(steps.mean() - want) < 3.0 * se


class TestNormalize:
    def test_log_mass_round_trip(self):
        lm = np.array([-1.0, -2.0, -3.0])
        shifted, probs = normalize(lm)
        assert_allclose(shifted, lm + 1.0, rtol=0.0, atol=0.0)
        assert_allclose(probs.sum(), 1.0, atol=1e-15)
        assert_allclose(probs, np.exp(lm) / np.exp(lm).sum(), rtol=1e-15)
        # the log of a posterior is its own log masses: one more pass is a no-op
        assert_allclose(normalize(np.log(probs))[1], probs, rtol=1e-15)
        stack = np.stack([lm, lm[::-1], [0.0, -math.inf, 5.0]])
        for got, row in zip(zip(*normalize(stack)), stack):
            for g, want in zip(got, normalize(row)):
                assert_allclose(g, want, rtol=0.0, atol=0.0)


class TestFirstMax:
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("hypothesis_major", [False, True])
    def test_equals_argmax_with_planted_ties(self, M, hypothesis_major):
        rng = np.random.default_rng(M)
        x = rng.random((600, M))
        x[:200] = rng.integers(0, 3, size=(200, M))  # small integers tie often
        x[200:260] = x[200:260, :1]  # whole rows tied
        x[260:300, -1] = x[260:300].max(axis=1)  # the last column ties the max
        x[300:320] = -np.inf
        if hypothesis_major:
            x = np.asfortranarray(x)  # a (B, M) view of an (M, B) array, as the engine keeps
        assert_array_equal(_first_max(x), x.argmax(axis=1))
        mask = x >= np.median(x, axis=1, keepdims=True)
        assert_array_equal(_first_max(mask), mask.argmax(axis=1))
        stack = x.reshape(3, 200, M)
        assert_array_equal(_first_max(stack), stack.argmax(axis=-1))
        assert _first_max(x[0]) == x[0].argmax()


class TestPosteriorMode:
    def test_argmax(self):
        assert posterior_mode(np.array([0.2, 0.5, 0.3])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert posterior_mode(np.array([0.5, 0.5])) == 0

    def test_degenerate(self):
        assert posterior_mode(np.array([1.0, 0.0, 0.0])) == 0

    def test_rounding_tie_breaks_to_lowest_index(self):
        assert posterior_mode(np.array([0.4999999999999999, 0.5000000000000001])) == 0

    def test_steps_scale_the_tie(self):
        # 5e-12 apart: distinct within one step's 1e-12, tied within ten steps'
        row = np.array([1.0, 1.0 + 5e-12])
        assert posterior_mode(row) == posterior_mode(row, 1) == 1
        assert posterior_mode(row, 10) == 0
        assert posterior_mode(np.stack([row, row]), np.array([1, 10])).tolist() == [1, 0]

    def test_stack_equals_its_rows(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(4), size=200)
        top = probs.max(axis=1)
        tied = rng.random(probs.shape) < 0.3
        probs[tied] = (top[:, None] * (1.0 - rng.choice([0.0, 1e-13, 2e-11], size=probs.shape)))[tied]
        steps = rng.integers(0, 50, size=200)
        want = [posterior_mode(row, s) for row, s in zip(probs, steps)]
        assert posterior_mode(probs, steps).tolist() == want


class TestPosteriorError:
    def test_mass_off_the_mode_per_row(self):
        probs = np.array([[0.2, 0.5, 0.3], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        assert_allclose(posterior_error(probs), [0.5, 0.5, 0.0], rtol=1e-15)
        assert posterior_error(probs[0]) == posterior_error(probs[:1])[0]

    def test_tiny_error_does_not_cancel(self):
        # 1 - max reads 0 here; the off-mode masses are summed directly
        row = np.array([1e-40, 1.0, 3e-41])
        assert 1.0 - row.max() == 0.0
        assert_allclose(posterior_error(row), 1.3e-40, rtol=1e-15)

    @pytest.mark.parametrize("hypothesis_major", [False, True])
    def test_two_masses_equal_the_sorted_sum_bit_for_bit(self, hypothesis_major):
        # at M = 2 the smaller mass is taken without a sort
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(2), size=500)
        probs[:50] = 0.5  # exact ties
        probs[50:60] = [[1.0, 0.0], [0.0, 1.0]] * 5
        probs[60:80] = rng.random((20, 1)) * 1e-300  # tied and subnormal
        probs[80:100] = probs[80:100] * np.exp(-rng.random((20, 1)) * 700)  # unnormalized
        if hypothesis_major:
            probs = np.asfortranarray(probs)
        for stack in (probs, probs.reshape(5, 100, 2), probs[0]):
            want = np.sort(stack, axis=-1)[..., :-1].sum(axis=-1)
            got = posterior_error(stack)
            assert got.shape == want.shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
