"""Posterior dynamics: Bayes updates, log-odds bookkeeping, MAP declarations."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from active_ht import (
    Belief,
    FiniteKernel,
    ImpossibleObservationError,
    ObservationModel,
    UndefinedOddsError,
    bayes_update,
    kl,
    log_odds,
    map_hypothesis,
    sample,
)
from active_ht.belief import posterior_error


def _uninformative_model():
    return ObservationModel(
        kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
        prior=[0.5, 0.5],
        penalty=10.0,
    )


class TestBayesUpdate:
    def test_two_probe_single_step(self, two_probe_model):
        b = Belief.from_probs([0.5, 0.5])
        b2 = bayes_update(b, two_probe_model, 0, 0)
        assert_allclose(b2.probs, [0.9 / 1.3, 0.4 / 1.3], rtol=1e-12)
        assert_allclose(b2.probs, [0.692308, 0.307692], atol=5e-7)

    def test_uninformative_kernel_leaves_belief_unchanged(self):
        m = _uninformative_model()
        b = Belief.from_probs([0.7, 0.3])
        for z in (0, 1):
            assert_allclose(bayes_update(b, m, 0, z).probs, b.probs, rtol=1e-15)

    def test_zero_mass_is_absorbing(self, two_probe_model):
        b = Belief.from_probs([0.0, 1.0])
        for _ in range(5):
            b = bayes_update(b, two_probe_model, 0, 0)
        assert b.probs[0] == 0.0
        assert b.probs[1] == 1.0

    def test_impossible_observation_raises(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[1.0, 0.0]], [[1.0, 0.0]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        b = Belief.from_probs([0.5, 0.5])
        with pytest.raises(ImpossibleObservationError):
            bayes_update(b, m, 0, 1)
        with pytest.raises(ImpossibleObservationError, match="^observation 1 under action 0 "):
            bayes_update(b, m, 0, np.int64(1))

    def test_normalization_over_long_horizon(self, two_probe_model):
        rng = np.random.default_rng(2024)
        b = Belief.from_probs([0.5, 0.5])
        worst = 0.0
        for _ in range(100_000):
            a = int(rng.integers(0, 2))
            z = sample(two_probe_model, 0, a, rng)
            b = bayes_update(b, two_probe_model, a, z)
            worst = max(worst, abs(float(b.probs.sum()) - 1.0))
        assert worst <= 1e-12

    def test_gaussian_update(self, gaussian_binary_model):
        b = Belief.from_probs([0.5, 0.5])
        b2 = bayes_update(b, gaussian_binary_model, 0, 0.0)
        # Observing z = 0 under action 0 favors hypothesis 0 (mean 0, var 1).
        assert b2.probs[0] > 0.5


class TestLogOdds:
    def test_equal_masses_zero(self):
        b = Belief.from_probs([0.5, 0.5])
        assert log_odds(b, 0, 1) == 0.0

    def test_post_update_value(self, two_probe_model):
        b = bayes_update(Belief.from_probs([0.5, 0.5]), two_probe_model, 0, 0)
        assert_allclose(log_odds(b, 0, 1), math.log(2.25), rtol=1e-12)
        assert_allclose(log_odds(b, 0, 1), 0.810930, atol=5e-7)

    def test_one_sided_zero_is_infinite(self):
        b = Belief.from_probs([1.0, 0.0])
        assert log_odds(b, 0, 1) == math.inf
        assert log_odds(b, 1, 0) == -math.inf

    def test_both_zero_rejected(self):
        b = Belief.from_probs([0.0, 0.5, 0.5])
        with pytest.raises(UndefinedOddsError):
            log_odds(Belief.from_log_masses([-math.inf, -math.inf, 0.0]), 0, 1)
        assert log_odds(b, 1, 2) == 0.0

    def test_pathwise_telescoping_identity(self, two_probe_model):
        # Log odds after n updates = initial log odds + sum of per-step
        # log-likelihood ratios, exactly (up to float roundoff).
        rng = np.random.default_rng(555)
        probs = two_probe_model.kernel.probs
        b = Belief.from_probs([0.5, 0.5])
        start = log_odds(b, 0, 1)
        increments = 0.0
        for _ in range(1000):
            a = int(rng.integers(0, 2))
            z = sample(two_probe_model, 0, a, rng)
            b = bayes_update(b, two_probe_model, a, z)
            increments += math.log(probs[0, a, z]) - math.log(probs[1, a, z])
        assert_allclose(log_odds(b, 0, 1) - start, increments, atol=1e-9)

    def test_expected_drift_matches_weighted_divergence(self, two_probe_model):
        # Under hypothesis 0 with actions ~ (0.3, 0.7), the mean one-step
        # change of the (0 vs 1) log odds is the weighted KL divergence.
        rng = np.random.default_rng(666)
        w = np.array([0.3, 0.7])
        probs = two_probe_model.kernel.probs
        n = 200_000
        actions = rng.choice(2, size=n, p=w)
        steps = np.empty(n)
        for a in (0, 1):
            mask = actions == a
            z = sample(two_probe_model, 0, a, rng, size=int(mask.sum()))
            steps[mask] = np.log(probs[0, a, z]) - np.log(probs[1, a, z])
        want = sum(w[a] * kl(probs[0, a], probs[1, a]) for a in range(2))
        se = steps.std(ddof=1) / math.sqrt(n)
        assert abs(steps.mean() - want) < 3.0 * se


class TestMapHypothesis:
    def test_argmax(self):
        assert map_hypothesis(Belief.from_probs([0.2, 0.5, 0.3])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert map_hypothesis(Belief.from_probs([0.5, 0.5])) == 0

    def test_degenerate(self):
        assert map_hypothesis(Belief.from_probs([1.0, 0.0, 0.0])) == 0


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


class TestBeliefConstruction:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Belief.from_probs([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Belief.from_probs([1.5, -0.5])

    @pytest.mark.parametrize("bad", [[math.nan, 0.0], [math.inf, 0.0], [math.inf, -math.inf]])
    def test_rejects_nan_and_positive_infinite_log_masses(self, bad):
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            Belief.from_log_masses(bad)

    def test_no_remaining_mass(self):
        with pytest.raises(ImpossibleObservationError):
            Belief.from_log_masses([-math.inf, -math.inf])

    def test_sum_message_shows_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^belief must sum to 1, got 1\.1$"):
            Belief.from_probs([0.5, 0.6])

    def test_log_mass_round_trip(self):
        b = Belief.from_log_masses([-1.0, -2.0, -3.0])
        assert_allclose(b.probs.sum(), 1.0, atol=1e-15)
        assert_allclose(
            b.probs, np.exp([-1.0, -2.0, -3.0]) / np.exp([-1.0, -2.0, -3.0]).sum()
        )
