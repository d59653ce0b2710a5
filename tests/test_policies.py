"""Policy constructions: fixed-rule, fixed-horizon, threshold-stopped,
and the explore/exploit two-phase family."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from active_ht import (
    AssumptionError,
    FiniteKernel,
    FixedRulePolicy,
    ObservationModel,
    Policy,
    TwoPhasePolicy,
    build_policy,
    compute_bounds,
    fixed_lambda_policy,
    nn_policy,
    run_trials,
    sa_policy,
    sn_policy,
)
from conftest import make_two_probe_model


class TestFixedRulePolicy:
    def test_requires_exactly_one_stop_mode(self):
        with pytest.raises(ValueError):
            FixedRulePolicy(weights=[1.0], n=3, threshold=0.9)
        with pytest.raises(ValueError):
            FixedRulePolicy(weights=[1.0])

    def test_zero_horizon_allowed_negative_rejected(self):
        p = fixed_lambda_policy([1.0], n=0)
        assert p.action_weights(np.array([0.5, 0.5]), 0) is None
        with pytest.raises(ValueError):
            fixed_lambda_policy([1.0], n=-1)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            FixedRulePolicy(weights=[1.0], threshold=1.0)
        with pytest.raises(ValueError):
            FixedRulePolicy(weights=[1.0], threshold=0.0)

    def test_fixed_horizon_stops_exactly(self):
        p = fixed_lambda_policy([0.5, 0.5], n=4)
        probs = np.array([0.99, 0.01])
        for step in range(4):
            assert p.action_weights(probs, step) is not None
        assert p.action_weights(probs, 4) is None

    def test_threshold_stop(self):
        p = fixed_lambda_policy([1.0], threshold=0.9)
        assert p.action_weights(np.array([0.89, 0.11]), 7) is not None
        assert p.action_weights(np.array([0.91, 0.09]), 7) is None

    def test_point_mass_draws_single_action(self):
        p = fixed_lambda_policy([0.0, 1.0, 0.0], n=100)
        rng = np.random.default_rng(1)
        probs = np.full(3, 1.0 / 3.0)
        draws = {p.step(probs, t, rng) for t in range(100)}
        assert draws == {1}

    def test_draw_frequencies_match_weights(self):
        p = fixed_lambda_policy([0.3, 0.7], n=10**9)
        rng = np.random.default_rng(2)
        probs = np.array([0.5, 0.5])
        n = 100_000
        draws = np.array([p.step(probs, t, rng) for t in range(n)])
        freq = (draws == 0).mean()
        assert abs(freq - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / n)

    def test_declare_is_posterior_mode(self):
        p = fixed_lambda_policy([1.0], n=1)
        assert p.declare(np.array([0.2, 0.5, 0.3])) == 1
        assert p.declare(np.array([0.5, 0.5])) == 0


class TestFixedHorizonSizing:
    def test_formula_arithmetic(self, two_probe_report):
        # Uniform binary prior, penalty e^10, unit-free rate 0.5:
        # ceil((10 + log 1 - 0) / 0.5) = 20 steps.
        rep = dataclasses.replace(two_probe_report, d_hat=0.5)
        m = make_two_probe_model(penalty=math.exp(10.0))
        assert nn_policy(m, rep).n == 20

    def test_stops_on_every_path(self, two_probe_model, two_probe_report):
        pol = nn_policy(two_probe_model, two_probe_report)
        summary, records = run_trials(two_probe_model, pol, 200, 90, record_trials=True)
        assert all(r.tau == pol.n for r in records)
        assert summary.n_truncated == 0

    def test_rate_must_be_positive(self, two_probe_model, two_probe_report):
        rep = dataclasses.replace(two_probe_report, d_hat=0.0)
        with pytest.raises(AssumptionError):
            nn_policy(two_probe_model, rep)


class TestThresholdPolicies:
    def test_sn_fields(self, two_probe_model, two_probe_report):
        p = sn_policy(two_probe_model, two_probe_report)
        assert_allclose(p.threshold, 1.0 - 1.0 / two_probe_model.penalty, rtol=1e-15)
        assert_allclose(p.weights, [0.5, 0.5], atol=1e-9)
        want = math.ceil(1000.0 * math.log(1000.0) / two_probe_report.maxmin_r)
        assert p.safety_horizon == want

    def test_pathwise_error_cap(self, two_probe_model, two_probe_report):
        p = sn_policy(two_probe_model, two_probe_report)
        _, records = run_trials(two_probe_model, p, 2000, 91, record_trials=True)
        cap = 1.0 / two_probe_model.penalty
        assert all(r.posterior_error <= cap for r in records if not r.truncated)
        assert not any(r.truncated for r in records)

    def test_sa_structure(self, two_probe_model, two_probe_report):
        p = sa_policy(two_probe_model, two_probe_report)
        assert isinstance(p, TwoPhasePolicy)
        assert_allclose(p.explore_weights, [0.5, 0.5], atol=1e-9)
        assert_allclose(p.exploit_weights[0], [0.0, 1.0], atol=1e-9)
        assert_allclose(p.exploit_weights[1], [1.0, 0.0], atol=1e-9)
        assert_allclose(p.stop_threshold, 0.999, rtol=1e-15)

    def test_two_phase_switching(self):
        p = TwoPhasePolicy(
            explore_weights=[0.5, 0.5],
            exploit_weights=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
            phase_threshold=0.5,
            stop_threshold=0.99,
        )
        third = np.full(3, 1.0 / 3.0)
        assert_allclose(p.action_weights(third, 0), [0.5, 0.5])
        assert_allclose(p.action_weights(np.array([0.6, 0.2, 0.2]), 3), [0.0, 1.0])
        assert_allclose(p.action_weights(np.array([0.2, 0.6, 0.2]), 3), [1.0, 0.0])
        assert p.action_weights(np.array([0.995, 0.004, 0.001]), 3) is None

    def test_exploit_draw_frequencies(self):
        p = TwoPhasePolicy(
            explore_weights=[1.0, 0.0],
            exploit_weights=[[0.25, 0.75], [1.0, 0.0]],
            phase_threshold=0.5,
            stop_threshold=0.999,
        )
        rng = np.random.default_rng(3)
        probs = np.array([0.9, 0.1])
        n = 50_000
        draws = np.array([p.step(probs, t, rng) for t in range(n)])
        assert abs((draws == 1).mean() - 0.75) < 3.0 * math.sqrt(0.25 * 0.75 / n)

    def test_almost_surely_finite_stopping(self, two_probe_model, two_probe_report):
        for kind in ("sn", "sa"):
            pol = build_policy(kind, two_probe_model, two_probe_report)
            summary, _ = run_trials(two_probe_model, pol, 5000, 92)
            assert summary.n_truncated == 0


_PHASE, _STOP = 0.5, 0.9


@st.composite
def _posterior_stacks(draw):
    """(B, M) posteriors mixing random rows with rows exactly at the phase or
    stop threshold and rows whose mode is tied."""
    M = draw(st.integers(2, 4))
    B = draw(st.integers(1, 12))
    rows = []
    for _ in range(B):
        kind = draw(st.sampled_from(["random", "phase", "stop", "tie"]))
        if kind == "random":
            raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M))) + 1e-3
            rows.append(raw / raw.sum())
        elif kind == "tie":
            top = draw(st.sampled_from([1.0 / M, 0.5]))
            rows.append(np.array([top, top, *np.full(M - 2, (1.0 - 2 * top) / max(M - 2, 1))]))
        else:
            top = _PHASE if kind == "phase" else _STOP
            rest = np.full(M - 1, (1.0 - top) / (M - 1))
            at = draw(st.integers(0, M - 1))
            rows.append(np.insert(rest, at, top))
    return np.vstack(rows)


def _policies_for(M, rng):
    K = 3
    w = rng.dirichlet(np.ones(K))
    return [
        FixedRulePolicy(weights=w, n=4),
        FixedRulePolicy(weights=w, threshold=_STOP),
        FixedRulePolicy(weights=w, threshold=_PHASE),
        TwoPhasePolicy(
            explore_weights=w,
            exploit_weights=rng.dirichlet(np.ones(K), size=M),
            phase_threshold=_PHASE,
            stop_threshold=_STOP,
        ),
    ]


class TestBatchWeights:
    @given(_posterior_stacks(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_action_weights(self, probs, step, seed):
        # Every row of the vectorized answer equals the scalar one, stop is
        # set exactly where action_weights returns None, and the base-class
        # loop gives the same answer.
        for pol in _policies_for(probs.shape[1], np.random.default_rng(seed)):
            for weights, stop in (pol.batch_weights(probs, step), Policy.batch_weights(pol, probs, step)):
                assert stop.shape == (probs.shape[0],)
                for b, row in enumerate(probs):
                    ref = pol.action_weights(row, step)
                    assert bool(stop[b]) == (ref is None)
                    if ref is not None:
                        assert np.array_equal(weights[b], ref)


class TestBuildPolicy:
    def test_kinds(self, two_probe_model, two_probe_report):
        assert isinstance(build_policy("nn", two_probe_model, two_probe_report), FixedRulePolicy)
        assert isinstance(build_policy("sn", two_probe_model, two_probe_report), FixedRulePolicy)
        assert isinstance(build_policy("sa", two_probe_model, two_probe_report), TwoPhasePolicy)
        fx = build_policy("fixed", two_probe_model, rule=[0.5, 0.5], n=3)
        assert isinstance(fx, FixedRulePolicy) and fx.n == 3

    def test_unknown_kind_rejected(self, two_probe_model, two_probe_report):
        with pytest.raises(ValueError):
            build_policy("optimal", two_probe_model, two_probe_report)

    def test_fixed_requires_rule(self, two_probe_model):
        with pytest.raises(ValueError):
            build_policy("fixed", two_probe_model, n=3)

    def test_fixed_rejects_off_simplex_rule(self, two_probe_model):
        with pytest.raises(ValueError, match="sum to 1"):
            build_policy("fixed", two_probe_model, rule=[0.2, 0.2], n=3)
        with pytest.raises(ValueError, match="nonnegative"):
            fixed_lambda_policy([1.5, -0.5], n=3)

    def test_fixed_rejects_wrong_length_rule(self, two_probe_model):
        with pytest.raises(ValueError, match="actions"):
            build_policy("fixed", two_probe_model, rule=[1.0], n=3)
        with pytest.raises(ValueError, match="actions"):
            build_policy("fixed", two_probe_model, rule=[0.5, 0.25, 0.25], n=3)

    def test_descriptors_serializable(self, two_probe_model, two_probe_report):
        import json

        for kind in ("nn", "sn", "sa"):
            pol = build_policy(kind, two_probe_model, two_probe_report)
            doc = pol.descriptor()
            assert json.dumps(doc)
            assert "kind" in doc


class TestSingleActionModel:
    def test_all_families_play_the_only_action(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.9, 0.1]], [[0.2, 0.8]]]),
            prior=[0.5, 0.5],
            penalty=50.0,
        )
        rep = compute_bounds(m)
        rng = np.random.default_rng(4)
        probs = np.array([0.5, 0.5])
        pols = [
            nn_policy(m, rep),
            sn_policy(m, rep),
            sa_policy(m, rep),
            fixed_lambda_policy([1.0], n=5),
        ]
        for pol in pols:
            assert pol.step(probs, 0, rng) == 0
