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
    exact_eval,
    fixed_lambda_policy,
    nn_policy,
    report_at_penalty,
    run_trials,
    sa_policy,
    sn_policy,
)
from active_ht.model import inverse_cdf_index
from active_ht.policies import PHASE_THRESHOLD, _stop_stack, _truncated, stops
from conftest import make_two_probe_model


def _stack_at(pairs, probs, step):
    """For the stack of (threshold, horizon) stops ``pairs`` and the posterior
    stack ``probs`` at ``step``: how many stops each row has met, and whether
    each stop (P, B) was met with a truncation, as lists."""
    stack, top = _stop_stack(pairs), np.asarray(probs).max(axis=1)
    met = stops(stack, top, step)
    cut = _truncated(stack, np.tile(top, (len(pairs), 1))) & (np.arange(len(pairs))[:, None] < met)
    return met.tolist(), cut.tolist()


def _stops_at(policy, probs, step):
    """Whether the stack of ``policy``'s one stop stops, and truncates, each row of
    the posterior stack ``probs`` at ``step``, as lists."""
    met, (cut,) = _stack_at([(policy.threshold, policy.horizon)], probs, step)
    return [m == 1 for m in met], cut


def _draws(policy, probs, step, rng, n):
    """n action draws for one posterior, through the simulator's inverse CDF."""
    stack = np.tile(probs, (n, 1))
    assert not any(_stops_at(policy, stack, step)[0])
    return inverse_cdf_index(np.cumsum(policy.batch_weights(stack, step), axis=1), rng.random(n))


class TestFixedRulePolicy:
    def test_requires_exactly_one_stop_mode(self):
        # fixed_lambda_policy takes a fixed horizon or a threshold, never both
        with pytest.raises(ValueError, match="exactly one of n"):
            fixed_lambda_policy([1.0], n=3, threshold=0.9)
        with pytest.raises(ValueError, match="exactly one of n"):
            fixed_lambda_policy([1.0])

    def test_zero_horizon_allowed_negative_rejected(self):
        p = fixed_lambda_policy([1.0], n=0)
        assert _stops_at(p, [[0.5, 0.5]], 0) == ([True], [False])
        with pytest.raises(ValueError):
            fixed_lambda_policy([1.0], n=-1)

    def test_fixed_horizon_takes_no_safety_horizon(self):
        # n and a safety horizon would both be the policy's one horizon
        with pytest.raises(ValueError, match="safety horizon"):
            fixed_lambda_policy([0.5, 0.5], n=10, safety_horizon=5)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            FixedRulePolicy(weights=[1.0], threshold=1.0)
        with pytest.raises(ValueError):
            FixedRulePolicy(weights=[1.0], threshold=0.0)

    def test_fixed_horizon_stops_exactly(self):
        p = fixed_lambda_policy([0.5, 0.5], n=4)
        probs = np.array([[0.99, 0.01]])
        assert [_stops_at(p, probs, step)[0] for step in range(6)] == [[False]] * 4 + [[True]] * 2

    def test_threshold_stop(self):
        p = fixed_lambda_policy([1.0], threshold=0.9)
        probs = np.array([[0.89, 0.11], [0.91, 0.09]])
        assert _stops_at(p, probs, 7) == ([False, True], [False, False])
        assert p.batch_weights(probs, 7).tolist() == [[1.0], [1.0]]

    def test_point_mass_draws_single_action(self):
        p = fixed_lambda_policy([0.0, 1.0, 0.0], n=100)
        rng = np.random.default_rng(1)
        probs = np.full(3, 1.0 / 3.0)
        assert set(_draws(p, probs, 0, rng, 100).tolist()) == {1}

    def test_draw_frequencies_match_weights(self):
        p = fixed_lambda_policy([0.3, 0.7], n=10**9)
        rng = np.random.default_rng(2)
        probs = np.array([0.5, 0.5])
        n = 100_000
        freq = (_draws(p, probs, 0, rng, n) == 0).mean()
        assert abs(freq - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / n)

    def test_declare_is_posterior_mode(self):
        # A policy only plays and stops; both evaluators declare the mode.
        m = ObservationModel(
            kernel=FiniteKernel([[[0.9, 0.1]], [[0.5, 0.5]], [[0.1, 0.9]]]),
            prior=[0.2, 0.5, 0.3],
            penalty=10.0,
        )
        p = fixed_lambda_policy([1.0], n=0)
        _, records = run_trials(m, p, 30, 5, record_trials=True)
        assert {r.declared for r in records} == {1}
        assert exact_eval(m, p).pe == 0.5


def _two_phase(**stop):
    return TwoPhasePolicy(
        explore_weights=[0.5, 0.5], exploit_weights=[[0.0, 1.0], [1.0, 0.0]], phase_threshold=0.5, **stop
    )


_CLASSES = {"fixed": lambda **stop: FixedRulePolicy(weights=[0.5, 0.5], **stop), "two_phase": _two_phase}


class TestStops:
    @pytest.mark.parametrize(
        "stop, step, want",
        [
            # threshold only: stops where the mode reaches it, never truncated
            (dict(threshold=0.9), 0, ([False, True, True], [False] * 3)),
            (dict(threshold=0.9), 10**6, ([False, True, True], [False] * 3)),
            # horizon only: every trial stops at the horizon, none truncated
            (dict(horizon=3), 2, ([False] * 3, [False] * 3)),
            (dict(horizon=3), 3, ([True] * 3, [False] * 3)),
            (dict(horizon=3), 4, ([True] * 3, [False] * 3)),
            (dict(horizon=0), 0, ([True] * 3, [False] * 3)),
            # both: before the horizon the threshold stops; at it the rest are cut,
            # and a threshold reached exactly at step == horizon is no truncation
            (dict(threshold=0.9, horizon=3), 2, ([False, True, True], [False] * 3)),
            (dict(threshold=0.9, horizon=3), 3, ([True] * 3, [True, False, False])),
            (dict(threshold=0.9, horizon=0), 0, ([True] * 3, [True, False, False])),
        ],
    )
    @pytest.mark.parametrize("cls", sorted(_CLASSES))
    def test_truth_table(self, cls, stop, step, want):
        # modes just below, exactly at and above the threshold
        assert _stops_at(_CLASSES[cls](**stop), [[0.89, 0.11], [0.9, 0.1], [0.95, 0.05]], step) == want

    @pytest.mark.parametrize(
        "pairs, step, want",
        [
            # the mode at 0.95 meets two stops at one step, and below the horizons none is cut
            ([(0.8, 5), (0.9, 6)], 0, ([1, 2, 2], [[False] * 3, [False] * 3])),
            # a horizon met below a mid-stack threshold truncates that stop only
            ([(0.85, 3), (0.92, 3), (0.99, 8)], 3, ([2, 2, 2], [[False] * 3, [True, True, False], [False] * 3])),
            # a horizon-only top stop is never truncated; the one below it is
            ([(0.92, 4), (None, 4)], 4, ([2, 2, 2], [[True, True, False], [False] * 3])),
            # a mode exactly at the threshold at step == horizon is no truncation
            ([(0.85, 2), (0.9, 3)], 3, ([2, 2, 2], [[False] * 3, [True, False, False]])),
        ],
    )
    def test_stack_truth_table(self, pairs, step, want):
        assert _stack_at(pairs, [[0.89, 0.11], [0.9, 0.1], [0.95, 0.05]], step) == want

    @pytest.mark.parametrize(
        "stop, match",
        [
            ({}, "needs a stop"),
            (dict(horizon=-1), "horizon must be a nonnegative integer, got -1"),
            # the fixed-horizon path would fail on a fractional horizon, and
            # exact_eval would round it up
            (dict(horizon=2.5), "horizon must be a nonnegative integer, got 2.5"),
            (dict(threshold=0.0), "threshold must lie in"),
            (dict(threshold=1.0), "threshold must lie in"),
            (dict(threshold=1.0, horizon=5), "threshold must lie in"),
        ],
    )
    @pytest.mark.parametrize("cls", sorted(_CLASSES))
    def test_a_policy_needs_a_stop(self, cls, stop, match):
        with pytest.raises(ValueError, match=match):
            _CLASSES[cls](**stop)

    def test_the_evaluators_reject_a_subclass_without_a_stop(self, two_probe_model):
        # the engine and exact_eval would step such a policy forever
        class _Endless(Policy):
            def batch_weights(self, probs, step_count):
                return np.full((probs.shape[0], 2), 0.5)

        with pytest.raises(ValueError, match="needs a stop"):
            run_trials(two_probe_model, _Endless(), 10, 1)
        with pytest.raises(ValueError, match="needs a stop"):
            exact_eval(two_probe_model, _Endless())


class TestFixedHorizonSizing:
    def test_formula_arithmetic(self, two_probe_report):
        # Uniform binary prior, penalty e^10, unit-free rate 0.5:
        # ceil((10 + log 1 - 0) / 0.5) = 20 steps.
        rep = dataclasses.replace(two_probe_report, d_hat=0.5)
        m = make_two_probe_model(penalty=math.exp(10.0))
        assert nn_policy(m, rep).horizon == 20

    def test_stops_on_every_path(self, two_probe_model, two_probe_report):
        pol = nn_policy(two_probe_model, two_probe_report)
        summary, records = run_trials(two_probe_model, pol, 200, 90, record_trials=True)
        assert all(r.tau == pol.horizon for r in records)
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
        assert p.horizon == want

    def test_sn_rule_follows_the_model_penalty(self):
        # under a non-uniform prior the sn rule moves with L, so a report
        # computed at another penalty must be re-derived at the model's
        rows = np.empty((3, 3, 2))
        for i in range(3):
            for a, p in enumerate([0.9, 0.8, 0.7]):
                rows[i, a] = [p, 1.0 - p] if i == a else [1.0 - p, p]
        model = ObservationModel(kernel=FiniteKernel(rows), prior=[0.7, 0.2, 0.1], penalty=10.0)
        report = compute_bounds(model)
        high = model.with_penalty(1e6)
        want = report_at_penalty(report, high).cost_bounds.sn_upper_rule.weights
        assert_allclose(want, [0.4878, 0.5122, 0.0], atol=1e-4)
        assert not np.allclose(want, report.cost_bounds.sn_upper_rule.weights, atol=1e-2)
        assert np.array_equal(build_policy("sn", high, report).weights, want)
        assert np.array_equal(sn_policy(high, report).weights, want)

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
        assert_allclose(p.threshold, 0.999, rtol=1e-15)

    def test_two_phase_switching(self):
        p = TwoPhasePolicy(
            explore_weights=[0.5, 0.5],
            exploit_weights=[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
            phase_threshold=0.5,
            threshold=0.99,
        )
        probs = np.array([np.full(3, 1.0 / 3.0), [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.995, 0.004, 0.001]])
        assert _stops_at(p, probs, 3)[0] == [False, False, False, True]
        assert_allclose(p.batch_weights(probs[:3], 3), [[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "exploit",
        # off the simplex; rules for 3 actions where the model has 2
        [[[0.7, 0.7], [-3.0, 4.0]], [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]],
    )
    def test_two_phase_rejects_bad_exploit_rows(self, exploit):
        with pytest.raises(ValueError):
            TwoPhasePolicy(
                explore_weights=[0.5, 0.5],
                exploit_weights=exploit,
                phase_threshold=0.5,
                threshold=0.99,
            )

    def test_exploit_draw_frequencies(self):
        p = TwoPhasePolicy(
            explore_weights=[1.0, 0.0],
            exploit_weights=[[0.25, 0.75], [1.0, 0.0]],
            phase_threshold=0.5,
            threshold=0.999,
        )
        rng = np.random.default_rng(3)
        probs = np.array([0.9, 0.1])
        n = 50_000
        draws = _draws(p, probs, 0, rng, n)
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
        FixedRulePolicy(weights=w, horizon=4),
        FixedRulePolicy(weights=w, threshold=_STOP),
        FixedRulePolicy(weights=w, threshold=_PHASE),
        TwoPhasePolicy(
            explore_weights=w,
            exploit_weights=rng.dirichlet(np.ones(K), size=M),
            phase_threshold=_PHASE,
            threshold=_STOP,
        ),
    ]


class TestBatchWeights:
    @given(_posterior_stacks(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_answered_independently(self, probs, step, seed):
        # Row b of a stack's answer is the answer for that row alone, so a
        # trial's play does not depend on the other trials of its block.
        for pol in _policies_for(probs.shape[1], np.random.default_rng(seed)):
            weights = pol.batch_weights(probs, step)
            assert weights.shape[0] == probs.shape[0]
            for b in range(probs.shape[0]):
                assert np.array_equal(weights[b], pol.batch_weights(probs[b][None], step)[0])


class TestPolicyInterface:
    def test_undefined_batch_weights_raises(self):
        class _Silent(Policy):
            pass

        with pytest.raises(NotImplementedError):
            _Silent().batch_weights(np.array([[0.5, 0.5]]), 0)


class TestBuildPolicy:
    def test_kinds(self, two_probe_model, two_probe_report):
        assert isinstance(build_policy("nn", two_probe_model, two_probe_report), FixedRulePolicy)
        assert isinstance(build_policy("sn", two_probe_model, two_probe_report), FixedRulePolicy)
        assert isinstance(build_policy("sa", two_probe_model, two_probe_report), TwoPhasePolicy)
        fx = build_policy("fixed", two_probe_model, rule=[0.5, 0.5], n=3)
        assert isinstance(fx, FixedRulePolicy) and fx.horizon == 3 and fx.threshold is None

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

    @pytest.mark.parametrize("kind", ["nn", "sn", "sa"])
    @pytest.mark.parametrize("given", [{"rule": [0.5, 0.5]}, {"n": 5}, {"threshold": 0.6}])
    def test_built_kinds_reject_fixed_rule_inputs(self, two_probe_model, two_probe_report, kind, given):
        with pytest.raises(ValueError, match="takes no rule, n or threshold"):
            build_policy(kind, two_probe_model, two_probe_report, **given)

    @pytest.mark.parametrize("kind", ["nn", "sn", "sa"])
    def test_built_kinds_need_a_report(self, two_probe_model, kind):
        with pytest.raises(ValueError, match="needs a bounds report"):
            build_policy(kind, two_probe_model)

    def test_sa_explores_until_the_phase_constant(self, two_probe_model, two_probe_report):
        assert build_policy("sa", two_probe_model, two_probe_report).phase_threshold == PHASE_THRESHOLD == 0.5

    def test_fixed_threshold_horizon_comes_from_the_threshold(self, two_probe_report):
        # 1000 log(1 / (1 - T)) / maxmin r at every penalty: near L = 1 a
        # horizon sized from log L would cut the rule off after 2 steps.
        def build(L):
            return build_policy("fixed", make_two_probe_model(L), rule=[0.5, 0.5], threshold=0.999)

        near_one, pol = make_two_probe_model(1.001), build(1.001)
        assert pol.horizon == build(1000.0).horizon == 10_617
        assert pol.horizon == math.ceil(1000.0 * math.log(1000.0) / two_probe_report.maxmin_r)
        summary, _ = run_trials(near_one, pol, 2000, 93)
        assert summary.n_truncated == 0


    def test_the_safety_horizon_names_an_infinite_maxmin_reliability(self, perfect_probe_model):
        report = compute_bounds(perfect_probe_model)
        for kind in ("sn", "sa"):
            with pytest.raises(AssumptionError, match="max-min reliability is infinite"):
                build_policy(kind, perfect_probe_model, report)
        with pytest.raises(AssumptionError, match="max-min reliability is infinite"):
            build_policy("fixed", perfect_probe_model, rule=[0.5, 0.5], threshold=0.99)
        twins = ObservationModel(kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]), prior=[0.5, 0.5], penalty=10.0)
        with pytest.raises(AssumptionError, match="max-min reliability is not positive"):
            build_policy("fixed", twins, rule=[1.0], threshold=0.99)


class TestSingleActionModel:
    def test_all_families_play_the_only_action(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.9, 0.1]], [[0.2, 0.8]]]),
            prior=[0.5, 0.5],
            penalty=50.0,
        )
        rep = compute_bounds(m)
        probs = np.array([[0.5, 0.5]])
        pols = [
            nn_policy(m, rep),
            sn_policy(m, rep),
            sa_policy(m, rep),
            fixed_lambda_policy([1.0], n=5),
        ]
        for pol in pols:
            assert _stops_at(pol, probs, 0)[0] == [False]
            assert pol.batch_weights(probs, 0).tolist() == [[1.0]]
