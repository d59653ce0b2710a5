"""Divergences: KL, Renyi, the tilted exponent, and its maximizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from active_ht import (
    FiniteKernel,
    Gaussian,
    ObservationModel,
    RandomizedRule,
    alpha_max,
    kl,
    renyi,
    tilted_exponent,
)
from active_ht.bounds import _newton_max, _pair_exponents, _pair_optima
from conftest import random_finite_model

BERN_9 = np.array([0.9, 0.1])
BERN_4 = np.array([0.4, 0.6])


def _random_pmf(rng, z):
    return rng.dirichlet(np.full(z, float(rng.uniform(0.3, 3.0))))


class TestKL:
    def test_bernoulli_values(self):
        assert_allclose(kl(BERN_9, BERN_4), 0.5506612476718906, rtol=1e-14)
        assert_allclose(kl(BERN_4, BERN_9), 0.7506835950503014, rtol=1e-14)

    def test_zero_handling(self):
        # Mass where the reference has none: infinite divergence.
        assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf
        # 0 log 0 = 0: zero mass in p contributes nothing.
        assert_allclose(kl([1.0, 0.0], [0.5, 0.5]), math.log(2.0), rtol=1e-14)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            z = int(rng.integers(2, 6))
            p = _random_pmf(rng, z)
            q = _random_pmf(rng, z)
            assert kl(p, q) >= 0.0
            assert kl(p, p) <= 1e-12

    def test_gaussian_closed_form(self):
        p = Gaussian(0.0, 1.0)
        q = Gaussian(1.0, 4.0)
        want = 0.5 * math.log(4.0) + (1.0 + 1.0) / 8.0 - 0.5
        assert_allclose(kl(p, q), want, rtol=1e-14)
        assert kl(p, p) == 0.0

    def test_mismatched_domains_rejected(self):
        with pytest.raises(Exception):
            kl(BERN_9, Gaussian(0.0, 1.0))


class TestRenyi:
    def test_alpha_one_is_kl(self):
        assert_allclose(renyi(BERN_9, BERN_4, 1.0), kl(BERN_9, BERN_4), rtol=1e-14)

    def test_alpha_zero_full_support(self):
        # -log sum q = 0 whenever q is a full pmf.
        assert_allclose(renyi(BERN_9, BERN_4, 0.0), 0.0, atol=1e-14)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(11)
        alphas = np.linspace(0.0, 1.0, 101)
        for _ in range(50):
            z = int(rng.integers(2, 6))
            p = _random_pmf(rng, z)
            q = _random_pmf(rng, z)
            vals = [renyi(p, q, a) for a in alphas]
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-10)

    def test_gaussian_matches_quadrature_free_identity(self):
        # (1-a) D_a must agree between renyi and tilted_exponent.
        p = Gaussian(0.3, 1.7)
        q = Gaussian(-1.2, 0.6)
        for a in (0.1, 0.25, 0.5, 0.9):
            assert_allclose((1.0 - a) * renyi(p, q, a), tilted_exponent(p, q, a), rtol=1e-12)

    def test_disjoint_support_infinite(self):
        assert renyi([1.0, 0.0], [0.0, 1.0], 0.5) == math.inf

    def test_order_outside_range_rejected(self):
        with pytest.raises(ValueError):
            renyi(BERN_9, BERN_4, 1.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_order_bound_property(self, seed):
        # (1-a) D_a(p||q) <= min{(1-a) D(p||q), a D(q||p)} on a coarse grid.
        rng = np.random.default_rng(seed)
        z = int(rng.integers(2, 6))
        p = _random_pmf(rng, z)
        q = _random_pmf(rng, z)
        dpq, dqp = kl(p, q), kl(q, p)
        for a in np.linspace(0.0, 1.0, 21):
            lhs = (1.0 - a) * renyi(p, q, a)
            assert lhs <= min((1.0 - a) * dpq, a * dqp) + 1e-9


class TestTiltedExponent:
    def test_endpoints_vanish_on_full_support(self):
        assert_allclose(tilted_exponent(BERN_9, BERN_4, 0.0), 0.0, atol=1e-14)
        assert_allclose(tilted_exponent(BERN_9, BERN_4, 1.0), 0.0, atol=1e-14)

    def test_swap_symmetry(self):
        for a in (0.2, 0.5, 0.8):
            assert_allclose(
                tilted_exponent(BERN_9, BERN_4, a),
                tilted_exponent(BERN_4, BERN_9, 1.0 - a),
                rtol=1e-13,
            )

    def test_concave_shape_positive_inside(self):
        mid = tilted_exponent(BERN_9, BERN_4, 0.5)
        assert mid > 0.0
        assert mid <= min(kl(BERN_9, BERN_4), kl(BERN_4, BERN_9))


class TestAlphaMax:
    def test_identical_kernels_value_zero(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.5, 0.5]], [[0.5, 0.5]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        opt = alpha_max(m, 0, 1, RandomizedRule([1.0]))
        assert_allclose(opt.value, 0.0, atol=1e-12)

    def test_symmetric_pair_optimum_at_half(self):
        m = ObservationModel(
            kernel=FiniteKernel([[[0.9, 0.1]], [[0.1, 0.9]]]),
            prior=[0.5, 0.5],
            penalty=10.0,
        )
        opt = alpha_max(m, 0, 1, RandomizedRule([1.0]))
        assert abs(opt.alpha_star - 0.5) < 1e-6

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m = random_finite_model(rng)
            i, j = 0, 1
            w = rng.dirichlet(np.ones(m.K))
            rule = RandomizedRule(w)
            opt = alpha_max(m, i, j, rule)
            probs = m.kernel.probs
            grid = np.linspace(0.0, 1.0, 10_001)
            best = max(
                sum(
                    w[a] * tilted_exponent(probs[i, a], probs[j, a], a_)
                    for a in range(m.K)
                )
                for a_ in grid
            )
            assert opt.value >= best - 1e-6

    def test_weighted_order_bound_at_optimum(self, two_probe_model):
        rng = np.random.default_rng(99)
        probs = two_probe_model.kernel.probs
        for _ in range(25):
            w = rng.dirichlet(np.ones(2))
            opt = alpha_max(two_probe_model, 0, 1, RandomizedRule(w))
            a_star = opt.alpha_star
            fwd = sum(w[a] * kl(probs[0, a], probs[1, a]) for a in range(2))
            rev = sum(w[a] * kl(probs[1, a], probs[0, a]) for a in range(2))
            assert opt.value <= min((1.0 - a_star) * fwd, a_star * rev) + 1e-9

    def test_two_probe_equal_rule_value(self, two_probe_model):
        opt = alpha_max(two_probe_model, 0, 1, RandomizedRule([0.5, 0.5]))
        assert_allclose(opt.value, 0.16847903891768543, rtol=1e-9)

    @pytest.mark.parametrize("weights", [[2.0, 0.0], [-0.5, 1.5], [1.0]])
    def test_rejects_weights_off_the_simplex(self, two_probe_model, weights):
        with pytest.raises(ValueError):
            alpha_max(two_probe_model, 0, 1, weights)

    def test_returns_plain_floats(self, two_probe_model):
        opt = alpha_max(two_probe_model, 0, 1, [0.5, 0.5])
        assert type(opt.value) is float and type(opt.alpha_star) is float

    def test_swapped_pair_mirrors(self, gaussian_binary_model):
        # (1-a) D_a(p || q) = a D_{1-a}(q || p): the same value, at the mirrored alpha.
        rng = np.random.default_rng(31)
        models = [random_finite_model(rng) for _ in range(10)] + [gaussian_binary_model]
        for m in models:
            w = rng.dirichlet(np.ones(m.K))
            fwd, rev = alpha_max(m, 0, 1, w), alpha_max(m, 1, 0, w)
            assert_allclose(rev.value, fwd.value, rtol=1e-12)
            assert abs(fwd.alpha_star + rev.alpha_star - 1.0) <= 1e-7

    def test_separated_pair_matches_d_hat_pair_search(self):
        # Action 0 gives hypotheses 0 and 1 disjoint supports; action 1 separates no pair.
        m = ObservationModel(
            kernel=FiniteKernel([
                [[1.0, 0.0, 0.0], [0.6, 0.3, 0.1]],
                [[0.0, 0.5, 0.5], [0.2, 0.5, 0.3]],
                [[0.0, 0.3, 0.7], [0.3, 0.3, 0.4]],
            ]),
            prior=[0.2, 0.3, 0.5],
            penalty=100.0,
        )
        exponents = _pair_exponents(m, np.triu_indices(m.M, 1))  # pairs (0, 1), (0, 2), (1, 2)
        separated = np.array([[True, False], [True, False], [False, False]])
        for w in ([0.5, 0.5], [1.0, 0.0]):
            opt = alpha_max(m, 0, 1, w)
            assert (opt.value, opt.alpha_star) == (math.inf, 0.5)
            values, alphas = _pair_optima(exponents, separated, np.array([w]))
            assert (values[0, 0], alphas[0, 0]) == (opt.value, opt.alpha_star)
        # Off the separating action the pair is searched, and its value is finite.
        opt = alpha_max(m, 0, 1, [0.0, 1.0])
        assert math.isfinite(opt.value) and 0.0 < opt.alpha_star < 1.0


def _concave_curves(n, seed=11):
    """n concave curves -scale |x - peak|^power, with peaks in [-0.2, 1.2], some
    beyond an end of [0, 1], as a _newton_max evaluator over the listed jobs."""
    rng = np.random.default_rng(seed)
    peak, scale = rng.uniform(-0.2, 1.2, n), rng.uniform(0.1, 5.0, n)
    power = rng.choice([2.0, 4.0], n)

    def curves(jobs, x, derivatives=True):
        s, c, k = scale[jobs], peak[jobs], power[jobs]
        gap = x - c
        f = -s * np.abs(gap) ** k
        if not derivatives:
            return f
        return f, -s * k * np.sign(gap) * np.abs(gap) ** (k - 1), -s * k * (k - 1) * np.abs(gap) ** (k - 2)

    return curves, peak, scale, power


class TestNewtonMax:
    def test_batch_matches_one_job_searches(self):
        n = 40
        curves, *_ = _concave_curves(n)
        xs, fs = _newton_max(curves, n)
        for k in range(n):
            x1, f1 = _newton_max(lambda jobs, x, derivatives=True: curves(jobs + k, x, derivatives), 1)
            # Each job runs on its own numbers, so the same bits.
            assert (xs[k], fs[k]) == (x1[0], f1[0])

    def test_finds_the_argmax_and_value(self):
        # Quadratic peaks converge in a step or two; a quartic's F'' vanishes
        # at its peak, so Newton closes in linearly there, up to the cap.
        n = 40
        curves, peak, scale, power = _concave_curves(n)
        xs, fs = _newton_max(curves, n)
        top = np.clip(peak, 0.0, 1.0)
        top_f = -scale * np.abs(top - peak) ** power
        inside = (peak > 0.0) & (peak < 1.0)
        assert np.array_equal(xs[~inside], top[~inside]) and np.array_equal(fs[~inside], top_f[~inside])
        assert np.all(np.abs(xs - top)[inside & (power == 2.0)] <= 1e-15)
        assert np.all(np.abs(xs - top)[inside & (power == 4.0)] <= 1e-10)
        assert np.all((fs[inside] <= 0.0) & (fs[inside] >= -1e-30))
        assert np.array_equal(fs, curves(np.arange(n), xs, derivatives=False))

    @pytest.mark.parametrize("slope", [-2.0, 3.0])
    def test_a_linear_curve_probes_the_end_it_rises_to(self, slope):
        # F'' = 0 everywhere: the first step aims at the end F' points to.
        calls = []

        def line(jobs, x, derivatives=True):
            calls.append(x.copy())
            f = slope * x
            return (f, np.full_like(x, slope), np.zeros_like(x)) if derivatives else f

        x, f = _newton_max(line, 1)
        end = 1.0 if slope > 0.0 else 0.0
        assert (x[0], f[0]) == (end, slope * end)
        assert [c.tolist() for c in calls] == [[0.5], [end], [0.0, 1.0]]
