import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_retrain.errors import (
    ConfigError,
    DegenerateModelError,
    DomainError,
    ShapeError,
)
from amp_retrain.gmm import (
    GmmParams,
    IdentityAggregator,
    OptimalGmm,
    SmoothedConsensusRT,
    SmoothedFullRT,
    _channel,
    gmm_evaluator,
    sample_gmm_dataset,
)
from amp_retrain.gmm import test_error_gmm as gmm_error
from amp_retrain.glm import GlmParams, LogisticLink, OptimalGlm, OptimalSign, SignLink
from amp_retrain.gmm_se import label_atoms, se_init_gmm
from amp_retrain.numerics import RngStream, gauss_hermite, std_normal_cdf
from amp_retrain.retrain import (
    HARD_RULES,
    AmpState,
    Dataset,
    SeState,
    amp_step,
    run_hard_baseline,
    run_retraining,
)


def params_for(gamma=1.5, alpha=0.8, p=0.3, pi_plus=0.5, n=1000, d=None):
    return GmmParams(gamma=gamma, alpha=alpha, p=p, pi_plus=pi_plus, n=n, d=d)


def zero_state(data):
    return AmpState(w=np.zeros(data.d), y_soft=np.zeros(data.n), t=0)


def step(state, data, agg):
    return amp_step(state, data.X, data.y_noisy, data.scale, agg)


def schedule(agg, T):
    """Identity first, then agg for the remaining T - 1 steps."""
    return (IdentityAggregator(),) + (agg,) * (T - 1)


def retrain(data, aggregators):
    return run_retraining(data, aggregators, gmm_evaluator(data))


def rows_sum(X, g):
    """X^T g in float32 with the rows added in order, as float64: a plain
    transcription of the engine's product."""
    return (X * g.astype(np.float32)[:, None]).sum(axis=0).astype(float)


def onsager_of(agg, y_soft, y_noisy):
    """The c of one amp_step on a zero matrix from w = 1, where w' = -c exactly."""
    X = np.zeros((len(y_soft), 1), dtype=np.float32)
    return -float(amp_step(AmpState(np.ones(1), y_soft, 0), X, y_noisy, 1.0, agg).w[0])


class TestParams:
    def test_d_defaults_to_rounded_ratio(self):
        assert params_for(alpha=0.8, n=1000).d == 800
        assert params_for(alpha=2.0, n=333).d == 666

    def test_validation(self):
        with pytest.raises(ConfigError):
            params_for(gamma=-1.0)
        with pytest.raises(ConfigError):
            params_for(p=0.5)
        with pytest.raises(ConfigError):
            params_for(pi_plus=1.5)
        with pytest.raises(ConfigError):
            GmmParams(gamma=1.0, alpha=0.8, p=0.1, n=1000, d=900)


class TestSampling:
    def test_no_flips_when_p_zero(self):
        data = sample_gmm_dataset(params_for(p=0.0, n=500), RngStream(1))
        assert np.array_equal(data.y_true, data.y_noisy)

    def test_single_class(self):
        data = sample_gmm_dataset(params_for(pi_plus=1.0, n=300), RngStream(2))
        assert np.all(data.y_true == 1.0)

    def test_mean_norm_and_balance(self):
        params = params_for(gamma=1.5, alpha=0.8, p=0.3, pi_plus=0.5, n=1000)
        data = sample_gmm_dataset(params, RngStream(3))
        assert abs(np.linalg.norm(data.truth) - 1.5) <= 1e-12
        assert data.scale == math.sqrt(1000)
        # binomial bounds, 4 standard deviations
        bal = np.mean(data.y_true == 1.0)
        assert abs(bal - 0.5) <= 4 * math.sqrt(0.25 / params.n)
        flips = np.mean(data.y_true != data.y_noisy)
        assert abs(flips - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / params.n)

    def test_deterministic(self):
        a = sample_gmm_dataset(params_for(n=50), RngStream(9, 2))
        b = sample_gmm_dataset(params_for(n=50), RngStream(9, 2))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y_noisy, b.y_noisy)

    def test_means_added_by_label(self):
        data = sample_gmm_dataset(params_for(alpha=77 / 333, n=333, d=77), RngStream(8))
        noise = RngStream(8).gaussian_matrix(333, 77)
        means = (data.y_true[:, None] * data.truth[None, :]).astype(np.float32)
        assert data.X.dtype == np.float32
        assert np.array_equal(data.X, noise + means)

    def test_means_added_in_place(self):
        # the means go into X without an n x d temporary: the traced peak stays
        # near one matrix (two blocks, so the threaded fill is traced too)
        params = params_for(alpha=0.5, n=2200, d=1100)
        tracemalloc.start()
        try:
            data = sample_gmm_dataset(params, RngStream(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * data.X.nbytes


class TestAggregators:
    def test_optimal_at_zero_balanced(self):
        # exponent vanishes at y=0 with equal priors: value collapses to 1-2p
        params = params_for(p=0.3, pi_plus=0.5)
        agg = OptimalGmm.from_eta(0.7, params)
        assert float(agg.value_and_deriv(0.0, 1)[0]) == pytest.approx(0.4, abs=1e-14)
        assert float(agg.value_and_deriv(0.0, -1)[0]) == pytest.approx(-0.4, abs=1e-14)

    def test_optimal_saturates(self):
        agg = OptimalGmm.from_eta(0.5, params_for(p=0.2, pi_plus=0.3))
        assert float(agg.value_and_deriv(1e6, 1)[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(agg.value_and_deriv(-1e6, 1)[0]) == pytest.approx(-1.0, abs=1e-12)

    def test_eta_whose_square_overflows(self):
        # finite eta, but a Python float's eta**2 raises the built-in OverflowError
        with pytest.raises(DomainError, match="eta is too large"):
            OptimalGmm.from_eta(1e160, params_for(p=0.2, pi_plus=0.3))
        # and a state whose channel's sigma_bar^2 = alpha*(mu^2 + sigma^2) overflows
        state = SeState(mu=1e160, sigma=1.0)
        with pytest.raises(DomainError, match="mu is too large"):
            OptimalGmm.from_se_state(state, params_for(p=0.2, pi_plus=0.3))

    def test_optimal_p_zero_returns_label(self):
        agg = OptimalGmm.from_eta(0.5, params_for(p=0.0))
        g, dg = agg.value_and_deriv(3.7, -1)
        assert float(g) == -1.0
        assert float(dg) == 0.0

    def test_smoothed_ft_at_zero(self):
        agg = SmoothedFullRT(beta=5.0)
        g, dg = agg.value_and_deriv(0.0, 1)
        assert float(g) == 0.0
        assert float(dg) == pytest.approx(2.5, abs=1e-15)

    def test_identity_derivative_zero(self):
        agg = IdentityAggregator()
        g, dg = agg.value_and_deriv(1.3, -1)
        assert float(dg) == 0.0
        assert float(g) == -1.0

    def test_invalid_inputs(self):
        # all six aggregators check their inputs
        glm = dict(gamma=1.0, alpha=1.0, p=0.2, n=100)
        aggs = [
            IdentityAggregator(),
            OptimalGmm.from_eta(0.5, params_for(p=0.2, pi_plus=0.3)),
            SmoothedFullRT(2.5),
            SmoothedConsensusRT(4.0),
            OptimalGlm.from_eta(0.5, GlmParams(link=LogisticLink(), **glm)),
            OptimalSign.from_eta(0.5, GlmParams(link=SignLink(), **glm)),
        ]
        bad = [(float("nan"), 1), (0.0, 0), (0.3, 0.5),
               ([0.3, np.inf], [1, -1]), ([0.3, 0.5], [1, 0])]
        for agg in aggs:
            for y, yhat in bad:
                try:
                    agg.value_and_deriv(y, yhat)
                except DomainError:
                    continue
                pytest.fail(f"{type(agg).__name__}.value_and_deriv({y}, {yhat}) did not raise")

    @pytest.mark.parametrize("agg", [
        IdentityAggregator(),
        SmoothedFullRT(2.5),
        SmoothedConsensusRT(4.0),
        OptimalGmm.from_eta(0.8, GmmParams(gamma=1.5, alpha=2.0, p=0.2, pi_plus=0.3, n=100)),
        OptimalGmm.from_eta(0.0, GmmParams(gamma=1.0, alpha=0.5, p=0.4, pi_plus=0.6, n=100)),
    ])
    def test_derivative_matches_finite_differences(self, agg):
        ys = np.linspace(-3, 3, 50)
        h = 1e-5
        for yhat in (1.0, -1.0):
            analytic = agg.value_and_deriv(ys, yhat)[1]
            fd = (agg.value_and_deriv(ys + h, yhat)[0]
                  - agg.value_and_deriv(ys - h, yhat)[0]) / (2 * h)
            assert np.max(np.abs(analytic - fd)) <= 1e-8

    @pytest.mark.parametrize("agg,bound", [
        (SmoothedFullRT(7.0), 3.5),
        (SmoothedConsensusRT(7.0), 3.5),
    ])
    def test_lipschitz_bound(self, agg, bound):
        ys = np.linspace(-5, 5, 400)
        for yhat in (1.0, -1.0):
            assert np.max(np.abs(agg.value_and_deriv(ys, yhat)[1])) <= bound + 1e-12

    @given(st.floats(-3, 3), st.sampled_from([-1, 1]))
    @settings(max_examples=100, deadline=None)
    def test_optimal_bounded_open_interval(self, y, yhat):
        # strict bounds hold in floats away from tanh saturation (~|arg| > 19)
        agg = OptimalGmm.from_eta(0.5, GmmParams(gamma=1.5, alpha=2.0, p=0.2, pi_plus=0.3, n=100))
        v = float(agg.value_and_deriv(y, yhat)[0])
        assert -1.0 < v < 1.0

    def test_optimal_strictly_increasing_in_y(self):
        agg = OptimalGmm.from_eta(0.5, params_for(p=0.2, pi_plus=0.3))
        ys = np.linspace(-3, 3, 200)
        for yhat in (1.0, -1.0):
            assert np.all(np.diff(agg.value_and_deriv(ys, yhat)[0]) > 0)


class TestOnsager:
    # the engine's memory-correction weight c = mean(dg/dy), read off one step
    def test_identity_is_zero(self):
        y = np.random.default_rng(0).standard_normal(40)
        yhat = np.sign(np.random.default_rng(1).standard_normal(40))
        assert onsager_of(IdentityAggregator(), y, yhat) == 0.0

    def test_smoothed_ft_at_zero_predictions(self):
        agg = SmoothedFullRT(beta=3.0)
        y = np.zeros(17)
        yhat = np.ones(17)
        assert onsager_of(agg, y, yhat) == pytest.approx(1.5, abs=1e-15)

    def test_single_point(self):
        agg = SmoothedConsensusRT(beta=2.0)
        y = np.array([0.4])
        yhat = np.array([-1.0])
        assert onsager_of(agg, y, yhat) == pytest.approx(
            float(agg.value_and_deriv(0.4, -1.0)[1]), abs=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            onsager_of(IdentityAggregator(), np.zeros(3), np.ones(4))


class TestAmpStep:
    def test_first_step_exact(self):
        params = params_for(n=60, alpha=0.5)
        data = sample_gmm_dataset(params, RngStream(5))
        state = step(zero_state(data), data, IdentityAggregator())
        expected = rows_sum(data.X, data.y_noisy) / math.sqrt(data.n)
        assert np.array_equal(state.w, expected)
        assert state.t == 1

    def test_zero_matrix_linearity(self):
        n, d = 30, 20
        data = Dataset(X=np.zeros((n, d)), y_true=np.ones(n), y_noisy=np.ones(n),
                       truth=np.ones(d), scale=math.sqrt(n))
        agg = SmoothedFullRT(beta=2.0)
        theta0 = np.linspace(1, 2, d)
        y0 = np.linspace(-1, 1, n)
        state = step(AmpState(theta0, y0, 3), data, agg)
        c = np.mean(agg.value_and_deriv(y0, data.y_noisy)[1])
        assert np.allclose(state.w, -c * theta0, atol=1e-15)
        assert np.allclose(state.y_soft, -agg.value_and_deriv(y0, data.y_noisy)[0] * d / n,
                           atol=1e-15)

    def test_against_straight_line_reimplementation(self):
        # independent plain-numpy transcription of the two update formulas
        params = params_for(gamma=1.2, alpha=0.8, p=0.2, n=50, d=40)
        data = sample_gmm_dataset(params, RngStream(77))
        agg = OptimalGmm.from_eta(0.6, params)
        state = zero_state(data)
        state = step(state, data, IdentityAggregator())
        state = step(state, data, agg)

        n, d = 50, 40
        X = data.X

        def matvec(v):   # one float32 dot product per row, float64 result
            return np.vecdot(X, v.astype(np.float32)).astype(float)

        theta = rows_sum(X, data.y_noisy) / np.sqrt(n)
        y = matvec(theta) / np.sqrt(n) - data.y_noisy * d / n
        L = np.log((1 - 0.2) / 0.2)
        slope = 2 * 1.2**2 / (0.8 * (0.6**2 + 1))
        g = np.tanh(0.5 * (data.y_noisy * L + slope * y))
        c = np.mean(0.5 * slope * (1 - g**2))
        theta2 = rows_sum(X, g) / np.sqrt(n) - c * theta
        y2 = matvec(theta2) / np.sqrt(n) - g * d / n
        assert np.max(np.abs(state.w - theta2)) <= 1e-12
        assert np.max(np.abs(state.y_soft - y2)) <= 1e-12


class TestTestError:
    def test_perfect_alignment(self):
        mu = np.array([1.2, 0.0, 0.9])
        assert gmm_error(mu, mu) == pytest.approx(
            std_normal_cdf(-np.linalg.norm(mu)), abs=1e-15
        )

    def test_orthogonal_is_chance(self):
        mu = np.array([1.0, 0.0])
        theta = np.array([0.0, 2.0])
        assert gmm_error(theta, mu) == pytest.approx(0.5, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateModelError):
            gmm_error(np.zeros(3), np.ones(3))

    def test_monte_carlo_oracle(self):
        # simulate the data model directly and classify with sign(x.theta)
        gen = RngStream(31).generator()
        d = 12
        mu = gen.standard_normal(d)
        mu /= np.linalg.norm(mu)  # gamma = 1
        theta = gen.standard_normal(d)
        n = 1_000_000
        y = np.where(gen.random(n) < 0.5, 1.0, -1.0)
        scores = (y[:, None] * mu[None, :] + gen.standard_normal((n, d))) @ theta
        emp = np.mean(np.sign(scores) != y)
        se = math.sqrt(emp * (1 - emp) / n)
        assert abs(gmm_error(theta, mu) - emp) <= 3 * se

    def test_flip_symmetry(self):
        gen = RngStream(8).generator()
        mu = gen.standard_normal(6)
        theta = gen.standard_normal(6)
        assert gmm_error(-theta, -mu) == pytest.approx(
            gmm_error(theta, mu), abs=1e-15
        )


def first_iterate(data):
    """w_1 = X^T y_noisy / sqrt(n) of the identity first step, as the engine
    hands it to evaluate."""
    iterates = []

    def evaluate(w):
        iterates.append(w)
        return 0.0, 0.0

    run_retraining(data, (IdentityAggregator(),), evaluate)
    return iterates[0]


class TestVanilla:
    """The one-shot (vanilla) estimator X^T y_noisy / n is the identity first
    step over sqrt(n)."""

    def test_aligned_mean_recovery(self):
        d = 40
        n = 20000
        gamma = 1.3
        params = GmmParams(gamma=gamma, alpha=d / n, p=0.0, pi_plus=0.5, n=n, d=d)
        gen = RngStream(12).generator()
        y = np.where(gen.random(n) < 0.5, 1.0, -1.0)
        mu = np.zeros(d)
        mu[0] = gamma
        X = y[:, None] * mu[None, :] + gen.standard_normal((n, d))
        data = Dataset(X=X, y_true=y, y_noisy=y, truth=mu, scale=math.sqrt(n))
        est = first_iterate(data) / math.sqrt(n)
        assert abs(est[0] - gamma) <= 5 / math.sqrt(n)

    def test_zero_matrix(self):
        data = Dataset(X=np.zeros((4, 3)), y_true=np.ones(4), y_noisy=np.ones(4),
                       truth=np.ones(3), scale=math.sqrt(4))
        assert np.array_equal(first_iterate(data), np.zeros(3))

    def test_linearity_in_labels(self):
        data = sample_gmm_dataset(params_for(n=50), RngStream(4))
        flipped = dataclasses.replace(data, y_noisy=-data.y_noisy)
        assert np.array_equal(first_iterate(flipped), -first_iterate(data))


class TestRunRetraining:
    def test_single_step_matches_manual(self):
        params = params_for(n=200)
        data = sample_gmm_dataset(params, RngStream(21))
        traj = retrain(data, schedule(IdentityAggregator(), 1))
        theta1 = rows_sum(data.X, data.y_noisy) / math.sqrt(data.n)
        assert traj.points[0].t == 1
        assert traj.points[0].error == pytest.approx(gmm_error(theta1, data.truth), abs=1e-15)

    def test_deterministic(self):
        params = params_for(n=150)
        sched = schedule(SmoothedFullRT(3.0), 4)
        a = retrain(sample_gmm_dataset(params, RngStream(99, 1)), sched)
        b = retrain(sample_gmm_dataset(params, RngStream(99, 1)), sched)
        assert [p.error for p in a.points] == [p.error for p in b.points]

    def test_bayes_identity_small_run(self):
        # quadrature identity E[Y g] = E[g^2] for the matched posterior mean
        params = params_for(gamma=1.4, alpha=1.1, p=0.25, pi_plus=0.4, n=100)
        state = se_init_gmm(params)
        agg = OptimalGmm.from_se_state(state, params)
        m_bar, sigma_bar = _channel(state, params)
        rule = gauss_hermite(201)
        nodes = math.sqrt(2.0) * rule.nodes
        e_yg = e_gg = 0.0
        for w, y_lab, yhat in label_atoms(params):
            vals = agg.value_and_deriv(m_bar * y_lab + sigma_bar * nodes, yhat)[0]
            e_yg += w * y_lab * float(rule.weights @ vals) / math.sqrt(math.pi)
            e_gg += w * float(rule.weights @ (vals * vals)) / math.sqrt(math.pi)
        assert abs(e_yg - e_gg) <= 1e-8

    def test_divergence_truncates_and_flags(self):
        class ExplodingAggregator:
            y_breakpoints = ()

            def value_and_deriv(self, y, yhat):
                y = np.asarray(y, dtype=float)
                return 1e200 * (y + 1.0), np.full_like(y, 1e200)

        params = params_for(n=60)
        traj = retrain(sample_gmm_dataset(params, RngStream(13)),
                       schedule(ExplodingAggregator(), 6))
        assert traj.diverged_at is not None
        assert len(traj.points) < 6

    def test_hard_baselines_run(self):
        params = params_for(gamma=1.0, alpha=0.8, p=0.2, pi_plus=0.3, n=300)
        data = sample_gmm_dataset(params, RngStream(17))
        for rule in HARD_RULES.values():
            traj = run_hard_baseline(data, rule, 5, gmm_evaluator(data))
            assert len(traj.points) == 5
            assert all(0.0 <= pt.error <= 1.0 for pt in traj.points)
        with pytest.raises(ConfigError):
            run_hard_baseline(data, HARD_RULES["full"], 0, gmm_evaluator(data))
