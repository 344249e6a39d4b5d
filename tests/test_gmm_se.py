import math

import numpy as np
import pytest

from amp_retrain import gmm_se, numerics
from amp_retrain.errors import ConfigError, DomainError
from amp_retrain.gmm import (
    GmmParams,
    IdentityAggregator,
    OptimalGmm,
    SmoothedFullRT,
    aggregator_from_name,
)
from amp_retrain.gmm_se import (
    SeMapSpec,
    SeStateGmm,
    cobweb_trace,
    eta_map_ct,
    eta_map_ft,
    eta_map_opt,
    find_crossover,
    find_fixed_points,
    label_atoms,
    p_star,
    se_error_gmm,
    se_init_gmm,
    se_step_gmm,
)
from amp_retrain.harness import ExperimentConfig, se_states
from amp_retrain.numerics import gaussian_rule, std_normal_cdf


def params_for(gamma=1.5, alpha=2.0, p=0.3, pi_plus=0.3, n=100):
    return GmmParams(gamma=gamma, alpha=alpha, p=p, pi_plus=pi_plus, n=n)


FIG_MAP_PARAMS = params_for()  # gamma=1.5, alpha=2, p=0.3, pi_plus=0.3


class TestInit:
    def test_exact_formula(self):
        state = se_init_gmm(params_for(gamma=1.5, p=0.3, alpha=2.0))
        assert state.eta == pytest.approx(0.6 / math.sqrt(2.0), abs=1e-15)
        assert state.sigma == 1.0

    def test_noiseless(self):
        state = se_init_gmm(params_for(gamma=1.5, p=0.0, alpha=2.0))
        assert state.eta == pytest.approx(1.5 / math.sqrt(2.0), abs=1e-15)

    def test_pure_noise_limit(self):
        state = se_init_gmm(params_for(p=0.4999999))
        assert abs(state.m) <= 1e-6

    def test_derived_fields_consistent(self):
        params = params_for()
        state = se_init_gmm(params)
        assert state.m_bar == pytest.approx(params.gamma * math.sqrt(params.alpha) * state.m, abs=1e-12)
        assert state.sigma_bar**2 == pytest.approx(
            params.alpha * (state.m**2 + state.sigma**2), abs=1e-12
        )
        assert state.eta == pytest.approx(state.m / state.sigma, abs=1e-15)


class TestStep:
    def test_identity_reenters_init(self):
        params = params_for()
        arbitrary = SeStateGmm(m=0.7, sigma=2.3, gamma=params.gamma, alpha=params.alpha)
        nxt = se_step_gmm(arbitrary, IdentityAggregator(), params)
        init = se_init_gmm(params)
        assert nxt.m == pytest.approx(init.m, abs=1e-12)
        assert nxt.sigma == pytest.approx(1.0, abs=1e-12)

    def test_optimal_step_self_consistency(self):
        # matched posterior mean: m' = (gamma/sqrt(alpha)) * sigma'^2
        params = params_for()
        state = se_init_gmm(params)
        for _ in range(4):
            agg = OptimalGmm.from_se_state(state, params)
            state = se_step_gmm(state, agg, params)
            assert abs(state.m - params.gamma / math.sqrt(params.alpha) * state.sigma**2) <= 1e-9

    def test_optimal_step_matches_eta_map(self):
        params = params_for()
        state = se_init_gmm(params)
        for _ in range(4):
            expected = eta_map_opt(state.eta**2, params)
            agg = OptimalGmm.from_se_state(state, params)
            state = se_step_gmm(state, agg, params)
            assert state.eta**2 == pytest.approx(expected, abs=1e-9)

    def test_smoothed_split_rule_matches_hermite_at_small_beta(self):
        # the split Gauss-Legendre path must agree with a plain Hermite
        # evaluation when the transition is mild
        params = params_for()
        state = se_init_gmm(params)
        agg = SmoothedFullRT(2.0)
        stepped = se_step_gmm(state, agg, params)
        m_acc = 0.0
        s2_acc = 0.0
        for w, y_lab, yhat in label_atoms(params):
            y, weights = gaussian_rule(state.m_bar * y_lab, state.sigma_bar, (), 201)
            vals = agg.value_and_deriv(y, yhat)[0]
            m_acc += w * y_lab * float(vals @ weights)
            s2_acc += w * float((vals * vals) @ weights)
        assert stepped.m == pytest.approx(params.gamma / math.sqrt(params.alpha) * m_acc, abs=1e-9)
        assert stepped.sigma**2 == pytest.approx(s2_acc, abs=1e-9)


def reference_step(state, agg, params, order=301):
    """se_step_gmm atom by atom on a finer rule (Hermite stops at order 370)."""
    e_gy = e_gg = 0.0
    for w, y_lab, yhat in label_atoms(params):
        y, weights = gaussian_rule(state.m_bar * y_lab, state.sigma_bar, agg.y_breakpoints, order)
        vals = agg.value_and_deriv(y, yhat)[0]
        e_gy += w * y_lab * float(vals @ weights)
        e_gg += w * float((vals * vals) @ weights)
    return SeStateGmm(m=params.gamma / math.sqrt(params.alpha) * e_gy, sigma=math.sqrt(e_gg),
                      gamma=params.gamma, alpha=params.alpha)


class TestFixedOrderResolvesTheTrace:
    # the quadrature order is fixed, so each trace is checked against one
    # computed on a finer rule; the largest gap measured was 1.4e-14
    @pytest.mark.parametrize("name,beta", [("opt", None), ("identity", None),
                                           ("smoothed_ft", 5.0), ("smoothed_ct", 5.0),
                                           ("smoothed_ft", 20.0), ("smoothed_ct", 20.0)])
    def test_against_order_301(self, name, beta):
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=2.0, p=0.3, pi_plus=0.3,
                                  n=100, iterations=10, aggregator=name, beta=beta)
        states, _ = se_states(config)
        params = params_for()
        ref = states[0]
        for state in states[1:]:
            agg = aggregator_from_name(name, beta) or OptimalGmm.from_se_state(ref, params)
            ref = reference_step(ref, agg, params)
            assert abs(state.eta - ref.eta) <= 1e-12


class TestErrorPrediction:
    def test_chance_level(self):
        params = params_for()
        state = SeStateGmm(m=0.0, sigma=1.0, gamma=params.gamma, alpha=params.alpha)
        assert se_error_gmm(state.eta, params) == 0.5

    def test_infinite_snr_limit(self):
        assert se_error_gmm(1e9, params_for()) == pytest.approx(std_normal_cdf(-1.5), abs=1e-9)

    def test_unit_snr(self):
        assert se_error_gmm(1.0, params_for()) == pytest.approx(
            std_normal_cdf(-1.5 / math.sqrt(2.0)), abs=1e-15
        )

    def test_strictly_decreasing_in_eta(self):
        etas = np.linspace(0.0, 5.0, 100)
        errs = [se_error_gmm(e, params_for()) for e in etas]
        assert np.all(np.diff(errs) < 0)

    def test_finite_inputs_whose_squares_overflow(self):
        # a Python float's ** raises the built-in OverflowError
        with pytest.raises(DomainError, match="eta is too large"):
            se_error_gmm(1e160, params_for())
        state = SeStateGmm(m=1e160, sigma=1.0, gamma=1.5, alpha=2.0)
        with pytest.raises(DomainError, match="m is too large"):
            state.sigma_bar


class TestMaps:
    def test_opt_at_zero_matches_label_only_value(self):
        # F(0) = (gamma^2/alpha) E[g~(0, Yhat)^2], a pure four-atom sum
        params = FIG_MAP_PARAMS
        log_odds = math.log((1 - params.p) / params.p)
        prior = math.log(params.pi_plus / params.pi_minus)
        expected = sum(
            w * math.tanh(0.5 * (yhat * log_odds + prior)) ** 2
            for w, _y, yhat in label_atoms(params)
        ) * params.gamma**2 / params.alpha
        assert eta_map_opt(0.0, params) == pytest.approx(expected, abs=1e-12)
        assert eta_map_opt(0.0, params) > 0

    def test_opt_nondecreasing(self):
        params = FIG_MAP_PARAMS
        us = np.linspace(0, 10, 201)
        vals = [eta_map_opt(u, params) for u in us]
        assert np.all(np.diff(vals) >= -1e-10)

    def test_opt_limit_below_bound(self):
        params = FIG_MAP_PARAMS
        assert eta_map_opt(1e8, params) < params.gamma**2 / params.alpha

    def test_ft_at_zero(self):
        assert eta_map_ft(0.0, FIG_MAP_PARAMS) == 0.0

    def test_ct_at_zero_arithmetic(self):
        # (gamma^2/alpha) (1/2 - p)^2 / (1/2) with gamma=1.5, alpha=2, p=0.2
        params = params_for(p=0.2)
        assert eta_map_ct(0.0, params) == pytest.approx(1.125 * 0.09 / 0.5, abs=1e-12)

    def test_ft_large_u_limit(self):
        params = FIG_MAP_PARAMS
        expected = params.gamma**2 / params.alpha * (2 * std_normal_cdf(params.gamma) - 1) ** 2
        assert eta_map_ft(1e12, params) == pytest.approx(expected, abs=1e-9)

    def test_negative_u_rejected(self):
        with pytest.raises(DomainError):
            eta_map_opt(-0.1, FIG_MAP_PARAMS)

    @pytest.mark.parametrize("variant, beta", [("opt", None), ("identity", None),
                                               ("smoothed_ft", 5.0), ("smoothed_ct", 20.0),
                                               ("ft_limit", None), ("ct_limit", None)])
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_non_finite_or_negative_u_refused(self, variant, beta, bad):
        # a DomainError, not NaN or a RuntimeWarning, alone or among good points
        spec = SeMapSpec(variant, FIG_MAP_PARAMS, beta)
        for u in (bad, np.array([0.5, bad, 2.0])):
            with pytest.raises(DomainError, match="u must be non-negative and finite"):
                spec(u)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmap", [eta_map_opt, eta_map_ct])
    def test_u_whose_gamma_squared_product_overflows_refused(self, fmap):
        # gamma^2 * u is taken before the division by 1 + u: a DomainError where it
        # overflows, not a saturated value or a warning; the maps are flat long before
        huge = np.finfo(float).max / FIG_MAP_PARAMS.gamma**2 * 1.001
        for u in (huge, np.array([0.5, huge])):
            with pytest.raises(DomainError, match="gamma\\^2 \\* u overflows"):
                fmap(u, FIG_MAP_PARAMS)
        assert fmap(huge / 1.002, FIG_MAP_PARAMS) == fmap(1e16, FIG_MAP_PARAMS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opt_single_class_is_constant(self):
        # pi_plus in {0, 1}: the prior term is infinite, g~ = +-1 everywhere
        for pi_plus in (0.0, 1.0):
            for p in (0.0, 0.3):
                params = params_for(p=p, pi_plus=pi_plus)
                for u in (0.0, 0.5, 40.0):
                    assert eta_map_opt(u, params) == pytest.approx(
                        params.gamma**2 / params.alpha, abs=1e-12)

    def test_dominance_over_sharp_limits(self):
        for p in (0.1, 0.3):
            params = params_for(p=p)
            for u in np.linspace(0, 10, 50):
                fo = eta_map_opt(u, params)
                assert fo >= eta_map_ft(u, params) - 1e-9
                assert fo >= eta_map_ct(u, params) - 1e-9


class TestArrayMaps:
    """Every map takes an array of u in one call, each element with the bits
    of its own scalar call, from u = 0 (the point-mass channel) to 1e16."""

    GRID = np.concatenate([[0.0, 1e-12], np.geomspace(1e-6, 1e16, 97),
                           np.linspace(0.0, 9.0, 301)[1:]])

    @pytest.mark.parametrize("variant, beta", [
        ("identity", None), ("smoothed_ft", 5.0), ("smoothed_ft", 20.0), ("smoothed_ct", 5.0),
        ("smoothed_ct", 20.0), ("opt", None), ("ft_limit", None), ("ct_limit", None)])
    @pytest.mark.parametrize("p, pi_plus", [(0.3, 0.3), (0.0, 0.5), (0.2, 1.0)])
    def test_array_equals_scalar_calls(self, variant, beta, p, pi_plus):
        spec = SeMapSpec(variant, params_for(p=p, pi_plus=pi_plus), beta)
        values = spec(self.GRID)
        assert values.shape == self.GRID.shape
        assert np.array_equal(values, [spec(float(u)) for u in self.GRID])
        assert np.array_equal(spec(self.GRID.reshape(3, -1)), values.reshape(3, -1))
        assert isinstance(spec(0.5), float)

    @pytest.mark.parametrize("fmap", [eta_map_ft, eta_map_ct])
    def test_limit_maps_square_as_a_float_does(self, fmap):
        # at u 5.235 and 7.69 (ft) and 4.35 (ct) numpy's x*x of the squared
        # term is 1 ulp off the C pow of a float's **
        params = params_for(p=0.25)
        us = np.linspace(0.0, 8.0, 1601)
        assert np.array_equal(fmap(us, params), [fmap(float(u), params) for u in us])

    def test_constant_map_runs_in_blocks(self, monkeypatch):
        # one call of _class_moments per block of points, each block's arrays
        # within numerics._MAP_BLOCK_ELEMENTS
        calls = []
        moments = gmm_se._class_moments

        def counting(agg, m_bar, sigma_bar, params):
            calls.append(np.size(m_bar))
            return moments(agg, m_bar, sigma_bar, params)

        monkeypatch.setattr(gmm_se, "_class_moments", counting)
        spec = SeMapSpec("smoothed_ft", FIG_MAP_PARAMS, 20.0)
        spec(self.GRID)
        per_block = numerics._MAP_BLOCK_ELEMENTS // (2 * 2 * gmm_se.DEFAULT_ORDER)
        assert calls == [per_block] * (self.GRID.size // per_block) + [
            self.GRID.size % per_block]


class TestClassMoments:
    class Step:
        """g(u, yhat) = yhat * [u > 0], which jumps at its breakpoint 0."""

        y_breakpoints = (0.0,)

        def value_and_deriv(self, u, yhat):
            return yhat * (u > 0.0), np.zeros(np.shape(u))

    def test_two_classes_against_enumeration(self):
        # U | Y ~ N(m_bar*Y, sigma_bar^2), so P(U > 0 | Y) = Phi(m_bar*Y/sigma_bar)
        # (the jump needs the breakpoint); E[g^2] = P(U > 0) and, as the given
        # label is Y with probability 1 - p, E[g*Y] = (1 - 2p) P(U > 0)
        params = params_for(p=0.2, pi_plus=0.3)
        m_bar, sigma_bar = 0.9, 0.6
        e_gy, e_gg = gmm_se._class_moments(self.Step(), m_bar, sigma_bar, params)
        positive = (0.3 * std_normal_cdf(m_bar / sigma_bar)
                    + 0.7 * std_normal_cdf(-m_bar / sigma_bar))
        assert e_gg == pytest.approx(positive, abs=1e-12)
        assert e_gy == pytest.approx((1 - 2 * 0.2) * positive, abs=1e-12)


class TestFixedPoints:
    def test_synthetic_halving_map(self):
        assert find_fixed_points(lambda u: 0.5 * u, u_max=5.0) == [0.0]

    def test_opt_map_fixed_point(self):
        spec = SeMapSpec(variant="opt", params=FIG_MAP_PARAMS)
        roots = find_fixed_points(spec, u_max=10.0)
        assert roots
        u_star = roots[0]
        assert 0.0 < u_star < 10.0
        assert abs(spec(u_star) - u_star) <= 1e-8

    def test_cobweb_monotone_from_both_sides(self):
        spec = SeMapSpec(variant="opt", params=FIG_MAP_PARAMS)
        up = cobweb_trace(spec, 0.04, 10)
        us_up = [u for u, _ in up.points]
        assert us_up == sorted(us_up)
        down = cobweb_trace(spec, 1.0, 10)
        us_down = [u for u, _ in down.points]
        assert us_down == sorted(us_down, reverse=True)
        # both approach the same fixed point
        u_star = find_fixed_points(spec, u_max=10.0)[0]
        assert abs(us_up[-1] - u_star) <= 1e-3
        assert abs(us_down[-1] - u_star) <= 1e-3

    def test_cobweb_single_step(self):
        trace = cobweb_trace(lambda u: 0.5 * u + 1, 2.0, 1)
        assert trace.points == [(2.0, 2.0)]

    def test_cobweb_constant_at_fixed_point(self):
        spec = SeMapSpec(variant="opt", params=FIG_MAP_PARAMS)
        u_star = find_fixed_points(spec, u_max=10.0)[0]
        trace = cobweb_trace(spec, u_star, 6)
        assert all(abs(u - u_star) <= 1e-7 for u, _ in trace.points)

    def test_monotone_trajectory_below_fixed_point(self):
        spec = SeMapSpec(variant="opt", params=FIG_MAP_PARAMS)
        u_star = find_fixed_points(spec, u_max=10.0)[0]
        trace = cobweb_trace(spec, 0.5 * u_star, 15)
        us = [u for u, _ in trace.points]
        assert all(b >= a - 1e-12 for a, b in zip(us[:-1], us[1:]))


class TestCrossover:
    def test_reference_value(self):
        roots = find_crossover(params_for(p=0.25))
        assert roots
        assert roots[0] == pytest.approx(1.54, abs=0.05)

    def test_residual(self):
        params = params_for(p=0.25)
        u = find_crossover(params)[0]
        assert abs(eta_map_ct(u, params) - eta_map_ft(u, params)) <= 1e-6

    def test_no_crossover_without_noise(self):
        # at p=0 the consensus map dominates everywhere: no crossing
        assert find_crossover(params_for(p=0.0)) == []


class TestPStar:
    def test_interior_root(self):
        result = p_star(params_for())
        assert result.condition_met  # gamma^2 = 2.25 >= sqrt(pi) ~ 1.77
        assert 0.0 < result.value < 0.5
        assert abs(result.residual) <= 1e-10

    def test_endpoint_is_trivial_root(self):
        params = params_for()
        g2, alpha = params.gamma**2, params.alpha
        h_half = std_normal_cdf(-g2 * 0.0 / math.sqrt(g2 * 0.0 + alpha)) - 0.5
        assert h_half == 0.0

    def test_condition_flagging(self):
        weak = params_for(gamma=0.8, alpha=2.0)  # gamma^2 = 0.64 < sqrt(pi)
        assert not p_star(weak).condition_met

    def test_monotone_se_above_threshold(self):
        params = params_for()
        ps = p_star(params).value
        for p in np.linspace(ps, 0.49, 5):
            noisy = params_for(p=float(p))
            u = se_init_gmm(noisy).eta ** 2
            for _ in range(20):
                u_next = eta_map_opt(u, noisy)
                assert u_next >= u - 1e-12
                u = u_next


class TestSmoothedTrajectory:
    def test_beta_100_close_to_sharp_limit(self):
        params = GmmParams(gamma=1.5, alpha=0.8, p=0.2, pi_plus=0.3, n=100)
        agg = SmoothedFullRT(100.0)
        state = se_init_gmm(params)
        u = state.eta**2
        for _ in range(10):
            state = se_step_gmm(state, agg, params)
            u = eta_map_ft(u, params)
            err_smooth = se_error_gmm(state.eta, params)
            err_limit = se_error_gmm(math.sqrt(u), params)
            assert abs(err_smooth - err_limit) <= 0.01


class TestCobwebDivergence:
    def test_divergence_is_flagged(self):
        trace = cobweb_trace(lambda u: u * u * 1e308 + 1.0, 2.0, 6)
        assert trace.diverged
        assert len(trace.points) < 6

    @pytest.mark.parametrize("u1", [-1.0, math.nan, math.inf])
    def test_start_must_be_non_negative_and_finite(self, u1):
        with pytest.raises(DomainError):
            cobweb_trace(lambda u: 0.5 * u, u1, 3)


class TestSeMapSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SeMapSpec(variant="bogus", params=FIG_MAP_PARAMS)
        with pytest.raises(ConfigError):
            SeMapSpec(variant="smoothed_ft", params=FIG_MAP_PARAMS)

    def test_smoothed_spec_converges_to_limit(self):
        params = FIG_MAP_PARAMS
        f_sharp = SeMapSpec(variant="ft_limit", params=params)
        f_smooth = SeMapSpec(variant="smoothed_ft", params=params, beta=300.0)
        for u in (0.2, 1.0, 3.0):
            assert f_smooth(u) == pytest.approx(f_sharp(u), abs=5e-3)

    def test_identity_map_is_the_first_state(self):
        # the identity ignores the prediction, so every step re-enters state 1
        f = SeMapSpec(variant="identity", params=FIG_MAP_PARAMS)
        for u in (0.0, 0.5, 3.0):
            assert f(u) == pytest.approx(se_init_gmm(FIG_MAP_PARAMS).eta ** 2, abs=1e-12)

    def test_map_at_zero_is_the_point_mass(self):
        # at u = 0 the prediction is exactly 0: g = yhat (identity), yhat/2
        # (smoothed_ct) and 0 (smoothed_ft, whose E[g^2] vanishes)
        params = FIG_MAP_PARAMS
        expected = params.gamma**2 / params.alpha * (1 - 2 * params.p) ** 2
        for variant in ("identity", "smoothed_ct"):
            f = SeMapSpec(variant=variant, params=params, beta=20.0)
            assert abs(f(0.0) - expected) <= 1e-15
        assert SeMapSpec(variant="smoothed_ft", params=params, beta=20.0)(0.0) == 0.0

    def test_opt_trace_matches_map_iterates(self):
        params = FIG_MAP_PARAMS
        states, _ = se_states(ExperimentConfig(model="gmm", gamma=1.5, alpha=2.0, p=0.3,
                                               pi_plus=0.3, n=100, iterations=5))
        u = states[0].eta ** 2
        for state in states[1:]:
            u = eta_map_opt(u, params)
            assert state.eta**2 == pytest.approx(u, abs=1e-8)
