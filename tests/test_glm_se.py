import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from amp_retrain.errors import DomainError
from amp_retrain.glm import (
    _POSTERIOR_ROWS,
    GlmParams,
    LogisticLink,
    OptimalGlm,
    ProbitLink,
    SignLink,
    hat_h_p,
)
from amp_retrain.gmm import (
    IdentityAggregator,
    SmoothedConsensusRT,
    SmoothedFullRT,
    aggregator_from_name,
)
from amp_retrain.glm_se import (
    DEFAULT_ORDER,
    optimal_aggregator_for_state,
    se_error_glm,
    se_init_glm,
    se_step_glm_generic,
    se_step_glm_opt,
)
from amp_retrain.harness import ExperimentConfig, build_params, se_rows, se_states
from amp_retrain.numerics import gaussian_rule
from amp_retrain.retrain import AmpState, SeState, amp_step


class HalfLink:
    name = "half"
    discontinuities = ()
    noise_var = None

    def h(self, z, out=None, scratch=None):
        return np.full_like(np.asarray(z, dtype=float), 0.5)


class StepLink:
    name = "step"
    discontinuities = (0.0,)
    noise_var = None

    def h(self, z, out=None, scratch=None):
        return SignLink().h(z, out, scratch)


def sign_params(alpha=0.5, p=0.2, n=1000, gamma=1.0):
    return GlmParams(gamma=gamma, alpha=alpha, p=p, link=SignLink(), n=n)


def sign_states(iterations, alpha=0.5, p=0.2, n=1000, gamma=1.0):
    """Optimal-aggregation states 1..iterations of the sign_params problem."""
    config = ExperimentConfig(model="glm", gamma=gamma, alpha=alpha, p=p, link="sign",
                              n=n, iterations=iterations)
    return se_states(config)[0]


class TestInit:
    def test_sign_closed_form(self):
        state = se_init_glm(sign_params(alpha=2.0, p=0.2))
        assert state.eta == pytest.approx(0.3 * math.sqrt(2 / math.pi), abs=1e-15)
        assert state.sigma == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_sign_quadrature_cross_check(self):
        # the sign link's h under another type takes the quadrature path
        params = sign_params(alpha=2.0, p=0.2)
        quad = se_init_glm(replace(params, link=StepLink()))
        state = se_init_glm(params)
        assert quad.mu == pytest.approx(state.mu, abs=1e-10)
        assert quad.sigma == state.sigma

    def test_uninformative_gives_zero_mean(self):
        params = GlmParams(gamma=1.0, alpha=1.0, p=0.2, link=HalfLink(), n=100)
        assert se_init_glm(params).mu == pytest.approx(0.0, abs=1e-14)

    def test_logistic_init_positive(self):
        params = GlmParams(gamma=1.0, alpha=1.0, p=0.1, link=LogisticLink(), n=100)
        state = se_init_glm(params)
        assert state.mu > 0
        assert state.sigma == pytest.approx(1.0, abs=1e-15)


class TestOptStep:
    def test_uninformative_collapses(self):
        params = GlmParams(gamma=1.0, alpha=1.0, p=0.2, link=HalfLink(), n=100)
        assert se_step_glm_opt(0.5, params) == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_eta(self):
        with pytest.raises(DomainError):
            se_step_glm_opt(0.0, sign_params())

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_any_eta_not_positive_and_finite(self, bad):
        params = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=LogisticLink(), n=100)
        for eta in (bad, np.array([0.5, bad, 2.0])):
            with pytest.raises(DomainError, match="eta must be positive and finite"):
                se_step_glm_opt(eta, params)

    @pytest.mark.parametrize("link, gamma", [(LogisticLink(), 2.0), (ProbitLink(), 2.0),
                                             (SignLink(), 1.0)])
    def test_array_equals_scalar_calls(self, link, gamma):
        # each eta's rows of the batched rules and aggregators give it the bits
        # of its own step, from u = 1e-12 to u = 1e16; a float gives a float
        params = GlmParams(gamma=gamma, alpha=0.5, p=0.2, link=link, n=100)
        etas = np.sqrt(np.concatenate([[1e-12], np.geomspace(1e-6, 1e16, 45),
                                       np.linspace(0.05, 9.0, 20)]))
        values = se_step_glm_opt(etas, params)
        scalar = [se_step_glm_opt(float(eta), params) for eta in etas]
        assert all(isinstance(v, float) for v in scalar)
        assert np.array_equal(values, scalar)
        assert np.array_equal(se_step_glm_opt(etas.reshape(6, -1), params), values.reshape(6, -1))

    @pytest.mark.parametrize("link", [LogisticLink(), SignLink()])
    def test_eta_whose_state_overflows(self, link):
        # finite eta, but the prediction's variance mu^2*prior_var + sigma^2
        # overflows (a Python float's ** raises the built-in OverflowError)
        params = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=link, n=100)
        with pytest.raises(DomainError, match="too large"):
            se_step_glm_opt(1e78, params)
        # and states whose channel coefficients overflow
        for state in (SeState(mu=1e160, sigma=1.0), SeState(mu=1.0, sigma=1e160)):
            with pytest.raises(DomainError, match="too large"):
                optimal_aggregator_for_state(state, params)
        with pytest.raises(DomainError, match="eta is too large"):
            se_error_glm(1e160, params)

    @pytest.mark.parametrize("u", [1e20, 1e30, 1e100])
    def test_far_start_is_flat_or_refused(self, u):
        # the map is flat at large u; beyond the posterior precision its
        # quadrature resolves, the step raises rather than read 0.1197 (u 1e30)
        # or 2.3e65 (u 1e100)
        params = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=LogisticLink(), n=100)
        flat = se_step_glm_opt(math.sqrt(1e12), params) ** 2
        try:
            value = se_step_glm_opt(math.sqrt(u), params) ** 2
        except DomainError:
            return
        assert value == pytest.approx(flat, abs=1e-6)

    def test_sign_iteration_reaches_fixed_point(self):
        params = sign_params(alpha=0.5, p=0.2)
        eta = se_init_glm(params).eta
        for _ in range(40):
            eta = se_step_glm_opt(eta, params)
        assert se_step_glm_opt(eta, params) == pytest.approx(eta, abs=1e-6)

    def test_sign_map_nondecreasing_with_fixed_point(self):
        params = sign_params(alpha=0.5, p=0.2)
        us = np.linspace(0.01, 9.0, 40)
        vals = np.array([se_step_glm_opt(math.sqrt(u), params) ** 2 for u in us])
        assert np.all(np.diff(vals) >= -1e-9)
        # sign change of F(u) - u inside the scan confirms a fixed point
        resid = vals - us
        assert np.any(resid > 0) and np.any(resid < 0)


    @pytest.mark.parametrize("link, gamma", [(LogisticLink(), 2.0), (LogisticLink(), 10.0),
                                             (ProbitLink(), 2.0)])
    def test_map_flat_at_large_u(self, link, gamma):
        # the posterior mean is taken about the rule's centre, so g does not
        # cancel where u, and with it E[Z | u, yhat], is large
        params = GlmParams(gamma=gamma, alpha=0.5, p=0.2, link=link)
        opt_map = lambda u: se_step_glm_opt(math.sqrt(u), params) ** 2
        far = opt_map(1e8)
        for u in (1e12, 1e16):
            assert opt_map(u) == pytest.approx(far, abs=1e-6)


class TestGenericStep:
    def test_identity_variance(self):
        params = sign_params(alpha=0.5, p=0.2)
        state = se_init_glm(params)
        nxt = se_step_glm_generic(state, IdentityAggregator(), params)
        assert nxt.sigma**2 == pytest.approx(params.alpha, abs=1e-10)

    def test_identity_reenters_init(self):
        # the identity rule ignores predictions, so the state re-enters itself
        for link in (SignLink(), LogisticLink()):
            params = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=link, n=100)
            state = se_init_glm(params)
            nxt = se_step_glm_generic(state, IdentityAggregator(), params)
            assert nxt.mu == pytest.approx(state.mu, abs=1e-9)
            assert nxt.sigma == pytest.approx(state.sigma, abs=1e-9)

    def test_uninformative_gives_zero_mean(self):
        params = GlmParams(gamma=1.0, alpha=1.0, p=0.2, link=HalfLink(), n=100)
        state = SeState(mu=0.4, sigma=1.0)
        agg = OptimalGlm.from_se_state(state, params)
        nxt = se_step_glm_generic(state, agg, params)
        assert nxt.mu == pytest.approx(0.0, abs=1e-12)

    def test_matches_eta_recursion_from_init(self):
        # the init state is off the self-consistent slice, so the (mu, sigma)
        # route and the eta route parameterize the channel differently;
        # agreement is a genuine cross-check
        params = sign_params(alpha=0.5, p=0.2)
        state = se_init_glm(params)
        agg = optimal_aggregator_for_state(state, params)
        nxt = se_step_glm_generic(state, agg, params)
        assert nxt.eta == pytest.approx(se_step_glm_opt(state.eta, params), abs=1e-8)

    def test_bayes_relation_on_optimal_steps(self):
        params = sign_params(alpha=0.5, p=0.2)
        state = se_init_glm(params)
        for _ in range(3):
            agg = optimal_aggregator_for_state(state, params)
            state = se_step_glm_generic(state, agg, params)
            assert state.sigma**2 == pytest.approx(params.alpha * state.mu, abs=1e-8)

    def test_logistic_optimal_consistency(self):
        params = GlmParams(gamma=1.0, alpha=1.0, p=0.1, link=LogisticLink(), n=100)
        state = se_init_glm(params)
        agg = optimal_aggregator_for_state(state, params)
        nxt = se_step_glm_generic(state, agg, params)
        assert nxt.eta == pytest.approx(se_step_glm_opt(state.eta, params), abs=1e-8)


class TestSmoothedAggregators:
    def test_label_blind_full_retraining_carries_no_signal(self):
        # g(u) ignores the label and (Z, Z_t) is Gaussian, so E[Z | Z_t] is
        # linear with (1/prior_var + a) * E[Z | Z_t] = b * Z_t, and
        # mu' = E[g(Z_t) * ((1/prior_var + a) * E[Z | Z_t] - b * Z_t)] = 0
        for link in (SignLink(), LogisticLink(), ProbitLink()):
            params = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=link, n=100)
            for beta in (5.0, 20.0):
                nxt = se_step_glm_generic(se_init_glm(params), SmoothedFullRT(beta), params)
                assert nxt.mu == 0.0, (link, beta, nxt.mu)

    @pytest.mark.parametrize("link, gamma, alpha, p, beta", [("probit", 8.0, 0.05, 0.1, 5.0),
                                                              ("logistic", 2.0, 0.5, 0.2, 20.0)])
    def test_label_blind_trace_is_exactly_chance(self, link, gamma, alpha, p, beta):
        # from step 2 on, eta is 0 and the predicted error 1/2 exactly, not
        # rounding noise about them (eta -4.2e-17, error 0.5000000000000001)
        config = ExperimentConfig(model="glm", link=link, gamma=gamma, alpha=alpha, p=p, n=100,
                                  iterations=6, aggregator="smoothed_ft", beta=beta)
        assert [row[1:] for row in se_rows(config, "smoothed_ft")[1:]] == [(0.0, 0.5)] * 5

    def test_consensus_resolved_at_default_order(self):
        # reference E[g^2] for g = yhat * sigmoid(beta * u * yhat): the latent
        # margin on an order-201 rule, the prediction given it by adaptive
        # integration split at g's transition
        params = sign_params(alpha=0.5, p=0.2)
        state = se_init_glm(params)
        beta = 20.0
        z, zw = gaussian_rule(0.0, math.sqrt(params.prior_var), (0.0,), 201)
        total = 0.0
        for zi, wi in zip(z, zw):
            cut = -state.mu * zi / state.sigma
            hp = float(hat_h_p(zi, params.link, params.p))
            for lab, weight in ((1.0, hp), (-1.0, 1.0 - hp)):
                def f(g):
                    u = state.mu * zi + state.sigma * g
                    return expit(beta * u * lab) ** 2 * math.exp(-0.5 * g * g)
                inner = sum(integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                            for lo, hi in ((-14.0, cut), (cut, 14.0)))
                total += wi * weight * inner / math.sqrt(2.0 * math.pi)
        nxt = se_step_glm_generic(state, SmoothedConsensusRT(beta), params)
        assert nxt.sigma == pytest.approx(math.sqrt(params.alpha * total), abs=1e-5)


class TestMonteCarloFixture:
    def test_quadrature_matches_frozen_monte_carlo(self):
        # regression fixture: 1e7-sample Monte Carlo of the squared-aggregator
        # expectation at (sign link, alpha=0.5, p=0.2, eta=eta_1), draws from
        # stream (987654321, 0); frozen value and its delta-method sd below
        MC_ETA2 = 1.0070486180292595
        MC_SD = 8.47e-05
        params = sign_params(alpha=0.5, p=0.2)
        eta2 = se_step_glm_opt(se_init_glm(params).eta, params)
        assert abs(eta2 - MC_ETA2) <= 4 * MC_SD


class TestTrajectories:
    def test_dual_route_consistency_over_ten_steps(self):
        params = sign_params(alpha=0.5, p=0.2)
        states = sign_states(alpha=0.5, p=0.2, iterations=10)
        eta = states[0].eta
        for state in states[1:]:
            eta = se_step_glm_opt(eta, params)
            assert state.eta == pytest.approx(eta, abs=1e-8)

    def test_sign_scale_invariance(self):
        a = sign_states(gamma=1.0, iterations=5)
        b = sign_states(gamma=2.0, iterations=5)
        for sa, sb in zip(a, b):
            assert sa.eta == pytest.approx(sb.eta, abs=1e-12)


class TestErrorPrediction:
    def test_chance_level_every_link(self):
        for link in (SignLink(), LogisticLink(), ProbitLink()):
            params = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=link, n=100)
            assert se_error_glm(0.0, params) == pytest.approx(0.5, abs=1e-10)

    def test_sign_perfect_limit(self):
        assert se_error_glm(1e9, sign_params()) <= 1e-6

    def test_sign_quarter_point(self):
        # eta = sqrt(1/alpha): rho = 1/sqrt(2), arccos gives exactly 1/4
        params = sign_params(alpha=2.0)
        assert se_error_glm(math.sqrt(0.5), params) == pytest.approx(0.25, abs=1e-12)

    def test_strictly_decreasing(self):
        params = sign_params(alpha=0.5)
        etas = np.linspace(0, 4, 50)
        errs = [se_error_glm(float(e), params) for e in etas]
        assert np.all(np.diff(errs) < 0)


@dataclass(frozen=True)
class CountingLink(LogisticLink):
    """Logistic link that records the size of every h evaluation."""

    sizes: ClassVar[list] = []

    def h(self, z, out=None, scratch=None):
        CountingLink.sizes.append(int(np.size(z)))
        return super().h(z, out, scratch)


def counting_params():
    params = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=CountingLink(), n=100)
    CountingLink.sizes.clear()
    return params


class TestLinkEvaluations:
    # one posterior rule and one link evaluation serve both labels, the value
    # and the derivative, and the SE's g*, its label probability and the
    # scheduled aggregator; the prediction's rule needs no link evaluation
    K, INNER = DEFAULT_ORDER, 61

    def test_opt_map_step(self):
        params = counting_params()
        se_step_glm_opt(0.8, params)
        assert CountingLink.sizes == [self.K * self.INNER]

    def test_opt_map_of_an_array(self):
        # the matched aggregators of 3 eta share one posterior block
        params = counting_params()
        se_step_glm_opt(np.array([0.4, 0.8, 1.6]), params)
        assert CountingLink.sizes == [3 * self.K * self.INNER]

    def test_generic_opt_step(self):
        params = counting_params()
        state = se_init_glm(params)
        CountingLink.sizes.clear()
        se_step_glm_generic(state, optimal_aggregator_for_state(state, params), params)
        assert CountingLink.sizes == [self.K * self.INNER]

    def test_generic_step_of_another_aggregator(self):
        params = counting_params()
        state = se_init_glm(params)
        for agg in (IdentityAggregator(), SmoothedConsensusRT(5.0)):
            CountingLink.sizes.clear()
            se_step_glm_generic(state, agg, params)
            pieces = len(agg.y_breakpoints) + 1
            assert CountingLink.sizes == [pieces * self.K * self.INNER]

    def amp_step_sizes(self, n):
        params = counting_params()
        y_soft = np.linspace(-3.0, 3.0, n)
        y_noisy = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
        X = np.random.default_rng(0).standard_normal((n, 20)) / math.sqrt(n)
        agg = OptimalGlm.from_eta(0.8, params)
        CountingLink.sizes.clear()
        amp_step(AmpState(w=np.ones(20), y_soft=y_soft, t=1), X, y_noisy, 1.0, agg)
        return CountingLink.sizes

    def test_amp_step_once_per_row_block(self):
        # both labels in one evaluation
        assert self.amp_step_sizes(40) == [40 * self.INNER]

    def test_amp_step_once_per_row_block_on_threads(self, usable_cpus):
        # the helper threads append in any order
        usable_cpus(2)
        n = 2 * _POSTERIOR_ROWS + 300
        blocks = [300, _POSTERIOR_ROWS, _POSTERIOR_ROWS]
        assert sorted(self.amp_step_sizes(n)) == [rows * self.INNER for rows in blocks]


def old_generic_step(state, agg, params, order):
    """The generic step on a (latent margin, prediction) grid of ``order``
    nodes per axis, as prefac * E[Z | u, yhat] - b * u against g, with the
    posterior mean by its own quadrature at order 61."""
    quad_a = (state.mu / state.sigma) ** 2
    lin_b = state.mu / state.sigma**2
    prefac = 1.0 / params.prior_var + quad_a
    s2 = 1.0 / (quad_a + 1.0 / params.prior_var)
    z, zw = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities, order)
    mu = e_gg = 0.0
    # a few latent nodes at a time bound the (prediction, posterior node) arrays
    for rows in np.array_split(np.arange(z.size), max(1, z.size // 16)):
        u, uw = gaussian_rule(state.mu * z[rows], state.sigma, agg.y_breakpoints, order)
        hp = hat_h_p(z[rows], params.link, params.p)[:, None]
        w2 = zw[rows, None] * uw
        nodes, weights = gaussian_rule(lin_b * s2 * u.ravel(), math.sqrt(s2),
                                       params.link.discontinuities, 61)
        dot = np.matmul if weights.ndim == 1 else np.vecdot
        h_nodes = hat_h_p(nodes, params.link, params.p)
        for lab, weight in ((1.0, hp), (-1.0, 1.0 - hp)):
            f = h_nodes if lab > 0 else 1.0 - h_nodes
            mean = (dot(f * nodes, weights) / dot(f, weights)).reshape(u.shape)
            g = agg.value_and_deriv(u, lab)[0]
            mu += np.sum(w2 * weight * ((prefac * mean - lin_b * u) * g))
            e_gg += np.sum(w2 * weight * g ** 2)
    return float(mu), math.sqrt(params.alpha * float(e_gg))


class TestMeanUpdateIsTheMatchedAggregator:
    # the probit case is a steep link: Phi(2z) at gamma 1.5 is Phi(z) at gamma 3
    @pytest.mark.parametrize("link,gamma", [(SignLink(), 1.5), (LogisticLink(), 1.5),
                                            (ProbitLink(), 3.0)],
                             ids=["sign", "logistic", "probit"])
    @pytest.mark.parametrize("name", ["opt", "identity", "smoothed_ft", "smoothed_ct"])
    def test_against_the_posterior_mean_formula(self, link, gamma, name):
        params = GlmParams(gamma=gamma, alpha=0.5, p=0.2, link=link, n=100)
        state = se_init_glm(params)
        for _ in range(2):
            agg = aggregator_from_name(name, 5.0) or optimal_aggregator_for_state(state, params)
            new = se_step_glm_generic(state, agg, params)
            mu, sigma = old_generic_step(state, agg, params, order=201)
            assert abs(new.mu - mu) <= 1e-12 and abs(new.sigma - sigma) <= 1e-12
            state = new


def reference_step(state, agg, params, order=82):
    """se_step_glm_generic on a finer (latent margin, prediction) grid."""
    star = optimal_aggregator_for_state(state, params)
    z, zw = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities, order)
    u, uw = gaussian_rule(state.mu * z, state.sigma, agg.y_breakpoints, order)   # a row per z
    q, w = hat_h_p(z, params.link, params.p)[:, None], zw[:, None] * uw
    star_plus, star_minus, _ = star.label_values(u)
    g_plus, g_minus = (agg.value_and_deriv(u, lab)[0] for lab in (1.0, -1.0))
    mu = np.sum(w * (q * star_plus * g_plus + (1 - q) * star_minus * g_minus))
    e_gg = np.sum(w * (q * g_plus**2 + (1 - q) * g_minus**2))
    return SeState(mu=float(mu), sigma=math.sqrt(params.alpha * e_gg))


class TestFixedOrdersResolveTheTrace:
    # the quadrature orders are fixed, so each trace is checked against one
    # computed on an 82-point 2-D grid from a first state on an order-301 rule
    @pytest.mark.parametrize("link", ["sign", "logistic", "probit"])
    @pytest.mark.parametrize("name,beta", [("opt", None), ("identity", None),
                                           ("smoothed_ft", 5.0), ("smoothed_ct", 5.0),
                                           ("smoothed_ft", 20.0), ("smoothed_ct", 20.0)])
    def test_against_an_82_point_grid(self, link, name, beta):
        config = ExperimentConfig(model="glm", link=link, gamma=2.0, alpha=0.5, p=0.2, n=100,
                                  iterations=8, aggregator=name, beta=beta)
        states, _ = se_states(config)
        params = build_params(config)
        z, zw = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities, 301)
        mu1 = 2.0 / params.prior_var * float((z * hat_h_p(z, params.link, params.p)) @ zw)
        ref = SeState(mu=mu1, sigma=math.sqrt(params.alpha))
        assert abs(states[0].eta - ref.eta) <= 1e-12
        for state in states[1:]:
            agg = aggregator_from_name(name, beta) or optimal_aggregator_for_state(ref, params)
            ref = reference_step(ref, agg, params)
            assert abs(state.eta - ref.eta) <= 1e-12
