"""Theory values against high-precision mpmath references.

The sign link (noise_var 0) and the probit link (noise_var 1) share one
closed-form aggregator, error curve and first state-evolution state; the
logistic link has the quadrature error curve, first state and
state-evolution step, and the mixture the optimal map and state-evolution
step, both by quadrature, and the crossover roots and threshold p* of its
sharp-limit maps.  Each tolerance is pinned from the largest gap measured on
these points (quoted beside it).  The quadrature references run at 20 or 25
digits, the closed form and its numerical derivative at 40.
"""

import math

import numpy as np
import pytest

from amp_retrain.glm import (GlmParams, LogisticLink, OptimalGlm, OptimalSign, ProbitLink,
                              SignLink, _error_from_overlap)
from amp_retrain.glm_se import se_init_glm, se_step_glm_generic
from amp_retrain.gmm import GmmParams, OptimalGmm, _channel
from amp_retrain.gmm_se import eta_map_opt, find_crossover, p_star, se_init_gmm, se_step_gmm
from amp_retrain.retrain import SeState

mp = pytest.importorskip("mpmath")

# (noise_var, link, gamma, alpha): gamma is 1 for the sign link, which ignores it
CHANNELS = [(0.0, SignLink(), 1.0, 0.5), (1.0, ProbitLink(), 2.0, 0.5)]


@pytest.fixture(autouse=True)
def precision():
    with mp.workdps(20):
        yield


def closed_form_g(agg, u, yhat):
    """g(u, yhat) = (1-2p)*yhat*phi(r) / (s_eff*(p + (1-2p)*Phi(yhat*r))) in mpmath."""
    s2 = 1 / (1 / mp.mpf(agg.prior_var) + mp.mpf(agg.quad_a))
    s_eff = mp.sqrt(s2 + agg.link.noise_var)
    r = mp.mpf(agg.lin_b) * s2 * mp.mpf(u) / s_eff
    p = mp.mpf(agg.p)
    return (1 - 2 * p) * yhat * mp.npdf(r) / (s_eff * (p + (1 - 2 * p) * mp.ncdf(yhat * r)))


def posterior_g(agg, u, yhat):
    """g = (E[Z | u, yhat] - m)/s^2 from the posterior N(m, s^2) * P(yhat | z) by
    quadrature, with P(+1 | z) = p + (1-2p)*Phi(z/tau)."""
    s = mp.sqrt(1 / (1 / mp.mpf(agg.prior_var) + mp.mpf(agg.quad_a)))
    m = mp.mpf(agg.lin_b) * s * s * mp.mpf(u)
    p, tau = mp.mpf(agg.p), mp.sqrt(agg.link.noise_var)

    def weight(x):   # x = (z - m)/s
        return mp.npdf(x) * (p + (1 - 2 * p) * mp.ncdf(yhat * (m + s * x) / tau))

    den = mp.quad(weight, [-mp.inf, 0, mp.inf])
    return mp.quad(lambda x: x * weight(x), [-mp.inf, 0, mp.inf]) / (den * s)


@pytest.mark.parametrize("noise_var, link, gamma, alpha", CHANNELS, ids=["sign", "probit"])
@pytest.mark.parametrize("p", [0.0, 0.2, 0.45])
def test_aggregator_value_and_derivative(noise_var, link, gamma, alpha, p):
    # t = yhat*r from deep in the tail where the label contradicts the
    # prediction (t <= -8: the erfcx form and the continued fraction at p = 0)
    # to confident agreement.  Where g ~ exp(-t^2/2) its relative condition
    # number in u is about t^2, so each gap is measured in units of 1 + t^2;
    # at p > 0, t = -40 is left out, as g underflows there.
    params = GlmParams(gamma=gamma, alpha=alpha, p=p, link=link, n=100)
    points = (-40.0,) * (p == 0.0) + (-20.0, -10.0, -8.5, -8.0, -7.5, -3.0, -1.0, 0.0, 0.5,
                                      2.0, 5.0, 8.0, 20.0)
    worst_g = worst_dg = 0.0
    for eta in (0.5, 3.0):
        agg = OptimalSign.from_eta(eta, params)
        s2 = 1.0 / (1.0 / agg.prior_var + agg.quad_a)
        r_per_u = agg.lin_b * s2 / math.sqrt(s2 + noise_var)
        for yhat in (1.0, -1.0):
            for t in points:
                u = yhat * t / r_per_u
                g, dg = agg.value_and_deriv(u, yhat)
                with mp.workdps(40):
                    g_ref = closed_form_g(agg, u, yhat)
                    dg_ref = mp.diff(lambda x: closed_form_g(agg, x, yhat), mp.mpf(u))
                worst_g = max(worst_g, float(abs((g - g_ref) / g_ref)) / (1.0 + t * t))
                worst_dg = max(worst_dg, float(abs((dg - dg_ref) / dg_ref)) / (1.0 + t * t))
    # measured: at most 3.6e-16 (g) and 6.2e-16 (dg/du, at t = -1) relative per
    # unit of 1 + t^2; the largest raw gap is 9.7e-14 (t = +-20, probit)
    assert worst_g <= 1e-15
    assert worst_dg <= 1e-15


def test_probit_closed_form_is_the_posterior_aggregator():
    worst = 0.0
    for p in (0.0, 0.2):
        params = GlmParams(gamma=2.0, alpha=0.5, p=p, link=ProbitLink(), n=100)
        agg = OptimalSign.from_eta(0.8, params)
        for u, yhat in ((-2.0, 1.0), (0.5, -1.0), (4.0, -1.0)):
            g_ref = posterior_g(agg, u, yhat)
            worst = max(worst, float(abs((agg.value_and_deriv(u, yhat)[0] - g_ref) / g_ref)))
    # measured: 1.2e-15 relative (u = 4, yhat = -1, p = 0.2: yhat*r = -5.1)
    assert worst <= 2e-15


def threshold_error(rho, prior_var, noise_var):
    """P(sign(U) != sign(Z + xi)) at overlap rho of U with the margin Z, by
    quadrature: 2*E[Phi(-c*Z')*P(Z + xi > 0 | Z')] over the standardized
    margin Z', c = rho/sqrt(1-rho^2), in the variable x = c*Z'."""
    rho = mp.mpf(rho)
    c = rho / mp.sqrt(1 - rho * rho)
    if c == 0:
        return mp.mpf(0.5)
    if noise_var == 0.0:
        return 2 / c * mp.quad(lambda x: mp.npdf(x / c) * mp.ncdf(-x), [0, mp.inf])
    a = mp.sqrt(prior_var / noise_var) / c
    return 2 / c * mp.quad(lambda x: mp.npdf(x / c) * mp.ncdf(-x) * mp.ncdf(a * x),
                           [-mp.inf, 0, mp.inf])


@pytest.mark.parametrize("link, gamma, alpha", [(SignLink(), 1.0, 0.5), (ProbitLink(), 2.0, 0.5),
                                                (ProbitLink(), 8.0, 0.05)],
                         ids=["sign", "probit", "probit-steep"])
def test_error_curve(link, gamma, alpha):
    params = GlmParams(gamma=gamma, alpha=alpha, p=0.2, link=link, n=100)
    worst = 0.0
    for rho in (0.0, 0.3, 0.9, 0.999, 1.0 - 1e-8):
        ref = threshold_error(rho, params.prior_var, link.noise_var)
        worst = max(worst, float(abs(_error_from_overlap(rho, params) - ref)))
    # measured: 6.6e-17 absolute
    assert worst <= 1.5e-16


def test_logistic_error_curve_near_overlap_one():
    # E_Z[Phi(c*Z)*(1 - h(s*Z)) + Phi(-c*Z)*h(s*Z)], c = rho/sqrt(1-rho^2), whose
    # Phi(c*Z) nears a step at 0 as rho nears 1
    params = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=LogisticLink(), n=100)
    s = math.sqrt(params.alpha) * params.gamma
    worst = 0.0
    with mp.workdps(25):
        for rho in (0.0, 0.83, 0.9, 0.99, 0.99999, 1.0 - 1e-8, 1.0 - 1e-14, 1.0 - 4e-15,
                    1.0 - 2.2e-16):
            c = mp.mpf(rho) / mp.sqrt(1 - mp.mpf(rho) ** 2)

            def f(z):
                h = 1 / (1 + mp.exp(-s * z))
                return mp.npdf(z) * (mp.ncdf(c * z) * (1 - h) + mp.ncdf(-c * z) * h)

            ref = mp.quad(f, [-mp.inf, 0, mp.inf] if c == 0 else
                          [-mp.inf, -8 / c, 0, 8 / c, mp.inf])
            worst = max(worst, float(abs(_error_from_overlap(rho, params) - ref)))
    # measured: 7.7e-16 absolute (rho 0.99999); 0.16.0's unsplit Hermite rule
    # was off by 1.8e-10 at rho 0.9 and 3.8e-3 at 1 - 1e-8
    assert worst <= 1e-15


@pytest.mark.parametrize("gamma, alpha, p", [(2.0, 0.5, 0.2), (3.0, 0.1, 0.0), (8.0, 0.05, 0.1),
                                             (0.5, 2.0, 0.45)])
def test_probit_first_state(gamma, alpha, p):
    params = GlmParams(gamma=gamma, alpha=alpha, p=p, link=ProbitLink(), n=100)
    S = mp.sqrt(params.prior_var)
    # mu_1 = (2/prior_var) * E[Z * hhat_p(Z)], Z = S*x ~ N(0, prior_var)
    mu1 = 2 / S * mp.quad(lambda x: x * mp.npdf(x) * (p + (1 - 2 * mp.mpf(p)) * mp.ncdf(S * x)),
                          [-mp.inf, 0, mp.inf])
    state = se_init_glm(params)
    # measured: 1.8e-16 relative
    assert float(abs((state.mu - mu1) / mu1)) <= 4e-16
    assert state.sigma == math.sqrt(alpha)
    assert np.isfinite(state.eta)


@pytest.mark.parametrize("gamma, alpha, p, tol", [
    # measured: at most 1.3e-16 relative
    (2.0, 0.5, 0.2, 1e-15), (10.0, 0.02, 0.1, 1e-15), (0.5, 2.0, 0.45, 1e-15), (3.0, 0.1, 0.0, 1e-15),
    # the margin's sd is 14 and 100 link widths; measured 1.06e-15 and 4.9e-16
    # (an unsplit Hermite rule, which missed the link's turn, read 3.7e-4 and 3.9e-3)
    (20.0, 0.5, 0.2, 2e-15), (100.0, 1.0, 0.2, 1e-15)])
def test_logistic_first_state(gamma, alpha, p, tol):
    params = GlmParams(gamma=gamma, alpha=alpha, p=p, link=LogisticLink(), n=100)
    S, p = mp.sqrt(params.prior_var), mp.mpf(p)
    # mu_1 = (2/prior_var) * E[Z * hhat_p(Z)], Z = S*x ~ N(0, prior_var)
    mu1 = 2 / S * mp.quad(lambda x: x * mp.npdf(x) * (p + (1 - 2 * p) / (1 + mp.exp(-S * x))),
                          [-mp.inf, -8 / S, 0, 8 / S, mp.inf])
    assert float(abs((se_init_glm(params).mu - mu1) / mu1)) <= tol


def legendre_pieces(a, b, pieces, order=32):
    """(node, weight) pairs of the order-point Gauss-Legendre rule on each of
    ``pieces`` equal pieces of [a, b]."""
    x, w = mp.gauss_quadrature(order, "legendre")
    h = mp.mpf(b - a) / pieces
    return [(a + h * (j + (xk + 1) / 2), wk * h / 2) for j in range(pieces) for xk, wk in zip(x, w)]


def logistic_e_gstar2(mu, sigma, params):
    """E[g*^2] for the aggregator matched to the state (mu, sigma), the logistic link.

    U = mu*Z + sigma*G ~ N(0, mu^2*prior_var + sigma^2), and Z | U = u is
    N(m, s^2) with m = (mu/sigma^2)*s^2*u.  With f(z) = p + (1-2p)*h(z),
    q = E[f(m + s*X)] = P(+1 | u) and a = E[X*f(m + s*X)], g* is a/(s*q) at
    label +1 and -a/(s*(1-q)) at -1, so E[g*^2 | u] = (a/s)^2*(1/q + 1/(1-q)),
    which is even in u.  Fixed Legendre rules on [-10, 10] (X) and [0, 10] (U/sd);
    at these states they agree with nested adaptive mp.quad to 2e-19."""
    mu, sigma, prior, p = (mp.mpf(v) for v in (mu, sigma, params.prior_var, params.p))
    s = 1 / mp.sqrt(1 / prior + (mu / sigma) ** 2)
    m_per_v = mu / sigma**2 * s * s * mp.sqrt(mu * mu * prior + sigma * sigma)
    inner = [(x, w * mp.npdf(x)) for x, w in legendre_pieces(-10, 10, 4)]
    total = mp.mpf(0)
    for v, wv in legendre_pieces(0, 10, 2):
        q = a = mp.mpf(0)
        for x, wx in inner:
            f = p + (1 - 2 * p) / (1 + mp.exp(-(m_per_v * v + s * x)))
            q += wx * f
            a += wx * x * f
        total += 2 * wv * mp.npdf(v) * (a / s) ** 2 * (1 / q + 1 / (1 - q))
    return total


@pytest.mark.parametrize("mu, sigma, tol", [
    (0.05, 0.7, 4e-13),   # eta 0.07; measured: 1.7e-13 relative
    (4.0, 1.0, 3e-15)],   # eta 4, overlap 0.985; measured: 1.2e-15
    ids=["low-snr", "high-snr"])
def test_logistic_step(mu, sigma, tol):
    # mu' = E[g*^2] and sigma'^2 = alpha*E[g*^2] with the matched aggregator
    params = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=LogisticLink(), n=100)
    state = SeState(mu=mu, sigma=sigma)
    nxt = se_step_glm_generic(state, OptimalGlm.from_se_state(state, params), params)
    e_gg = logistic_e_gstar2(mu, sigma, params)
    assert float(abs((nxt.mu - e_gg) / e_gg)) <= tol
    assert float(abs(nxt.sigma / mp.sqrt(params.alpha * e_gg) - 1)) <= tol


def mixture_e_gg(m_bar, sigma_bar, p, pi_plus):
    """E[g^2] for the posterior mean g = E[Y | U, Yhat], U = m_bar*Y + sigma_bar*X,
    over the classes Y = +-1 (weights pi_plus, 1 - pi_plus) and the given
    label (Y with probability 1 - p); E[g*Y] is the same number."""
    m_bar, sigma_bar, p, pp = (mp.mpf(v) for v in (m_bar, sigma_bar, p, pi_plus))
    total = mp.mpf(0)
    for y, weight in ((1, pp), (-1, 1 - pp)):
        for yhat in (1, -1):
            flip = {c: 1 - p if c == yhat else p for c in (1, -1)}   # P(yhat | class c)

            def integrand(x):
                u = m_bar * y + sigma_bar * x
                a, b = ((pp if c == 1 else 1 - pp) * flip[c]
                        * mp.exp(-(u - c * m_bar) ** 2 / (2 * sigma_bar**2)) for c in (1, -1))
                return mp.npdf(x) * ((a - b) / (a + b)) ** 2

            total += weight * flip[y] * mp.quad(integrand, [-mp.inf, 0, mp.inf])
    return total


@pytest.mark.parametrize("gamma, alpha, p, pi_plus, map_gaps, step_gap", [
    # measured: 2.0e-14 relative at u 3, 4.1e-13 at u 1000; the step 7.7e-18
    (1.5, 2.0, 0.2, 0.3, {0.3: 5e-14, 3.0: 5e-14, 20.0: 5e-14, 1000.0: 1e-12}, 2e-16),
    # measured: 2.7e-13 at u 1, 1.4e-10 at u 20; the step 3.3e-16
    (2.0, 0.5, 0.45, 0.5, {1.0: 6e-13, 20.0: 3e-10}, 1e-15)])
def test_mixture_opt_map_and_step(gamma, alpha, p, pi_plus, map_gaps, step_gap):
    # the opt map's reduced channel has m_bar = sigma_bar^2 = gamma^2*u/(1+u),
    # and F(u) = (gamma^2/alpha)*E[g^2]; the step from the first state has
    # mu' = (gamma/sqrt(alpha))*E[g*Y] and sigma'^2 = E[g^2]
    params = GmmParams(gamma=gamma, alpha=alpha, p=p, pi_plus=pi_plus, n=100)
    for u, tol in map_gaps.items():
        s2 = mp.mpf(gamma) ** 2 * u / (1 + mp.mpf(u))
        ref = mp.mpf(gamma) ** 2 / alpha * mixture_e_gg(s2, mp.sqrt(s2), p, pi_plus)
        assert float(abs((eta_map_opt(u, params) - ref) / ref)) <= tol, u
    state = se_init_gmm(params)
    nxt = se_step_gmm(state, OptimalGmm.from_se_state(state, params), params)
    e_gg = mixture_e_gg(*_channel(state, params), p, pi_plus)
    mu_ref = mp.mpf(gamma) / mp.sqrt(alpha) * e_gg
    assert float(abs((nxt.mu - mu_ref) / mu_ref)) <= step_gap
    assert float(abs((nxt.sigma - mp.sqrt(e_gg)) / mp.sqrt(e_gg))) <= step_gap


def test_acceptance_crossovers_and_p_star():
    # acceptance 03's roots of F_ct(u) - F_ft(u) and criterion 10's p*, both on
    # gamma 1.5, alpha 2, pi_plus 0.3; the maps' closed forms in mpmath
    g2, alpha = mp.mpf(1.5) ** 2, mp.mpf(2)

    def ct_minus_ft(u, p):
        phi = mp.ncdf(mp.sqrt(g2 * u / (1 + u)))
        return g2 / alpha * ((phi - p) ** 2 / (p + (1 - 2 * p) * phi) - (2 * phi - 1) ** 2)

    # measured: 2.9e-14, 9.2e-16 and 9.0e-16 absolute, the roots bisected to
    # adjacent floats of the maps' rounded difference
    for p, tol in ((0.2, 6e-14), (0.25, 2e-15), (0.3, 2e-15)):
        roots = find_crossover(GmmParams(gamma=1.5, alpha=2.0, p=p, pi_plus=0.3, n=100))
        ref = mp.findroot(lambda u: ct_minus_ft(u, mp.mpf(p)), roots[0])
        assert len(roots) == 1 and float(abs(roots[0] - ref)) <= tol, p

    def threshold(p):
        one_m = 1 - 2 * p
        return mp.ncdf(-g2 * one_m / mp.sqrt(g2 * one_m**2 + alpha)) - p

    got = p_star(GmmParams(gamma=1.5, alpha=2.0, p=0.3, pi_plus=0.3, n=100)).value
    # measured: 9.6e-13 absolute (the bisection's tolerance is 1e-12)
    assert float(abs(got - mp.findroot(threshold, got))) <= 2e-12
