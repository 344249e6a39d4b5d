"""Deterministic state evolution for the generalized-linear retraining loop.

Tracks the state (mu_t, sigma_t) (:class:`amp_retrain.retrain.SeState`), the
law of the soft predictions Z_t = mu_t*Z + sigma_t*G with Z the latent margin,
and predicts the test error through the signal-to-noise ratio
eta_t = mu_t/sigma_t.  The Gaussian-threshold links (sign, probit) admit closed
forms; for the logistic link the mean update integrates the quadrature optimal
aggregator matched to the state against the scheduled one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .glm import GlmParams, OptimalGlm, OptimalSign, _error_from_overlap, hat_h_p
from .numerics import _SPLIT_HALF_WIDTH, _map_blocks, _square, gaussian_rule
from .retrain import SeState

# Quadrature order of the first state's rule over the latent margin and of
# each step's rule over the prediction; the posterior rule's is glm.ORDER.
DEFAULT_ORDER = 201


def se_init_glm(params: GlmParams) -> SeState:
    """State after the identity first step: sigma_1 = sqrt(alpha).

    A Gaussian-threshold link has the closed form eta_1 = (1-2p)*sqrt(2/pi)/alpha
    * sqrt(alpha/(prior_var + noise_var)), the last factor 1.0 for sign; other links
    evaluate mu_1 = (2/prior_var) * E[Z * hhat_p(Z)], Z ~ N(0, prior_var), by quadrature
    of :data:`DEFAULT_ORDER` nodes per piece of a rule split at 0 and at +-8.
    """
    sigma1 = math.sqrt(params.alpha)
    if params.link.noise_var is not None:
        eta1 = ((1.0 - 2.0 * params.p) * math.sqrt(2.0 / math.pi) / params.alpha
                * math.sqrt(params.alpha / (params.prior_var + params.link.noise_var)))
        return SeState(mu=eta1 * sigma1, sigma=sigma1)
    sd = math.sqrt(params.prior_var)
    # h turns from 0 to 1 on |z| < 8: split there, within the rule's window, so
    # the pieces resolve the turn however many link widths sd spans
    breakpoints = {*params.link.discontinuities, 0.0,
                   *(b for b in (-8.0, 8.0) if abs(b) < _SPLIT_HALF_WIDTH * sd)}
    z, w = gaussian_rule(0.0, sd, sorted(breakpoints), DEFAULT_ORDER)
    mu1 = 2.0 / params.prior_var * float((z * hat_h_p(z, params.link, params.p)) @ w)
    return SeState(mu=mu1, sigma=sigma1)


def se_step_glm_opt(eta, params: GlmParams):
    """eta' = sqrt((1/alpha) * E[g*(alpha*eta^2*Z + alpha*eta*G, Yhat)^2]),
    elementwise over an array of eta; a float gives a float.

    The generic step from the self-consistent state (mu, sigma) =
    (alpha*eta^2, alpha*eta) with the aggregator matched to it (coefficients
    (eta^2, 1/alpha)), where mu' = E[g*^2] and sigma'^2 = alpha*E[g*^2].  An
    array's states are stepped together, one row of the prediction's rule
    and of the matched aggregators per eta, in blocks of eta
    (``numerics._map_blocks``, 40 eta at 2^15 doubles per array); each
    element has the bits of its own scalar step.  Any eta that is not positive and finite raises
    :class:`DomainError`.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all((eta > 0.0) & (eta < math.inf)):
        raise DomainError("eta must be positive and finite (use se_init_glm for the first state)")

    def step(eta):
        with np.errstate(over="ignore"):   # an infinite mu is refused by the state
            mu = params.alpha * _square(eta, "eta")
        return _step(SeState(mu=mu, sigma=params.alpha * eta), None, params).eta

    # per eta: the posterior's two moments at two labels on DEFAULT_ORDER nodes
    return _map_blocks(step, eta, 4 * DEFAULT_ORDER)


def se_step_glm_generic(state: SeState, agg, params: GlmParams) -> SeState:
    """One (mu, sigma) step for an arbitrary aggregator g.

    mu' = E[g*(Z_t, Yhat) g(Z_t, Yhat)],  sigma'^2 = alpha * E[g^2],
    where g* = (1/prior_var + (mu/sigma)^2) E[Z | Z_t, Yhat] - (mu/sigma^2) Z_t
    is the aggregator matched to the state (:func:`optimal_aggregator_for_state`).
    Yhat depends on Z_t only through the margin's posterior, so the expectation
    is over Z_t ~ N(0, mu^2*prior_var + sigma^2), on a rule split at g's
    breakpoints, with P(Yhat = +1 | Z_t) from g*'s ``label_values``.  When g is
    g*, mu' is E[g*^2] itself.  The identity aggregator gives sigma'^2 = alpha.
    """
    return _step(state, None if agg == optimal_aggregator_for_state(state, params) else agg,
                 params)


def _step(state: SeState, agg, params: GlmParams) -> SeState:
    """:func:`se_step_glm_generic` of a state or of a batch of states (1-D
    arrays), with agg None for the aggregator matched to each.  The
    prediction's rule has one row per state, and a batch's matched
    aggregators have columns of coefficients, one per row."""
    star = optimal_aggregator_for_state(
        SeState(mu=state.mu[:, None], sigma=state.sigma[:, None]) if np.ndim(state.mu)
        else state, params)
    with np.errstate(over="ignore"):   # an infinite sd is refused by the rule
        sd = np.sqrt(_square(state.mu, "mu") * params.prior_var + _square(state.sigma, "sigma"))
    u, uw = gaussian_rule(0.0, sd, () if agg is None else agg.y_breakpoints, DEFAULT_ORDER)
    *star_values, q = star.label_values(u)
    values = (star_values if agg is None
              else [agg.value_and_deriv(u, lab)[0] for lab in (1.0, -1.0)])
    g_plus, g_minus = values

    def expect(f_plus, f_minus):
        """E[f(U, Yhat)] from f's values at the labels +1 and -1 on U's nodes."""
        return ((uw * q) * f_plus).sum(axis=-1) + ((uw * (1.0 - q)) * f_minus).sum(axis=-1)

    # for g = g*, the one integrand g*.g* gives mu' and E[g^2]; E[g* | U] = 0,
    # so a g equal at both labels on every node has mu' = 0 exactly
    e_gg = expect(g_plus * g_plus, g_minus * g_minus)
    mu_next = (e_gg if agg is None else 0.0 * e_gg if np.array_equal(g_plus, g_minus)
               else expect(star_values[0] * g_plus, star_values[1] * g_minus))
    s2 = params.alpha * e_gg
    if not np.all((s2 > 0) & np.isfinite(s2) & np.isfinite(mu_next)):
        raise DomainError("state-evolution expectation degenerate or non-finite")
    return SeState(mu=mu_next, sigma=np.sqrt(s2))


def se_error_glm(eta: float, params: GlmParams) -> float:
    """Predicted test error at signal-to-noise eta.

    rho = eta*gamma / sqrt(eta^2*gamma^2 + 1/alpha); the sign and probit links map
    rho through the exact arccos form, the logistic through the quadrature error curve.
    """
    g = params.gamma_eff
    return _error_from_overlap(eta * g / math.sqrt(_square(eta, "eta") * g**2 + 1.0 / params.alpha),
                               params)


def optimal_aggregator_for_state(state: SeState, params: GlmParams):
    """Aggregator matched to the channel of a given state (closed form for sign and probit)."""
    cls = OptimalGlm if params.link.noise_var is None else OptimalSign
    return cls.from_se_state(state, params)
