"""Deterministic state evolution for the generalized-linear retraining loop.

Tracks (mu_t, sigma_t), the law of the soft predictions Z_t = mu_t*Z +
sigma_t*G with Z the latent margin, and predicts the test error through the
signal-to-noise ratio eta_t = mu_t/sigma_t.  The sign link admits closed
forms; for generic links the mean update integrates the quadrature optimal
aggregator matched to the state against the scheduled one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .glm import GlmParams, OptimalGlm, OptimalSign, SignLink, _error_from_overlap, hat_h_p
from .numerics import expect_output_channel, gaussian_rule

DEFAULT_ORDER_2D = 41


@dataclass(frozen=True)
class SeStateGlm:
    """State-evolution pair (mu, sigma); eta = mu/sigma."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError("sigma must be positive and finite")
        if not math.isfinite(self.mu):
            raise DomainError("mu must be finite")

    @property
    def eta(self) -> float:
        return self.mu / self.sigma


def quadrature_init_mu_glm(params: GlmParams, order: int = 201) -> float:
    """mu_1 = (2/prior_var) * E[Z * hhat_p(Z)], Z ~ N(0, prior_var), by quadrature."""
    z, w = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities, order)
    return 2.0 / params.prior_var * float((z * hat_h_p(z, params.link, params.p)) @ w)


def se_init_glm(params: GlmParams, order: int = 201) -> SeStateGlm:
    """State after the identity first step: sigma_1 = sqrt(alpha).

    The sign link has the closed form eta_1 = (1-2p)*sqrt(2/pi)/alpha, used
    directly; other links evaluate mu_1 by quadrature.
    """
    sigma1 = math.sqrt(params.alpha)
    if isinstance(params.link, SignLink):
        eta1 = (1.0 - 2.0 * params.p) * math.sqrt(2.0 / math.pi) / params.alpha
        return SeStateGlm(mu=eta1 * sigma1, sigma=sigma1)
    return SeStateGlm(mu=quadrature_init_mu_glm(params, order), sigma=sigma1)


def se_step_glm_opt(eta: float, params: GlmParams, order: int = DEFAULT_ORDER_2D) -> float:
    """eta' = sqrt((1/alpha) * E[g*(alpha*eta^2*Z + alpha*eta*G, Yhat)^2]).

    The generic step from the self-consistent state (mu, sigma) =
    (alpha*eta^2, alpha*eta) with the aggregator matched to it (coefficients
    (eta^2, 1/alpha)), where mu' = E[g*^2] and sigma'^2 = alpha*E[g*^2].
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise DomainError("eta must be positive (use se_init_glm for the first state)")
    state = SeStateGlm(mu=params.alpha * eta**2, sigma=params.alpha * eta)
    star = optimal_aggregator_for_state(state, params, order=max(order, 61))
    return se_step_glm_generic(state, star, params, order).eta


def se_step_glm_generic(
    state: SeStateGlm, agg, params: GlmParams, order: int = DEFAULT_ORDER_2D
) -> SeStateGlm:
    """One (mu, sigma) step for an arbitrary aggregator g.

    mu' = E[g*(Z_t, Yhat) g(Z_t, Yhat)],  sigma'^2 = alpha * E[g^2],
    where g* = (1/prior_var + (mu/sigma)^2) E[Z | Z_t, Yhat] - (mu/sigma^2) Z_t
    is the aggregator matched to the state's channel
    (:func:`optimal_aggregator_for_state`, at order max(order, 61)).  When g
    is that aggregator its values are reused, so an optimal step evaluates
    the posterior once.  The identity aggregator (no-retraining baseline)
    gives sigma'^2 = alpha exactly.
    """
    star = optimal_aggregator_for_state(state, params, order=max(order, 61))

    def integrands(u):
        star_values = star.label_values(u)
        values = star_values if agg == star else [agg.value(u, lab) for lab in (1.0, -1.0)]
        return [(s * g, g ** 2) for s, g in zip(star_values, values)]

    # the latent margin's rule is split at the link's jumps, where the label
    # probability is only piecewise smooth in Z
    z, zw = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities, order)
    mu_next, e_gg = expect_output_channel(z, zw, hat_h_p(z, params.link, params.p), state.mu,
                                          state.sigma, agg.y_breakpoints, integrands, order)
    s2 = params.alpha * e_gg
    if not (s2 > 0 and math.isfinite(s2) and math.isfinite(mu_next)):
        raise DomainError("state-evolution expectation degenerate or non-finite")
    return SeStateGlm(mu=mu_next, sigma=math.sqrt(s2))


def se_error_glm(eta: float, params: GlmParams, order: int = 61) -> float:
    """Predicted test error at signal-to-noise eta.

    rho = eta*gamma / sqrt(eta^2*gamma^2 + 1/alpha); sign link maps rho through
    arccos(rho)/pi exactly, other links through the quadrature error curve.
    """
    g = params.gamma_eff
    return _error_from_overlap(eta * g / math.sqrt(eta**2 * g**2 + 1.0 / params.alpha),
                               params, order)


def optimal_aggregator_for_state(state: SeStateGlm, params: GlmParams, order: int = 61):
    """Aggregator matched to the channel of a given state (closed form for sign)."""
    if isinstance(params.link, SignLink):
        return OptimalSign.from_se_state(state, params)
    return OptimalGlm.from_se_state(state, params, order=order)
