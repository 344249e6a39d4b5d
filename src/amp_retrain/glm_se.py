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
from .numerics import _square, expect_output_channel, gaussian_rule

# Quadrature order of the first state's rule over the latent margin and of
# each step's rule over the prediction; the posterior rule's is glm.ORDER.
DEFAULT_ORDER = 201


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


def se_init_glm(params: GlmParams) -> SeStateGlm:
    """State after the identity first step: sigma_1 = sqrt(alpha).

    The sign link has the closed form eta_1 = (1-2p)*sqrt(2/pi)/alpha, used
    directly; other links evaluate mu_1 = (2/prior_var) * E[Z * hhat_p(Z)],
    Z ~ N(0, prior_var), by quadrature.
    """
    sigma1 = math.sqrt(params.alpha)
    if isinstance(params.link, SignLink):
        eta1 = (1.0 - 2.0 * params.p) * math.sqrt(2.0 / math.pi) / params.alpha
        return SeStateGlm(mu=eta1 * sigma1, sigma=sigma1)
    z, w = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities,
                         DEFAULT_ORDER)
    mu1 = 2.0 / params.prior_var * float((z * hat_h_p(z, params.link, params.p)) @ w)
    return SeStateGlm(mu=mu1, sigma=sigma1)


def se_step_glm_opt(eta: float, params: GlmParams) -> float:
    """eta' = sqrt((1/alpha) * E[g*(alpha*eta^2*Z + alpha*eta*G, Yhat)^2]).

    The generic step from the self-consistent state (mu, sigma) =
    (alpha*eta^2, alpha*eta) with the aggregator matched to it (coefficients
    (eta^2, 1/alpha)), where mu' = E[g*^2] and sigma'^2 = alpha*E[g*^2].
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise DomainError("eta must be positive (use se_init_glm for the first state)")
    state = SeStateGlm(mu=params.alpha * _square(eta, "eta"), sigma=params.alpha * eta)
    star = optimal_aggregator_for_state(state, params)
    return se_step_glm_generic(state, star, params).eta


def se_step_glm_generic(state: SeStateGlm, agg, params: GlmParams) -> SeStateGlm:
    """One (mu, sigma) step for an arbitrary aggregator g.

    mu' = E[g*(Z_t, Yhat) g(Z_t, Yhat)],  sigma'^2 = alpha * E[g^2],
    where g* = (1/prior_var + (mu/sigma)^2) E[Z | Z_t, Yhat] - (mu/sigma^2) Z_t
    is the aggregator matched to the state (:func:`optimal_aggregator_for_state`).
    Yhat depends on Z_t only through the margin's posterior, so the expectation
    is over Z_t ~ N(0, mu^2*prior_var + sigma^2), on a rule split at g's
    breakpoints, with P(Yhat = +1 | Z_t) from g*'s ``label_values``.  When g is
    g* its values are reused.  The identity aggregator gives sigma'^2 = alpha.
    """
    star = optimal_aggregator_for_state(state, params)
    sd = math.sqrt(_square(state.mu, "mu") * params.prior_var + _square(state.sigma, "sigma"))
    u, uw = gaussian_rule(0.0, sd, agg.y_breakpoints, DEFAULT_ORDER)
    *star_values, prob_plus = star.label_values(u)
    values = (star_values if agg == star
              else [agg.value_and_deriv(u, lab)[0] for lab in (1.0, -1.0)])
    # the kernel's latent is Z_t itself, as a point mass (sd 0): one column per node
    integrands = [[(s * g)[:, None], (g * g)[:, None]] for s, g in zip(star_values, values)]
    mu_next, e_gg = expect_output_channel(u, uw, prob_plus, 1.0, 0.0, (),
                                          lambda _: integrands, DEFAULT_ORDER)
    s2 = params.alpha * e_gg
    if not (s2 > 0 and math.isfinite(s2) and math.isfinite(mu_next)):
        raise DomainError("state-evolution expectation degenerate or non-finite")
    return SeStateGlm(mu=mu_next, sigma=math.sqrt(s2))


def se_error_glm(eta: float, params: GlmParams) -> float:
    """Predicted test error at signal-to-noise eta.

    rho = eta*gamma / sqrt(eta^2*gamma^2 + 1/alpha); sign link maps rho through
    arccos(rho)/pi exactly, other links through the quadrature error curve.
    """
    g = params.gamma_eff
    return _error_from_overlap(eta * g / math.sqrt(_square(eta, "eta") * g**2 + 1.0 / params.alpha),
                               params)


def optimal_aggregator_for_state(state: SeStateGlm, params: GlmParams):
    """Aggregator matched to the channel of a given state (closed form for sign)."""
    if isinstance(params.link, SignLink):
        return OptimalSign.from_se_state(state, params)
    return OptimalGlm.from_se_state(state, params)
