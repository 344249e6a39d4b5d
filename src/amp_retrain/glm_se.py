"""Deterministic state evolution for the generalized-linear retraining loop.

Tracks (mu_t, sigma_t), the law of the soft predictions Z_t = mu_t*Z +
sigma_t*G with Z the latent margin, and predicts the test error through the
signal-to-noise ratio eta_t = mu_t/sigma_t.  The sign link admits closed
forms; generic links go through the same posterior-mean quadrature machinery
used by the aggregator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ConfigError, DomainError
from .glm import (
    GlmParams,
    OptimalGlm,
    OptimalSign,
    SignLink,
    error_curve_glm,
    hat_h_p,
    posterior_mean_latent,
)
from .numerics import gaussian_rule

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


def _grid_expectations(
    params: GlmParams,
    channel_mu: float,
    channel_sigma: float,
    values_fn,
    order: int,
):
    """Weighted sums E[fn(Z_t, Yhat) ...] over the (Z, G, Yhat) grid.

    values_fn(u, yhat_label) -> array of integrand values on the u grid;
    returns the scalar expectation with label weights hhat_p(Z) / 1-hhat_p(Z).
    """
    # the latent margin's rule is split at the link's jumps, where the label
    # probability is only piecewise smooth in Z
    z, zw = gaussian_rule(0.0, math.sqrt(params.prior_var), params.link.discontinuities, order)
    g, gw = gaussian_rule(0.0, 1.0, (), order)
    u = channel_mu * z[:, None] + channel_sigma * g[None, :]
    hp = hat_h_p(z, params.link, params.p)[:, None]
    w2 = zw[:, None] * gw[None, :]
    total = np.sum(w2 * hp * values_fn(u, 1.0))
    total += np.sum(w2 * (1.0 - hp) * values_fn(u, -1.0))
    return float(total)


def se_step_glm_opt(eta: float, params: GlmParams, order: int = DEFAULT_ORDER_2D) -> float:
    """eta' = sqrt((1/alpha) * E[g*(alpha*eta^2*Z + alpha*eta*G, Yhat)^2]).

    The aggregator is matched to that channel (coefficients (eta^2, 1/alpha)).
    """
    if not (eta > 0 and math.isfinite(eta)):
        raise DomainError("eta must be positive (use se_init_glm for the first state)")
    if isinstance(params.link, SignLink):
        agg = OptimalSign.from_eta(eta, params)
    else:
        agg = OptimalGlm.from_eta(eta, params, order=max(order, 61))
    e_gg = _grid_expectations(
        params,
        channel_mu=params.alpha * eta**2,
        channel_sigma=params.alpha * eta,
        values_fn=lambda u, lab: agg.value(u, lab) ** 2,
        order=order,
    )
    return math.sqrt(e_gg / params.alpha)


def se_step_glm_generic(
    state: SeStateGlm, agg, params: GlmParams, order: int = DEFAULT_ORDER_2D
) -> SeStateGlm:
    """One (mu, sigma) step for an arbitrary aggregator.

    mu' = (1/prior_var + (mu/sigma)^2) * E[E(Z|Z_t,Yhat) g] - (mu/sigma^2) * E[Z_t g]
    sigma'^2 = alpha * E[g^2]
    with the conditional mean evaluated by the same integral machinery as the
    optimal aggregator.  Supports the identity aggregator (no-retraining
    baseline): there sigma'^2 = alpha exactly.
    """
    quad_a = (state.mu / state.sigma) ** 2
    lin_b = state.mu / state.sigma**2
    prefac = 1.0 / params.prior_var + quad_a
    inner_order = max(order, 61)

    def mu_terms(u, lab):
        gv = agg.value(u, lab)
        pm = posterior_mean_latent(
            u, lab, quad_a, lin_b, params.link, params.p, params.prior_var, inner_order
        )
        return (prefac * pm - lin_b * u) * gv

    mu_next = _grid_expectations(params, state.mu, state.sigma, mu_terms, order)
    e_gg = _grid_expectations(
        params, state.mu, state.sigma, lambda u, lab: agg.value(u, lab) ** 2, order
    )
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
    rho = eta * g / math.sqrt(eta**2 * g**2 + 1.0 / params.alpha)
    if isinstance(params.link, SignLink):
        return float(np.arccos(np.clip(rho, -1.0, 1.0)) / math.pi)
    return error_curve_glm(rho, params, order)


def optimal_aggregator_for_state(state: SeStateGlm, params: GlmParams, order: int = 61):
    """Aggregator matched to the channel of a given state (closed form for sign)."""
    if isinstance(params.link, SignLink):
        return OptimalSign.from_se_state(state, params)
    return OptimalGlm.from_se_state(state, params, order=order)


def opt_se_trace_glm(
    params: GlmParams, T: int, order: int = DEFAULT_ORDER_2D
) -> List[SeStateGlm]:
    """States 1..T of the optimal-aggregation state evolution."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    states = [se_init_glm(params)]
    for _ in range(T - 1):
        agg = optimal_aggregator_for_state(states[-1], params)
        states.append(se_step_glm_generic(states[-1], agg, params, order))
    return states
