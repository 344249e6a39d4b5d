"""Deterministic state evolution for the Gaussian-mixture retraining loop.

Tracks the scalar pair (m_t, sigma_t) describing the asymptotic law of the
model iterates, the induced test-error prediction, the one-dimensional update
maps for the optimal / full / consensus aggregation rules, their fixed points
and crossover, and the noise-level threshold above which retraining provably
keeps improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import BracketError, ConfigError, DomainError
from .gmm import AGGREGATORS, GmmParams, OptimalGmm, aggregator_from_name
from .numerics import expect_output_channel, find_root_bisect, gaussian_rule, std_normal_cdf

# Default quadrature order for the scalar expectations here.  The optimal
# aggregator can be a steep tanh, and the self-consistency identities are
# tested at 1e-9; order 201 keeps the quadrature error comfortably below that
# at negligible cost (4 atoms x order evaluations per step).
DEFAULT_ORDER = 201


@dataclass(frozen=True)
class SeStateGmm:
    """State-evolution pair (m, sigma) with derived channel parameters.

    eta = m/sigma is the signal-to-noise ratio; (m_bar, sigma_bar) describe
    the law of the soft predictions: m_bar = gamma*sqrt(alpha)*m and
    sigma_bar^2 = alpha*(m^2 + sigma^2).
    """

    m: float
    sigma: float
    gamma: float
    alpha: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError("sigma must be positive and finite")
        if not math.isfinite(self.m):
            raise DomainError("m must be finite")

    @property
    def eta(self) -> float:
        return self.m / self.sigma

    @property
    def m_bar(self) -> float:
        return self.gamma * math.sqrt(self.alpha) * self.m

    @property
    def sigma_bar(self) -> float:
        return math.sqrt(self.alpha * (self.m**2 + self.sigma**2))


def se_init_gmm(params: GmmParams) -> SeStateGmm:
    """State after the identity-aggregator first step:
    m_1 = gamma*(1-2p)/sqrt(alpha), sigma_1 = 1."""
    m1 = params.gamma * (1.0 - 2.0 * params.p) / math.sqrt(params.alpha)
    return SeStateGmm(m=m1, sigma=1.0, gamma=params.gamma, alpha=params.alpha)


def label_atoms(params: GmmParams) -> List[Tuple[float, float, float]]:
    """Joint law of (true label Y, flipped label Yhat) as four weighted atoms."""
    p, pp, pm = params.p, params.pi_plus, params.pi_minus
    return [
        (pp * (1 - p), 1.0, 1.0),
        (pp * p, 1.0, -1.0),
        (pm * (1 - p), -1.0, -1.0),
        (pm * p, -1.0, 1.0),
    ]


def _class_moments(agg, m_bar: float, sigma_bar: float, params: GmmParams,
                   order: int) -> Tuple[float, float]:
    """(E[g*Y], E[g^2]) over the classes Y, the flipped label and the Gaussian
    channel N(m_bar*Y, sigma_bar^2); sigma_bar = 0 is the point mass m_bar*Y.

    The rule is split at the transition points an aggregator declares (the
    logistic surrogates, steep at large beta); a global Hermite rule
    under-resolves their transition layer.
    """
    classes = np.array([1.0, -1.0])

    def integrands(u):
        return [(g * classes[:, None], g * g) for g in (agg.value(u, 1.0), agg.value(u, -1.0))]

    return expect_output_channel(classes, (params.pi_plus, params.pi_minus),
                                 (1.0 - params.p, params.p), m_bar, sigma_bar,
                                 agg.y_breakpoints, integrands, order)


def se_step_gmm(
    state: SeStateGmm, agg, params: GmmParams, order: int = DEFAULT_ORDER
) -> SeStateGmm:
    """One state-evolution step for an arbitrary aggregator:
    m' = (gamma/sqrt(alpha)) E[g*Y], (sigma')^2 = E[g^2]."""
    e_gy, e_gg = _class_moments(agg, state.m_bar, state.sigma_bar, params, order)
    m_next = params.gamma / math.sqrt(params.alpha) * e_gy
    s2 = e_gg
    if not (s2 > 0 and math.isfinite(s2) and math.isfinite(m_next)):
        raise DomainError("state-evolution expectation degenerate or non-finite")
    return SeStateGmm(m=m_next, sigma=math.sqrt(s2), gamma=params.gamma, alpha=params.alpha)


def se_error_gmm(state: SeStateGmm, params: GmmParams) -> float:
    """Predicted test error Phi(-gamma*eta / sqrt(eta^2 + 1)) at eta = m/sigma."""
    return se_error_from_eta(state.eta, params.gamma)


def se_error_from_eta(eta: float, gamma: float) -> float:
    """Same prediction parameterized by the signal-to-noise ratio."""
    return std_normal_cdf(-gamma * eta / math.sqrt(eta**2 + 1.0))


# --------------------------------------------------------------------------
# one-dimensional update maps in u = eta^2
# --------------------------------------------------------------------------

def eta_map_opt(u: float, params: GmmParams, order: int = DEFAULT_ORDER) -> float:
    """Optimal-aggregation map F(u) = (gamma^2/alpha) E[g~(...)^2].

    The reduced aggregator g~ has unit slope pair: the channel is
    gamma^2*u/(1+u)*Y + gamma*sqrt(u/(1+u))*G and the tanh exponent carries a
    plain 2y term.
    """
    if u < 0:
        raise DomainError("u must be non-negative")
    if params.p == 0.0:
        return params.gamma**2 / params.alpha   # g~ = yhat, so E[g~^2] = 1
    loc = params.gamma**2 * u / (1.0 + u)
    sc = params.gamma * math.sqrt(u / (1.0 + u))
    # OptimalGmm's constants carry the prior-term limits +-inf at pi_plus in
    # {0, 1}, where g~ = +-1 and the map is the constant gamma^2/alpha
    agg = OptimalGmm._build(2.0, params)
    w, y_lab, yhat = np.array(label_atoms(params)).T
    g, pw = gaussian_rule(0.0, 1.0, (), order)
    shift = 0.5 * (yhat * agg.log_odds + agg.slope * loc * y_lab + agg.log_prior)
    vals = np.tanh(shift[:, None] + (0.5 * agg.slope * sc) * g)
    return params.gamma**2 / params.alpha * float(w @ ((vals * vals) @ pw))


def eta_map_ft(u: float, params: GmmParams) -> float:
    """Sharp-limit map of full retraining:
    (gamma^2/alpha) * (2*Phi(gamma*sqrt(u/(1+u))) - 1)^2."""
    if u < 0:
        raise DomainError("u must be non-negative")
    return (
        params.gamma**2
        / params.alpha
        * (2.0 * std_normal_cdf(params.gamma * math.sqrt(u / (1.0 + u))) - 1.0) ** 2
    )


def eta_map_ct(u: float, params: GmmParams) -> float:
    """Sharp-limit map of consensus retraining:
    (gamma^2/alpha) * (Phi(sqrt(eb)) - p)^2 / (p + (1-2p)*Phi(sqrt(eb)))
    with eb = gamma^2 * u/(1+u)."""
    if u < 0:
        raise DomainError("u must be non-negative")
    eb = params.gamma**2 * u / (1.0 + u)
    phi = std_normal_cdf(math.sqrt(eb))
    return params.gamma**2 / params.alpha * (phi - params.p) ** 2 / (params.p + (1 - 2 * params.p) * phi)


_LIMIT_MAPS = {"ft_limit": eta_map_ft, "ct_limit": eta_map_ct}
# what a theory table (the `se` and `cobweb` commands) can compute: an
# aggregator's state evolution or map, or a sharp-limit map
VARIANTS = AGGREGATORS + tuple(_LIMIT_MAPS)


@dataclass(frozen=True)
class SeMapSpec:
    """A chosen one-dimensional update map u -> F(u).

    variant: one of :data:`VARIANTS`.  "opt" is :func:`eta_map_opt`, the
    limits are :func:`eta_map_ft` and :func:`eta_map_ct`.  A constant
    aggregator's map evaluates one state-evolution step from the
    self-consistent slice m = sqrt(alpha)/gamma * u, sigma = sqrt(alpha*u)/gamma,
    whose channel is (m_bar, sigma_bar) = (alpha*u, (alpha/gamma)*sqrt(u*(1+u))),
    as F(u) = (gamma^2/alpha) E[g*Y]^2 / E[g^2], and 0 where E[g^2] = 0.  At
    u = 0 the channel is the point mass at 0 (finite-beta dynamics are not
    exactly one-dimensional; this slice is the one the optimal trajectory
    lives on, and the smoothed maps converge to the sharp-limit maps as beta
    grows).
    """

    variant: str
    params: GmmParams
    beta: Optional[float] = None
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.variant not in _LIMIT_MAPS:
            aggregator_from_name(self.variant, self.beta)

    def as_function(self) -> Callable[[float], float]:
        if self.variant in _LIMIT_MAPS:
            limit_map = _LIMIT_MAPS[self.variant]
            return lambda u: limit_map(u, self.params)
        agg = aggregator_from_name(self.variant, self.beta)
        if agg is None:
            return lambda u: eta_map_opt(u, self.params, self.order)

        def step(u: float) -> float:
            if u < 0:
                raise DomainError("u must be non-negative")
            alpha, gamma = self.params.alpha, self.params.gamma
            e_gy, e_gg = _class_moments(agg, alpha * u, alpha / gamma * math.sqrt(u * (1.0 + u)),
                                        self.params, self.order)
            return gamma**2 / alpha * e_gy**2 / e_gg if e_gg > 0 else 0.0

        return step


MapLike = Union[SeMapSpec, Callable[[float], float]]


def _map_function(map_spec: MapLike) -> Callable[[float], float]:
    return map_spec.as_function() if isinstance(map_spec, SeMapSpec) else map_spec


def _grid_roots(fn: Callable[[float], float], us: np.ndarray, tol: float) -> List[float]:
    """Roots of fn on the grid's range, ascending: grid points where fn is
    exactly 0, and each sign change between neighbours refined by bisection."""
    vals = np.array([fn(u) for u in us])
    roots = [float(u) for u, v in zip(us, vals) if v == 0.0]
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
        roots.append(find_root_bisect(fn, float(us[i]), float(us[i + 1]), tol=tol))
    return sorted(roots)


def find_fixed_points(
    map_spec: MapLike,
    u_max: float = 50.0,
    grid: int = 2000,
    tol: float = 1e-8,
) -> List[float]:
    """Fixed points of F on [0, u_max], sorted ascending.

    Scans a uniform grid for sign changes of F(u) - u and refines each by
    bisection.  For a map spec the scan range is extended past gamma^2/alpha,
    which bounds every map here, so no fixed point can be missed to the right.
    Returns an empty list when no fixed point lies in range.
    """
    if u_max <= 0:
        raise ConfigError("u_max must be positive")
    if isinstance(map_spec, SeMapSpec):
        bound = map_spec.params.gamma**2 / map_spec.params.alpha
        u_max = max(u_max, 1.05 * bound + 1.0)
    f = _map_function(map_spec)
    return _grid_roots(lambda u: f(u) - u, np.linspace(0.0, u_max, grid + 1), tol)


@dataclass(frozen=True)
class CobwebTrace:
    """Iterates (u_t, F(u_t)) of a one-dimensional map, for staircase plots."""

    points: List[Tuple[float, float]]
    diverged: bool = False


def cobweb_trace(map_spec: MapLike, u1: float, T: int) -> CobwebTrace:
    """Iterate u_{t+1} = F(u_t) for T steps starting from u1."""
    if u1 < 0:
        raise DomainError("u1 must be non-negative")
    if T < 1:
        raise ConfigError("T must be >= 1")
    f = _map_function(map_spec)
    pts: List[Tuple[float, float]] = []
    u = float(u1)
    for _ in range(T):
        fu = f(u)
        if not math.isfinite(fu):
            return CobwebTrace(points=pts, diverged=True)
        pts.append((u, fu))
        u = fu
    return CobwebTrace(points=pts, diverged=False)


def find_crossover(
    params: GmmParams, u_max: float = 50.0, grid: int = 2000, tol: float = 1e-10
) -> List[float]:
    """Roots of F_ct(u) - F_ft(u) on (0, u_max], ascending.

    Below the first root the consensus rule dominates, above it full
    retraining does.  Empty list means no crossover in range.
    """
    diff = lambda u: eta_map_ct(u, params) - eta_map_ft(u, params)
    us = np.linspace(0.0, u_max, grid + 1)[1:]  # skip u=0 where FT is trivially 0
    return _grid_roots(diff, us, tol)


@dataclass(frozen=True)
class PStarResult:
    """Threshold flip probability with the residual of its defining equation.

    condition_met records whether gamma^2 >= sqrt(pi*alpha/2), the regime in
    which the threshold is guaranteed to be the unique interior root.
    """

    value: float
    residual: float
    condition_met: bool


def p_star(params: GmmParams, tol: float = 1e-12) -> PStarResult:
    """Unique root in (0, 1/2) of Phi(-gamma^2(1-2p)/sqrt(gamma^2(1-2p)^2+alpha)) = p.

    For p >= p_star the retraining trajectory is non-decreasing in
    signal-to-noise from its very first step.  p = 1/2 is always a trivial
    root and is excluded by searching (0, 1/2 - eps).
    """
    g2, alpha = params.gamma**2, params.alpha
    condition_met = g2 >= math.sqrt(math.pi * alpha / 2.0)

    def h(p: float) -> float:
        one_m = 1.0 - 2.0 * p
        return std_normal_cdf(-g2 * one_m / math.sqrt(g2 * one_m**2 + alpha)) - p

    try:
        root = find_root_bisect(h, 1e-9, 0.5 - 1e-9, tol=tol)
    except BracketError:
        # outside the guarantee regime the equation may have no interior root
        return PStarResult(value=math.nan, residual=math.nan, condition_met=condition_met)
    return PStarResult(value=root, residual=h(root), condition_met=condition_met)


# --------------------------------------------------------------------------
# the plug-in state of an empirical run
# --------------------------------------------------------------------------

def estimate_se_state_gmm(theta: np.ndarray, mu: np.ndarray, params: GmmParams) -> SeStateGmm:
    """Plug-in state estimate from a model vector (needs the true mean).

    m_hat = mu.theta/(sqrt(d)*gamma), sigma_hat^2 = ||theta||^2/d - m_hat^2.
    Compares an empirical iterate with its state-evolution state; the
    schedules use the deterministic trace.
    """
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    m_hat = float(mu @ theta) / (math.sqrt(d) * params.gamma)
    s2_hat = float(theta @ theta) / d - m_hat**2
    if s2_hat <= 0:
        raise DomainError("plug-in variance estimate non-positive")
    return SeStateGmm(m=m_hat, sigma=math.sqrt(s2_hat), gamma=params.gamma, alpha=params.alpha)
