"""Deterministic state evolution for the Gaussian-mixture retraining loop.

Tracks the state (mu_t, sigma_t) (:class:`amp_retrain.retrain.SeState`)
describing the asymptotic law of the model iterates, whose prediction channel
the params give (``gmm._channel``), the induced test-error prediction, the
one-dimensional update maps for the optimal / full / consensus aggregation
rules, their fixed points and crossover, and the noise-level threshold above
which retraining provably keeps improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import BracketError, ConfigError, DomainError
from .gmm import AGGREGATORS, GmmParams, OptimalGmm, _channel, aggregator_from_name
from .numerics import _map_blocks, _square, find_root_bisect, gaussian_rule, std_normal_cdf
from .retrain import SeState

# Quadrature order of every expectation here (SE steps and maps).  The optimal
# aggregator can be a steep tanh, and the self-consistency identities are
# tested at 1e-9; order 201 keeps the quadrature error comfortably below that
# at negligible cost (4 atoms x order evaluations per step).
DEFAULT_ORDER = 201

# The fixed-point and crossover scans: _SCAN_GRID intervals, each sign change
# refined by bisection, a fixed point to _FIXED_POINT_TOL and a crossover to
# adjacent floats (F_ct - F_ft is flat near its roots, so a tolerance on it
# would leave u loose); p* is bisected to _P_STAR_TOL.
_SCAN_GRID = 2000
_FIXED_POINT_TOL = 1e-8
_CROSSOVER_U_MAX = 50.0
_P_STAR_TOL = 1e-12


def se_init_gmm(params: GmmParams) -> SeState:
    """State after the identity-aggregator first step:
    mu_1 = gamma*(1-2p)/sqrt(alpha), sigma_1 = 1."""
    mu1 = params.gamma * (1.0 - 2.0 * params.p) / math.sqrt(params.alpha)
    return SeState(mu=mu1, sigma=1.0)


def label_atoms(params: GmmParams) -> List[Tuple[float, float, float]]:
    """Joint law of (true label Y, flipped label Yhat) as four weighted atoms."""
    p, pp, pm = params.p, params.pi_plus, params.pi_minus
    return [
        (pp * (1 - p), 1.0, 1.0),
        (pp * p, 1.0, -1.0),
        (pm * (1 - p), -1.0, -1.0),
        (pm * p, -1.0, 1.0),
    ]


def _class_moments(agg, m_bar, sigma_bar, params: GmmParams):
    """[E[g*Y], E[g^2]] over the classes Y = +-1 (weights pi_plus, pi_minus),
    the given label (Y with probability 1 - p) and U ~ N(m_bar*Y, sigma_bar^2)
    on a rule split at the aggregator's transition points (the logistic
    surrogates are steep at large beta); sigma_bar = 0 is the point mass.

    m_bar and sigma_bar may be arrays, one channel per index, each element
    with the bits of its channel alone; one channel gives floats.
    """
    classes = np.array([1.0, -1.0])
    mean = np.asarray(m_bar, dtype=float)[..., None] * classes
    sd = np.asarray(sigma_bar, dtype=float)
    shape = np.broadcast_shapes(mean.shape[:-1], sd.shape)
    point = sd == 0.0
    if point.all() or not point.any():
        groups = [(..., bool(point.all()))]
    else:
        point, sd = np.broadcast_to(point, shape), np.broadcast_to(sd, shape)
        mean = np.broadcast_to(mean, shape + (2,))
        groups = [(point, True), (~point, False)]
    # per class (rows): its weight and P(Yhat = +1 | Y)
    weight = np.array([[params.pi_plus], [params.pi_minus]])
    q = np.array([[1.0 - params.p], [params.p]])
    out = np.empty((2,) + shape)
    for rows, point_mass in groups:
        if point_mass:
            u, uw = mean[rows][..., None], np.ones(1)
        else:
            u, uw = gaussian_rule(mean[rows], sd[rows][..., None], agg.y_breakpoints,
                                  DEFAULT_ORDER)
        w, y = weight * uw, classes[:, None]
        g_plus, g_minus = (agg.value_and_deriv(u, lab)[0] for lab in (1.0, -1.0))
        for k, f in enumerate((lambda g: g * y, lambda g: g * g)):
            # each channel's sum runs over its own (classes x nodes) row, in the
            # order of the channel alone, so it has that channel's bits
            plus, minus = w * q * f(g_plus), w * (1.0 - q) * f(g_minus)
            out[k, ...][rows] = (plus.reshape(plus.shape[:-2] + (-1,)).sum(axis=-1)
                                 + minus.reshape(minus.shape[:-2] + (-1,)).sum(axis=-1))
    return [float(e) for e in out] if not shape else list(out)


def se_step_gmm(state: SeState, agg, params: GmmParams) -> SeState:
    """One state-evolution step for an arbitrary aggregator:
    mu' = (gamma/sqrt(alpha)) E[g*Y], (sigma')^2 = E[g^2], over the state's
    channel (``gmm._channel``)."""
    e_gy, e_gg = _class_moments(agg, *_channel(state, params), params)
    mu_next = params.gamma / math.sqrt(params.alpha) * e_gy
    s2 = e_gg
    if not (s2 > 0 and math.isfinite(s2) and math.isfinite(mu_next)):
        raise DomainError("state-evolution expectation degenerate or non-finite")
    return SeState(mu=mu_next, sigma=math.sqrt(s2))


def se_error_gmm(eta: float, params: GmmParams) -> float:
    """Predicted test error Phi(-gamma*eta / sqrt(eta^2 + 1)) at signal-to-noise
    eta = mu/sigma."""
    return std_normal_cdf(-params.gamma * eta / math.sqrt(_square(eta, "eta") + 1.0))


# --------------------------------------------------------------------------
# one-dimensional update maps in u = eta^2, elementwise over arrays of u
# --------------------------------------------------------------------------

def _checked_u(u, gamma: Optional[float] = None) -> np.ndarray:
    """u as a float array; an element that is negative, infinite or NaN, or
    (given gamma) one where gamma^2 * u overflows, raises :class:`DomainError`."""
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u < math.inf)):
        raise DomainError("u must be non-negative and finite")
    if gamma is not None:
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(gamma**2 * u)):
                raise DomainError("u is too large: gamma^2 * u overflows")
    return u


def eta_map_opt(u, params: GmmParams):
    """Optimal-aggregation map F(u) = (gamma^2/alpha) E[g~(...)^2].

    The reduced aggregator g~ has unit slope pair: the channel is
    gamma^2*u/(1+u)*Y + gamma*sqrt(u/(1+u))*G and the tanh exponent carries a
    plain 2y term.
    """
    u = _checked_u(u, params.gamma)
    if params.p == 0.0:   # g~ = yhat, so E[g~^2] = 1
        return np.full(u.shape, params.gamma**2 / params.alpha)[()]
    # OptimalGmm's constants carry the prior-term limits +-inf at pi_plus in
    # {0, 1}, where g~ = +-1 and the map is the constant gamma^2/alpha
    agg = OptimalGmm._build(2.0, params)
    w, y_lab, yhat = np.array(label_atoms(params)).T
    g, pw = gaussian_rule(0.0, 1.0, (), DEFAULT_ORDER)

    def e_gg(u):
        loc = params.gamma**2 * u / (1.0 + u)
        sc = params.gamma * np.sqrt(u / (1.0 + u))
        shift = 0.5 * (yhat * agg.log_odds + agg.slope * loc[:, None] * y_lab + agg.log_prior)
        vals = np.tanh(shift[..., None] + (0.5 * agg.slope * sc[:, None, None]) * g)
        return ((vals * vals) @ pw) @ w

    # (points, 4 atoms, order) arrays
    return params.gamma**2 / params.alpha * _map_blocks(e_gg, u, 4 * DEFAULT_ORDER)


def eta_map_ft(u, params: GmmParams):
    """Sharp-limit map of full retraining:
    (gamma^2/alpha) * (2*Phi(gamma*sqrt(u/(1+u))) - 1)^2."""
    u = _checked_u(u)
    lift = 2.0 * std_normal_cdf(params.gamma * np.sqrt(u / (1.0 + u))) - 1.0
    return params.gamma**2 / params.alpha * _square(lift, "2*Phi - 1")


def eta_map_ct(u, params: GmmParams):
    """Sharp-limit map of consensus retraining:
    (gamma^2/alpha) * (Phi(sqrt(eb)) - p)^2 / (p + (1-2p)*Phi(sqrt(eb)))
    with eb = gamma^2 * u/(1+u)."""
    u = _checked_u(u, params.gamma)
    eb = params.gamma**2 * u / (1.0 + u)
    phi = std_normal_cdf(np.sqrt(eb))
    return (params.gamma**2 / params.alpha * _square(phi - params.p, "Phi - p")
            / (params.p + (1 - 2 * params.p) * phi))


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
    self-consistent slice mu = sqrt(alpha)/gamma * u, sigma = sqrt(alpha*u)/gamma,
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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.variant not in _LIMIT_MAPS:
            aggregator_from_name(self.variant, self.beta)

    def __call__(self, u):
        """F(u), elementwise over arrays of u."""
        if self.variant in _LIMIT_MAPS:
            return _LIMIT_MAPS[self.variant](u, self.params)
        agg = aggregator_from_name(self.variant, self.beta)
        if agg is None:
            return eta_map_opt(u, self.params)
        alpha, gamma = self.params.alpha, self.params.gamma

        def step(u):
            # u*(1+u) may overflow: the infinite sigma_bar is refused by the rule
            with np.errstate(over="ignore"):
                sigma_bar = alpha / gamma * np.sqrt(u * (1.0 + u))
            e_gy, e_gg = _class_moments(agg, alpha * u, sigma_bar, self.params)
            # squared by C pow, as a float is, so each point keeps its scalar bits
            out = np.zeros(u.shape)
            np.divide(gamma**2 / alpha * _square(e_gy, "E[gY]"), e_gg, out=out, where=e_gg > 0)
            return out

        # per point: the 2 classes on the rule's nodes, one piece per breakpoint and one more
        return _map_blocks(step, _checked_u(u), 2 * DEFAULT_ORDER * (len(agg.y_breakpoints) + 1))


def _grid_roots(fn: Callable, us: np.ndarray, tol: float) -> List[float]:
    """Roots of fn on the grid's range, ascending: grid points where fn is
    exactly 0, and each sign change between neighbours refined by bisection;
    fn takes the whole grid at once."""
    vals = np.asarray(fn(us), dtype=float)
    roots = [float(u) for u in us[vals == 0.0]]
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
        roots.append(find_root_bisect(fn, float(us[i]), float(us[i + 1]), tol=tol))
    return sorted(roots)


def find_fixed_points(fmap: Callable[[float], float], u_max: float = 50.0) -> List[float]:
    """Fixed points of F on [0, u_max], sorted ascending.

    Scans a uniform grid for sign changes of F(u) - u and refines each by
    bisection.  For a map spec the scan range is extended past gamma^2/alpha,
    which bounds every map here, so no fixed point can be missed to the right.
    Returns an empty list when no fixed point lies in range.
    """
    if u_max <= 0:
        raise ConfigError("u_max must be positive")
    if isinstance(fmap, SeMapSpec):
        bound = fmap.params.gamma**2 / fmap.params.alpha
        u_max = max(u_max, 1.05 * bound + 1.0)
    return _grid_roots(lambda u: fmap(u) - u, np.linspace(0.0, u_max, _SCAN_GRID + 1),
                       _FIXED_POINT_TOL)


@dataclass(frozen=True)
class CobwebTrace:
    """Iterates (u_t, F(u_t)) of a one-dimensional map, for staircase plots."""

    points: List[Tuple[float, float]]
    diverged: bool = False


def cobweb_trace(fmap: Callable[[float], float], u1: float, T: int) -> CobwebTrace:
    """Iterate u_{t+1} = F(u_t) for T steps starting from u1."""
    if not 0 <= u1 < math.inf:
        raise DomainError("u1 must be non-negative and finite")
    if T < 1:
        raise ConfigError("T must be >= 1")
    pts: List[Tuple[float, float]] = []
    u = float(u1)
    for _ in range(T):
        fu = fmap(u)
        if not math.isfinite(fu):
            return CobwebTrace(points=pts, diverged=True)
        pts.append((u, fu))
        u = fu
    return CobwebTrace(points=pts, diverged=False)


def find_crossover(params: GmmParams) -> List[float]:
    """Roots of F_ct(u) - F_ft(u) on (0, 50], ascending.

    Below the first root the consensus rule dominates, above it full
    retraining does.  Empty list means no crossover in range.
    """
    diff = lambda u: eta_map_ct(u, params) - eta_map_ft(u, params)
    us = np.linspace(0.0, _CROSSOVER_U_MAX, _SCAN_GRID + 1)[1:]  # skip u=0, where FT is 0
    return _grid_roots(diff, us, 0.0)


@dataclass(frozen=True)
class PStarResult:
    """Threshold flip probability with the residual of its defining equation.

    condition_met records whether gamma^2 >= sqrt(pi*alpha/2), the regime in
    which the threshold is guaranteed to be the unique interior root.
    """

    value: float
    residual: float
    condition_met: bool


def p_star(params: GmmParams) -> PStarResult:
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
        root = find_root_bisect(h, 1e-9, 0.5 - 1e-9, tol=_P_STAR_TOL)
    except BracketError:
        # outside the guarantee regime the equation may have no interior root
        return PStarResult(value=math.nan, residual=math.nan, condition_met=condition_met)
    return PStarResult(value=root, residual=h(root), condition_met=condition_met)
