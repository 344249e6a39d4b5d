"""Generalized-linear ground truth under label flipping.

Link functions, data generation, the Bayes-optimal aggregator (quadrature for
the logistic link, closed form for the Gaussian-threshold links sign and probit)
with its analytic derivative, and test error through the overlap
rho = beta.theta/(|beta||theta|).  The retraining iteration is :mod:`amp_retrain.retrain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from .errors import ConfigError, DegenerateModelError, DomainError
from .gmm import _label_arrays, _validate_shared_params
from .numerics import (_SPLIT_HALF_WIDTH, RngStream, _erfcx, _logistic, _matvec, _ndtr, _rule_at,
                       _split, _square, gaussian_rule)


# Quadrature order of the posterior rule of OptimalGlm and of the error curve.
ORDER = 61
# Rows per block of OptimalGlm's posterior kernel: a block's arrays hold
# _POSTERIOR_ROWS x ORDER doubles (about 0.5 MB).
_POSTERIOR_ROWS = 1024
# Largest posterior precision 1/s^2 OptimalGlm evaluates: its centred sums
# carry a rounding error of about eps*s, which g = c1/s^2 turns into about
# eps/s, and beyond 1e19 the SE map's relative error passes 1e-7 (measured
# for the logistic and probit links).
_PRECISION_MAX = 1e19


# --------------------------------------------------------------------------
# link functions
# --------------------------------------------------------------------------
# Each link has h(u) > h(-u) for u > 0, which makes the error curve decreasing in the
# overlap.  A link has no scale of its own: a steeper link is a larger gamma, the norm
# of beta.  h returns a fresh array, which hat_h_p and the posterior kernel overwrite,
# and calls numpy and private helpers only, since the kernel runs it on helper threads.
# noise_var is tau^2 of a Gaussian-threshold link, h(z) = Phi(z/tau), or else None.

@dataclass(frozen=True)
class SignLink:
    """h(z) = (1 + sign(z))/2: deterministic labels y = sign(x.beta)."""

    name: ClassVar[str] = "sign"
    discontinuities: ClassVar[Tuple[float, ...]] = (0.0,)
    noise_var: ClassVar[Optional[float]] = 0.0

    def h(self, z):
        return 0.5 * (1.0 + np.sign(z))


@dataclass(frozen=True)
class LogisticLink:
    """h(z) = 1/(1 + exp(-z))."""

    name: ClassVar[str] = "logistic"
    discontinuities: ClassVar[Tuple[float, ...]] = ()
    noise_var: ClassVar[Optional[float]] = None

    def h(self, z):
        # [()] gives a scalar for scalar z, as the other links do
        return _logistic(np.asarray(z, dtype=float))[()]


@dataclass(frozen=True)
class ProbitLink:
    """h(z) = Phi(z)."""

    name: ClassVar[str] = "probit"
    discontinuities: ClassVar[Tuple[float, ...]] = ()
    noise_var: ClassVar[Optional[float]] = 1.0

    def h(self, z):
        return _ndtr(np.asarray(z, dtype=float))


_LINKS = {link.name: link for link in (SignLink, LogisticLink, ProbitLink)}


def link_from_name(name: str):
    if name not in _LINKS:
        raise ConfigError(f"unknown link: {name!r}")
    return _LINKS[name]()


def hat_h_p(z, link, p: float):
    """Flip-corrupted label probability (1-p)h(z) + p(1-h(z)).

    Accepts the closed interval [0, 0.5]; p = 0.5 makes labels pure noise.
    """
    if not (0.0 <= p <= 0.5):
        raise DomainError("p must lie in [0, 0.5]")
    return _label_factor(link.h(z), p)


def _label_factor(h, p: float):
    """p + (1-2p)*h over the link values h, written over h where it is an array."""
    h *= 1.0 - 2.0 * p
    h += p
    return h


# --------------------------------------------------------------------------
# parameters and data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GlmParams:
    """gamma^2 is the limit of ||beta||^2/d; alpha = d/n; p the flip rate.

    The sign link is invariant to the scale of beta, so gamma is fixed to 1
    internally for it (the supplied value is still recorded).
    """

    gamma: float
    alpha: float
    p: float
    link: object
    n: int = 1000
    d: Optional[int] = None

    def __post_init__(self):
        _validate_shared_params(self)

    @property
    def gamma_eff(self) -> float:
        return 1.0 if self.link.noise_var == 0.0 else self.gamma

    @property
    def prior_var(self) -> float:
        """Variance of the latent margin x.beta in the large-system limit."""
        return self.alpha * self.gamma_eff**2


@dataclass(frozen=True, eq=False)
class GlmDataset:
    """Sampled design, coefficients, clean and flipped labels.

    X is float32 (:func:`sample_glm_dataset`); the vectors are float64.
    """

    X: np.ndarray          # (n, d) float32, entries N(0, 1/n)
    beta_true: np.ndarray  # (d,), ||beta||^2/d = gamma_eff^2
    y_true: np.ndarray     # (n,) of +-1
    y_noisy: np.ndarray    # (n,) of +-1

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def scale(self) -> float:
        """Matvec scale of the retraining step: 1, X already carries the 1/n covariance."""
        return 1.0


def sample_glm_dataset(params: GlmParams, rng: RngStream) -> GlmDataset:
    """Rows x_i ~ N(0, I/n); P(y=1|x) = h(x.beta); labels flipped w.p. p.

    X is the float32 :meth:`RngStream.gaussian_matrix`; the margins x.beta
    are its float32 product with beta, returned as float64.
    """
    gen = rng.generator()
    beta = gen.standard_normal(params.d)
    beta *= params.gamma_eff * math.sqrt(params.d) / np.linalg.norm(beta)
    X = rng.gaussian_matrix(params.n, params.d, sd=1.0 / math.sqrt(params.n))
    margins = _matvec(X, beta)
    y = np.where(gen.random(params.n) < params.link.h(margins), 1.0, -1.0)
    flips = gen.random(params.n) < params.p
    y_noisy = np.where(flips, -y, y)
    return GlmDataset(X=X, beta_true=beta, y_true=y, y_noisy=y_noisy)


# --------------------------------------------------------------------------
# aggregators
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _OptimalAggregator:
    """The Bayes-optimal aggregator g(u, yhat) = (1/prior_var + quad_a) *
    E[Z | u, yhat] - lin_b * u, with the channel coefficients (quad_a, lin_b)
    matched to the law of the soft predictions: (eta^2, 1/alpha) on the
    self-consistent trajectory, or ((mu/sigma)^2, mu/sigma^2) for an
    arbitrary state.  :class:`OptimalGlm` evaluates it by quadrature and
    :class:`OptimalSign` in closed form; neither adds a field.
    """

    quad_a: float
    lin_b: float
    link: object
    p: float
    prior_var: float

    y_breakpoints = ()

    @classmethod
    def from_eta(cls, eta: float, params: GlmParams):
        if not (eta >= 0 and math.isfinite(eta)):
            raise DomainError("eta must be finite and non-negative")
        return cls(quad_a=_square(eta, "eta"), lin_b=1.0 / params.alpha, link=params.link,
                   p=params.p, prior_var=params.prior_var)

    @classmethod
    def from_se_state(cls, state, params: GlmParams):
        return cls(quad_a=_square(state.mu / state.sigma, "mu/sigma"),
                   lin_b=state.mu / _square(state.sigma, "sigma"), link=params.link, p=params.p,
                   prior_var=params.prior_var)


class OptimalGlm(_OptimalAggregator):
    """The optimal aggregator for a generic link (the logistic), evaluated by quadrature.

    Every evaluation runs one kernel (:meth:`_evaluate`): one posterior rule
    and one link evaluation per point serve whichever labels are asked for,
    the points go in fixed blocks of :data:`_POSTERIOR_ROWS` rows over the
    usable CPUs, and each row is contracted on its own.  A point's value and
    derivative therefore have the same bits whether it is evaluated alone,
    in any batch or order, or on any number of threads.
    """

    def _evaluate(self, u, yhat):
        """(g, dg/du, P(yhat | u)) at the points u, each of shape (labels,) +
        u.shape: with ``yhat``, one label per point, a single row for those
        labels; with ``yhat`` None two rows, labels +1 and -1 at every point,
        and dg/du None.  Coefficients that are arrays (a batch of matched
        aggregators, one per row of u: see ``glm_se.se_step_glm_opt``)
        broadcast with u, so each point has its own posterior.

        g = prefac * E[Z | u, yhat] - lin_b * u with prefac = 1/prior_var + quad_a,
        and dg/du = prefac * lin_b * Var[Z | u, yhat] - lin_b, since
        dE[Z | u, yhat]/du = lin_b * Var[Z | u, yhat].  The posterior density of
        the margin is proportional to
            exp(-quad_a*z^2/2 + lin_b*u*z) * f_yhat(z) * exp(-z^2/(2*prior_var)),
        i.e. a Gaussian N(m, s^2) with s^2 = 1/prefac, m = lin_b*s^2*u,
        reweighted by the label factor f_+ = hhat_p, f_- = 1 - hhat_p.
        Completing the square and centering the quadrature on (m, s) keeps the
        integrand bounded, so no log-domain rescue is needed.  The rule is
        :func:`gaussian_rule` split at the link's jumps, so smooth links get
        Gauss-Hermite, of :data:`ORDER` nodes.  One rule and one link evaluation
        serve both labels.  A precision prefac above :data:`_PRECISION_MAX`
        raises :class:`DomainError`.

        Both moments are taken about the rule's centre m, where the first one,
        c1, is small.  Since prefac * m = lin_b * u, g is prefac * c1, which does
        not cancel at large u, and the variance is the second less c1^2, which
        does not cancel either.

        The points go in blocks of :data:`_POSTERIOR_ROWS`, each with its own
        (m, s), spread over the usable CPUs by ``numerics._split``, and each
        point is contracted with the weights on its own (``np.vecdot``), so its
        bits depend neither on the other points nor on the thread count.
        """
        prefac = 1.0 / self.prior_var + self.quad_a
        if not np.all(prefac <= _PRECISION_MAX):
            raise DomainError(f"posterior precision {np.max(prefac):.3g} is above "
                              f"{_PRECISION_MAX:.0e}, where its quadrature no longer resolves g")
        s2 = 1.0 / prefac
        m = self.lin_b * s2 * u
        s = np.sqrt(s2)
        # one (m, s) per point; a scalar s serves them all
        place = _rule_at(s if s.ndim == 0 else np.broadcast_to(s, m.shape).ravel(),
                         self.link.discontinuities, ORDER)
        shape, m = m.shape, m.ravel()
        if yhat is not None:
            yhat = np.broadcast_to(yhat, shape).ravel()
        # moments 0, 1 and, for the derivative, 2; one row per label asked for
        sums = np.empty((2, 2, m.size) if yhat is None else (3, 1, m.size))
        blocks = max(1, -(-m.size // _POSTERIOR_ROWS))

        # runs on the helper threads too, so it calls numpy and private helpers
        # only (see numerics._split)
        def block_range(a, b):
            for k in range(a, b):
                rows = slice(k * _POSTERIOR_ROWS, (k + 1) * _POSTERIOR_ROWS)
                z, w = place(m, rows)
                f = _label_factor(self.link.h(z), self.p)
                # the link has read the nodes: their offsets from the centre overwrite them
                offset = np.subtract(z, m[rows, None], out=z)
                if yhat is None:
                    _centred_sums(f.copy(), offset, w, sums[:, 0, rows])
                    np.subtract(1.0, f, out=f)
                else:
                    np.subtract(1.0, f, out=f, where=yhat[rows, None] < 0.0)
                # the last row: the given labels', or label -1's
                _centred_sums(f, offset, w, sums[:, -1, rows])

        _split(blocks, block_range)
        sums = sums.reshape(sums.shape[:2] + shape)
        den = sums[0]
        if np.any(den <= 0.0) or not np.all(np.isfinite(den)):
            raise DomainError(
                "posterior normalization vanished (label factor has no mass near the channel)"
            )
        c1 = sums[1] / den
        dg = None
        if yhat is not None:
            var = sums[2] / den - c1 * c1
            dg = prefac * self.lin_b * var - self.lin_b
        return prefac * c1, dg, den

    def value_and_deriv(self, u, yhat):
        u, yhat = _label_arrays(u, yhat)
        g, dg, _ = self._evaluate(u, yhat)
        return g[0], dg[0]

    def label_values(self, u):
        """(g(u, +1), g(u, -1), P(Yhat = +1 | u)): both labels at the same points
        share the rule and the link evaluation."""
        u, _ = _label_arrays(u, 1.0)
        g, _, den = self._evaluate(u, None)
        return g[0], g[1], den[0]


def _centred_sums(f, offset, w, out):
    """Row by row, the weighted sums of f, f*offset, f*offset^2, ... into
    out[0], out[1], ... (as many as out has); f is overwritten."""
    np.vecdot(f, w, out=out[0])
    for moment in out[1:]:
        f *= offset
        np.vecdot(f, w, out=moment)


class OptimalSign(_OptimalAggregator):
    """Closed-form optimal aggregator of the Gaussian-threshold links (sign and probit).

    With tau^2 = link.noise_var, s^2 = (1/prior_var + quad_a)^(-1),
    s_eff = sqrt(s^2 + tau^2), k = s/s_eff (exactly 1.0 for the sign link)
    and r = lin_b*u*s*k:
    g(u, yhat) = (1/s_eff) * (1-2p)*yhat*sqrt(2/pi)*exp(-r^2/2)
                 / (1 + (1-2p)*yhat*(2*Phi(r) - 1)),
    evaluated at p = 0 as (1/s_eff) * yhat*sqrt(2/pi) / erfcx(-yhat*r/sqrt(2)).
    """

    def _value(self, u, yhat):
        """(g, r, s, k) at the points u, arrays checked by ``_label_arrays``."""
        s2 = 1.0 / (1.0 / self.prior_var + self.quad_a)
        s, s_eff = np.sqrt(s2), np.sqrt(s2 + self.link.noise_var)
        k = s / s_eff
        r = self.lin_b * s * u * k
        if self.p == 0.0:
            # 1 + yhat*(2*Phi(r) - 1) = 2*Phi(yhat*r), which underflows where
            # yhat*r << 0; exp(-r^2/2) / (2*Phi(yhat*r)) = 1/erfcx(-yhat*r/sqrt(2))
            g = yhat * math.sqrt(2.0 / math.pi) / _erfcx(-yhat * r / math.sqrt(2.0))
            return g / s_eff, r, s, k
        amp = (1.0 - 2.0 * self.p) * yhat
        num = amp * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * r * r)
        den = 1.0 + amp * (2.0 * _ndtr(r) - 1.0)
        return num / (den * s_eff), r, s, k

    def value_and_deriv(self, u, yhat):
        """dg/du = -lin_b * (r*s*k*g + s^2*g^2): the numerator's r-derivative is
        -r times itself and the denominator's is the numerator.  At p = 0 the sum
        is k^2*lam*(t + lam) with t = yhat*r and lam = yhat*s_eff*g = phi(t)/Phi(t),
        and t + lam cancels below t = -8; there it is 1/(x + 2/(x + 3/(x + ...)))
        at x = -t, exact to rounding at 20 terms."""
        u, yhat = _label_arrays(u, yhat)
        g, r, s, k = self._value(u, yhat)
        dg = -self.lin_b * (r * s * k * g + s * s * g * g)
        if self.p == 0.0:
            x = cf = np.maximum(-yhat * r, 8.0)
            for j in range(20, 1, -1):
                cf = x + j / cf
            dg = np.where(yhat * r <= -8.0, -self.lin_b * yhat * s * k * g / cf, dg)
        return g, dg

    def label_values(self, u):
        """(g(u, +1), g(u, -1), P(Yhat = +1 | u) = p + (1-2p)*Phi(r)), in closed form."""
        u, yhat = _label_arrays(u, 1.0)
        g_plus, r, _, _ = self._value(u, yhat)
        return g_plus, self._value(u, -yhat)[0], self.p + (1.0 - 2.0 * self.p) * _ndtr(r)


# --------------------------------------------------------------------------
# test error
# --------------------------------------------------------------------------

def error_curve_glm(rho: float, params: GlmParams) -> float:
    """Misclassification rate as a function of the overlap rho, by quadrature
    of :data:`ORDER` nodes per piece.

    E_Z[Phi(rho*Z/sqrt(1-rho^2))*(1-h(sqrt(alpha)*gamma*Z))
        + Phi(-rho*Z/sqrt(1-rho^2))*h(sqrt(alpha)*gamma*Z)],  Z ~ N(0,1).
    Where c = rho/sqrt(1-rho^2) is not 0, the rule is split at 0 and at
    +-8/c, where Phi(c*z) turns from 0 to 1 (a step at 0 as rho nears 1);
    it is split at the link's jumps too.  Decreasing in rho whenever
    h(u) > h(-u) for u > 0.
    """
    if not (-1.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [-1, 1]")
    scale = math.sqrt(params.alpha) * params.gamma_eff
    breakpoints = {b / scale for b in params.link.discontinuities}
    # at |rho| = 1, c is +-inf: Phi(c*z) is the step at 0, and +-8/c are 0
    coef = math.copysign(math.inf, rho) if abs(rho) == 1.0 else rho / math.sqrt(1.0 - rho * rho)
    if coef != 0.0:   # Phi(c*z) turns from 0 to 1 on |z| < 8/|c|, if in the window
        breakpoints |= {0.0, *(b for b in (8 / coef, -8 / coef) if abs(b) < _SPLIT_HALF_WIDTH)}

    def integrand(z):
        hv = params.link.h(scale * z)
        phi_pos, phi_neg = _ndtr(np.stack([coef * z, -coef * z]))   # one kernel call
        return phi_pos * (1.0 - hv) + phi_neg * hv

    z, w = gaussian_rule(0.0, 1.0, sorted(breakpoints), ORDER)
    return float(integrand(z) @ w)


def _error_from_overlap(rho: float, params: GlmParams) -> float:
    """Misclassification rate at overlap rho: arccos(rho*sqrt(S^2/(S^2 + noise_var)))/pi
    exactly, S^2 = prior_var, for the sign and probit links, else the quadrature error curve."""
    if params.link.noise_var is None:
        return error_curve_glm(rho, params)
    factor = math.sqrt(params.prior_var / (params.prior_var + params.link.noise_var))
    return float(np.arccos(np.clip(rho * factor, -1.0, 1.0)) / math.pi)


def overlap_glm(theta: np.ndarray, beta_true: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    tn = np.linalg.norm(theta)
    bn = np.linalg.norm(beta_true)
    if tn == 0.0 or bn == 0.0 or not (np.isfinite(tn) and np.isfinite(bn)):
        raise DegenerateModelError("zero or non-finite norm in overlap")
    return float(np.clip(beta_true @ theta / (bn * tn), -1.0, 1.0))


def test_error_glm(theta: np.ndarray, data: GlmDataset, params: GlmParams) -> float:
    """Population misclassification rate of sign(x.theta).

    Gaussian-threshold links (sign, probit) use the exact arccos form; other
    links evaluate the quadrature error curve (:func:`_error_from_overlap`).
    """
    return _error_from_overlap(overlap_glm(theta, data.beta_true), params)


def glm_evaluator(data: GlmDataset, params: GlmParams):
    """evaluate(beta) -> (test error, overlap rho) for the engine."""

    def evaluate(beta):
        return test_error_glm(beta, data, params), overlap_glm(beta, data.beta_true)

    return evaluate
