"""Generalized-linear ground truth under label flipping.

Link functions, data generation, the Bayes-optimal aggregator (generic link
via quadrature, sign link in closed form) with its analytic derivative, and
test error through the overlap rho = beta.theta/(|beta||theta|).  The
retraining iteration is :mod:`amp_retrain.retrain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from .errors import ConfigError, DegenerateModelError, DomainError
from scipy.special import erfcx, ndtr

from .gmm import _label_arrays, _validate_shared_params
from .numerics import RngStream, _matvec, gaussian_rule, stable_logistic, std_normal_cdf


# Quadrature order of the posterior rule of OptimalGlm and of the error curve.
ORDER = 61


# --------------------------------------------------------------------------
# link functions
# --------------------------------------------------------------------------
# Each link has h(u) > h(-u) for u > 0, which makes the error curve decreasing
# in the overlap.  A link has no scale of its own: a steeper link is a larger
# gamma, the norm of beta.

@dataclass(frozen=True)
class SignLink:
    """h(z) = (1 + sign(z))/2: deterministic labels y = sign(x.beta)."""

    name: ClassVar[str] = "sign"
    discontinuities: ClassVar[Tuple[float, ...]] = (0.0,)

    def h(self, z):
        return 0.5 * (1.0 + np.sign(z))


@dataclass(frozen=True)
class LogisticLink:
    """h(z) = 1/(1 + exp(-z))."""

    name: ClassVar[str] = "logistic"
    discontinuities: ClassVar[Tuple[float, ...]] = ()

    def h(self, z):
        return stable_logistic(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class ProbitLink:
    """h(z) = Phi(z)."""

    name: ClassVar[str] = "probit"
    discontinuities: ClassVar[Tuple[float, ...]] = ()

    def h(self, z):
        return ndtr(np.asarray(z, dtype=float))


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
    return p + (1.0 - 2.0 * p) * link.h(z)


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
        return 1.0 if isinstance(self.link, SignLink) else self.gamma

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
class OptimalGlm:
    """Optimal aggregator for a generic link, evaluated by quadrature.

    g(u, yhat) = (1/prior_var + quad_a) * E[Z | u, yhat] - lin_b * u, with the
    channel coefficients (quad_a, lin_b) matched to the law of the soft
    predictions: (eta^2, 1/alpha) on the self-consistent trajectory, or
    ((mu/sigma)^2, mu/sigma^2) for an arbitrary state.
    """

    quad_a: float
    lin_b: float
    link: object
    p: float
    prior_var: float

    y_breakpoints = ()

    @classmethod
    def from_eta(cls, eta: float, params: GlmParams) -> "OptimalGlm":
        if not (eta >= 0 and math.isfinite(eta)):
            raise DomainError("eta must be finite and non-negative")
        if eta == 0.0 and isinstance(params.link, SignLink):
            raise DomainError(
                "eta = 0 with the sign link: use the closed-form sign aggregator limit"
            )
        return cls(quad_a=eta**2, lin_b=1.0 / params.alpha, link=params.link, p=params.p,
                   prior_var=params.prior_var)

    @classmethod
    def from_se_state(cls, state, params: GlmParams) -> "OptimalGlm":
        return cls(quad_a=(state.mu / state.sigma) ** 2, lin_b=state.mu / state.sigma**2,
                   link=params.link, p=params.p, prior_var=params.prior_var)

    def _evaluate(self, u, labels, deriv):
        """{yhat: (g, dg/du or None, P(yhat | u))} at the points u, a 1-D array,
        for each label of ``labels``.

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
        serve every label.

        Both moments are taken about the rule's centre m, where the first one,
        c1, is small.  Since prefac * m = lin_b * u, g is prefac * c1, which does
        not cancel at large u, and the variance is the second less c1^2, which
        does not cancel either.
        """
        prefac = 1.0 / self.prior_var + self.quad_a
        s2 = 1.0 / prefac
        m = self.lin_b * s2 * u
        z, w = gaussian_rule(m, math.sqrt(s2), self.link.discontinuities, ORDER)
        # split weights move with each centre; Hermite weights are shared, and a
        # matrix-vector product contracts them several times faster
        dot = np.matmul if w.ndim == 1 else np.vecdot
        hp = hat_h_p(z, self.link, self.p)
        # the link has read the nodes: their offsets from the centre overwrite them
        offset = np.subtract(z, m[..., None], out=z)
        out = {}
        # +1 first: the factor of -1, 1 - hhat_p, is written over hhat_p
        for lab in sorted(labels, reverse=True):
            f = hp if lab > 0 else np.subtract(1.0, hp, out=hp)
            den = dot(f, w)
            if np.any(den <= 0.0) or not np.all(np.isfinite(den)):
                raise DomainError(
                    "posterior normalization vanished (label factor has no mass near the channel)"
                )
            c1 = dot(f * offset, w) / den
            dg = None
            if deriv:
                var = dot(f * offset**2, w) / den - c1 * c1
                dg = prefac * self.lin_b * var - self.lin_b
            out[lab] = (prefac * c1, dg, den)
        return out

    def value_and_deriv(self, u, yhat):
        # each point has one label: one posterior rule per label's subset
        u, yhat = _label_arrays(u, yhat)
        g, dg = np.empty_like(u), np.empty_like(u)
        for lab in (1.0, -1.0):
            mask = yhat == lab
            if np.any(mask):
                g[mask], dg[mask], _ = self._evaluate(u[mask], (lab,), True)[lab]
        return g, dg

    def label_values(self, u):
        """(g(u, +1), g(u, -1), P(Yhat = +1 | u)): both labels at the same points
        share the rule and the link evaluation."""
        u, _ = _label_arrays(u, 1.0)
        g = self._evaluate(u.ravel(), (1.0, -1.0), False)
        return tuple(a.reshape(u.shape) for a in (g[1.0][0], g[-1.0][0], g[1.0][2]))


@dataclass(frozen=True)
class OptimalSign:
    """Closed-form optimal aggregator for the sign link.

    With s^2 = (1/alpha + quad_a)^(-1) and r = lin_b*u*s:
    g(u, yhat) = (1/s) * (1-2p)*yhat*sqrt(2/pi)*exp(-r^2/2)
                 / (1 + (1-2p)*yhat*(2*Phi(r) - 1)),
    evaluated at p = 0 as (1/s) * yhat*sqrt(2/pi) / erfcx(-yhat*r/sqrt(2)).
    """

    quad_a: float
    lin_b: float
    p: float
    alpha: float

    y_breakpoints = ()

    @classmethod
    def from_eta(cls, eta: float, params: GlmParams) -> "OptimalSign":
        if not (eta > 0 and math.isfinite(eta)):
            raise DomainError("eta must be positive and finite")
        return cls(quad_a=eta**2, lin_b=1.0 / params.alpha, p=params.p, alpha=params.alpha)

    @classmethod
    def from_se_state(cls, state, params: GlmParams) -> "OptimalSign":
        return cls(quad_a=(state.mu / state.sigma) ** 2, lin_b=state.mu / state.sigma**2,
                   p=params.p, alpha=params.alpha)

    @property
    def _s(self) -> float:
        return math.sqrt(1.0 / (1.0 / self.alpha + self.quad_a))

    def _value(self, u, yhat):
        """(g, r, s) at the points u."""
        u, yhat = _label_arrays(u, yhat)
        s = self._s
        r = self.lin_b * s * u
        if self.p == 0.0:
            # 1 + yhat*(2*Phi(r) - 1) = 2*Phi(yhat*r), which underflows where
            # yhat*r << 0; exp(-r^2/2) / (2*Phi(yhat*r)) = 1/erfcx(-yhat*r/sqrt(2))
            g = yhat * math.sqrt(2.0 / math.pi) / erfcx(-yhat * r / math.sqrt(2.0))
            return g / s, r, s
        amp = (1.0 - 2.0 * self.p) * yhat
        num = amp * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * r * r)
        den = 1.0 + amp * (2.0 * std_normal_cdf(r) - 1.0)
        return num / (den * s), r, s

    def value_and_deriv(self, u, yhat):
        """dg/du = -lin_b * (r*s*g + s^2*g^2): the numerator's r-derivative is
        -r times itself and the denominator's is the numerator.  At p = 0 the
        sum is lam*(t + lam) with t = yhat*r and lam = yhat*s*g = phi(t)/Phi(t)
        the inverse Mills ratio, and t + lam cancels below t = -8; there it is
        1/(x + 2/(x + 3/(x + ...))) at x = -t, exact to rounding at 20 terms."""
        u, yhat = _label_arrays(u, yhat)
        g, r, s = self._value(u, yhat)
        dg = -self.lin_b * (r * s * g + s * s * g * g)
        if self.p == 0.0:
            x = cf = np.maximum(-yhat * r, 8.0)
            for k in range(20, 1, -1):
                cf = x + k / cf
            dg = np.where(yhat * r <= -8.0, -self.lin_b * yhat * s * g / cf, dg)
        return g, dg

    def label_values(self, u):
        """(g(u, +1), g(u, -1), P(Yhat = +1 | u) = p + (1-2p)*Phi(r)), in closed form."""
        g_plus, r, _ = self._value(u, 1.0)
        return g_plus, self._value(u, -1.0)[0], self.p + (1.0 - 2.0 * self.p) * std_normal_cdf(r)


# --------------------------------------------------------------------------
# test error
# --------------------------------------------------------------------------

def error_curve_glm(rho: float, params: GlmParams) -> float:
    """Misclassification rate as a function of the overlap rho, by quadrature
    of :data:`ORDER` nodes per piece.

    E_Z[Phi(rho*Z/sqrt(1-rho^2))*(1-h(sqrt(alpha)*gamma*Z))
        + Phi(-rho*Z/sqrt(1-rho^2))*h(sqrt(alpha)*gamma*Z)],  Z ~ N(0,1).
    Links with jumps are integrated piecewise.  Decreasing in rho whenever
    h(u) > h(-u) for u > 0.
    """
    if not (-1.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [-1, 1]")
    scale = math.sqrt(params.alpha) * params.gamma_eff
    if abs(rho) >= 1.0 - 1e-14:
        sgn = 1.0 if rho > 0 else -1.0

        def integrand(z):
            hv = params.link.h(scale * z)
            return np.where(sgn * z >= 0, 1.0 - hv, hv)
    else:
        coef = rho / math.sqrt(1.0 - rho * rho)

        def integrand(z):
            hv = params.link.h(scale * z)
            return ndtr(coef * z) * (1.0 - hv) + ndtr(-coef * z) * hv

    z, w = gaussian_rule(0.0, 1.0, [b / scale for b in params.link.discontinuities], ORDER)
    return float(integrand(z) @ w)


def _error_from_overlap(rho: float, params: GlmParams) -> float:
    """Misclassification rate at overlap rho: arccos(rho)/pi exactly for the
    sign link, the quadrature error curve for other links."""
    if isinstance(params.link, SignLink):
        return float(np.arccos(np.clip(rho, -1.0, 1.0)) / math.pi)
    return error_curve_glm(rho, params)


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

    Sign link uses the exact identity arccos(rho)/pi; other links evaluate the
    quadrature error curve.
    """
    return _error_from_overlap(overlap_glm(theta, data.beta_true), params)


def glm_evaluator(data: GlmDataset, params: GlmParams):
    """evaluate(beta) -> (test error, overlap rho) for the engine."""

    def evaluate(beta):
        return test_error_glm(beta, data, params), overlap_glm(beta, data.beta_true)

    return evaluate
