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
from .numerics import RngStream, gaussian_rule, stable_logistic, std_normal_cdf


# --------------------------------------------------------------------------
# link functions
# --------------------------------------------------------------------------

def _check_monotone_margin(link) -> None:
    # h(u) > h(-u) for u > 0 is what makes the error curve decreasing in the
    # overlap; asserted numerically on a grid at construction.
    u = np.linspace(1e-3, 8.0, 64)
    if not np.all(link.h(u) > link.h(-u)):
        raise ConfigError(f"link {link!r} violates h(u) > h(-u) for u > 0")


@dataclass(frozen=True)
class SignLink:
    """h(z) = (1 + sign(z))/2: deterministic labels y = sign(x.beta)."""

    name: ClassVar[str] = "sign"
    discontinuities: ClassVar[Tuple[float, ...]] = (0.0,)

    def h(self, z):
        return 0.5 * (1.0 + np.sign(z))


@dataclass(frozen=True)
class LogisticLink:
    scale: float = 1.0

    name: ClassVar[str] = "logistic"
    discontinuities: ClassVar[Tuple[float, ...]] = ()

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ConfigError("link scale must be positive and finite")
        _check_monotone_margin(self)

    def h(self, z):
        return stable_logistic(self.scale * np.asarray(z, dtype=float))


@dataclass(frozen=True)
class ProbitLink:
    scale: float = 1.0

    name: ClassVar[str] = "probit"
    discontinuities: ClassVar[Tuple[float, ...]] = ()

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ConfigError("link scale must be positive and finite")
        _check_monotone_margin(self)

    def h(self, z):
        return ndtr(self.scale * np.asarray(z, dtype=float))


def link_from_name(name: str, scale: float = 1.0):
    if name == "sign":
        return SignLink()
    if name == "logistic":
        return LogisticLink(scale)
    if name == "probit":
        return ProbitLink(scale)
    raise ConfigError(f"unknown link: {name!r}")


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
    X: np.ndarray          # (n, d), entries N(0, 1/n)
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
    """Rows x_i ~ N(0, I/n); P(y=1|x) = h(x.beta); labels flipped w.p. p."""
    gen = rng.generator()
    beta = gen.standard_normal(params.d)
    beta *= params.gamma_eff * math.sqrt(params.d) / np.linalg.norm(beta)
    X = rng.gaussian_matrix(params.n, params.d, sd=1.0 / math.sqrt(params.n))
    margins = X @ beta
    y = np.where(gen.random(params.n) < params.link.h(margins), 1.0, -1.0)
    flips = gen.random(params.n) < params.p
    y_noisy = np.where(flips, -y, y)
    return GlmDataset(X=X, beta_true=beta, y_true=y, y_noisy=y_noisy)


# --------------------------------------------------------------------------
# posterior moments of the latent margin
# --------------------------------------------------------------------------

def _posterior_moments(u, labels, quad_a, lin_b, link, p, prior_var, order, variance):
    """E[Z | u, yhat], and Var[Z | u, yhat] when ``variance``, for each yhat in
    ``labels``: {yhat: (mean, var or None)}, vectorized over u.

    The posterior density is proportional to
        exp(-quad_a*z^2/2 + lin_b*u*z) * f_yhat(z) * exp(-z^2/(2*prior_var)),
    i.e. a Gaussian N(m, s^2) with s^2 = 1/(quad_a + 1/prior_var), m =
    lin_b*s^2*u, reweighted by the label factor f_+ = hhat_p, f_- = 1 - hhat_p.
    Completing the square and centering the quadrature on (m, s) keeps the
    integrand bounded, so no log-domain rescue is needed.  The rule is
    :func:`gaussian_rule` split at the link's jumps, so smooth links get
    Gauss-Hermite.  One rule and one link evaluation serve every label.

    The variance takes its moments about the rule's centre m, where the first
    one is small, so the difference of the second and the squared first does
    not cancel.
    """
    s2 = 1.0 / (quad_a + 1.0 / prior_var)
    m = lin_b * s2 * np.asarray(u, dtype=float)
    z, w = gaussian_rule(m, math.sqrt(s2), link.discontinuities, order)
    # split weights move with each centre; Hermite weights are shared, and a
    # matrix-vector product contracts them several times faster
    dot = np.matmul if w.ndim == 1 else np.vecdot
    hp = hat_h_p(z, link, p)
    out = {}
    # +1 first: the factor of -1, 1 - hhat_p, is written over hhat_p
    for lab in sorted(labels, reverse=True):
        f = hp if lab > 0 else np.subtract(1.0, hp, out=hp)
        den = dot(f, w)
        if np.any(den <= 0.0) or not np.all(np.isfinite(den)):
            raise DomainError(
                "posterior normalization vanished (label factor has no mass near the channel)"
            )
        var = None
        if variance:
            # each offset is a fresh temporary, which numpy reuses in place
            c1 = dot(f * (z - m[..., None]), w) / den
            var = dot(f * (z - m[..., None]) ** 2, w) / den - c1 * c1
        out[lab] = (dot(f * z, w) / den, var)
    return out


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
    order: int = 61

    y_breakpoints = ()

    @classmethod
    def from_eta(cls, eta: float, params: GlmParams, order: int = 61) -> "OptimalGlm":
        if not (eta >= 0 and math.isfinite(eta)):
            raise DomainError("eta must be finite and non-negative")
        if eta == 0.0 and isinstance(params.link, SignLink):
            raise DomainError(
                "eta = 0 with the sign link: use the closed-form sign aggregator limit"
            )
        return cls(
            quad_a=eta**2,
            lin_b=1.0 / params.alpha,
            link=params.link,
            p=params.p,
            prior_var=params.prior_var,
            order=order,
        )

    @classmethod
    def from_se_state(cls, state, params: GlmParams, order: int = 61) -> "OptimalGlm":
        return cls(
            quad_a=(state.mu / state.sigma) ** 2,
            lin_b=state.mu / state.sigma**2,
            link=params.link,
            p=params.p,
            prior_var=params.prior_var,
            order=order,
        )

    def _evaluate(self, u, labels, deriv):
        """{yhat: (g, dg/du or None)} at the points u for each label of ``labels``.

        dg/du = (1/prior_var + quad_a) * lin_b * Var[Z | u, yhat] - lin_b,
        since dE[Z | u, yhat]/du = lin_b * Var[Z | u, yhat].
        """
        prefac = 1.0 / self.prior_var + self.quad_a
        moments = _posterior_moments(u, labels, self.quad_a, self.lin_b, self.link,
                                     self.p, self.prior_var, self.order, deriv)
        return {lab: (prefac * mean - self.lin_b * u,
                      prefac * self.lin_b * var - self.lin_b if deriv else None)
                for lab, (mean, var) in moments.items()}

    def _per_label(self, u, yhat, deriv):
        # each point has one label: one posterior rule per label's subset
        u, yhat = _label_arrays(u, yhat)
        g = np.empty_like(u)
        dg = np.empty_like(u) if deriv else None
        for lab in (1.0, -1.0):
            mask = yhat == lab
            if np.any(mask):
                g_lab, dg_lab = self._evaluate(u[mask], (lab,), deriv)[lab]
                g[mask] = g_lab
                if deriv:
                    dg[mask] = dg_lab
        return g, dg

    def value(self, u, yhat):
        return self._per_label(u, yhat, False)[0]

    def value_and_deriv(self, u, yhat):
        return self._per_label(u, yhat, True)

    def label_values(self, u):
        """(g(u, +1), g(u, -1)): both labels at the same points share the rule
        and the link evaluation."""
        u, _ = _label_arrays(u, 1.0)
        g = self._evaluate(u.ravel(), (1.0, -1.0), False)
        return g[1.0][0].reshape(u.shape), g[-1.0][0].reshape(u.shape)


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

    def value(self, u, yhat):
        return self._value(u, yhat)[0]

    def value_and_deriv(self, u, yhat):
        """dg/du = -lin_b * (r*s*g + s^2*g^2): the numerator's r-derivative is
        -r times itself and the denominator's is the numerator."""
        g, r, s = self._value(u, yhat)
        return g, -self.lin_b * (r * s * g + s * s * g * g)

    def label_values(self, u):
        """(g(u, +1), g(u, -1)), in closed form."""
        return self.value(u, 1.0), self.value(u, -1.0)


# --------------------------------------------------------------------------
# test error
# --------------------------------------------------------------------------

def error_curve_glm(rho: float, params: GlmParams, order: int = 61) -> float:
    """Misclassification rate as a function of the overlap rho, by quadrature.

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

    z, w = gaussian_rule(0.0, 1.0, [b / scale for b in params.link.discontinuities], order)
    return float(integrand(z) @ w)


def _error_from_overlap(rho: float, params: GlmParams, order: int) -> float:
    """Misclassification rate at overlap rho: arccos(rho)/pi exactly for the
    sign link, the quadrature error curve for other links."""
    if isinstance(params.link, SignLink):
        return float(np.arccos(np.clip(rho, -1.0, 1.0)) / math.pi)
    return error_curve_glm(rho, params, order)


def overlap_glm(theta: np.ndarray, beta_true: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    beta_true = np.asarray(beta_true, dtype=float)
    tn = np.linalg.norm(theta)
    bn = np.linalg.norm(beta_true)
    if tn == 0.0 or bn == 0.0 or not (np.isfinite(tn) and np.isfinite(bn)):
        raise DegenerateModelError("zero or non-finite norm in overlap")
    return float(np.clip(beta_true @ theta / (bn * tn), -1.0, 1.0))


def test_error_glm(theta: np.ndarray, data: GlmDataset, params: GlmParams, order: int = 61) -> float:
    """Population misclassification rate of sign(x.theta).

    Sign link uses the exact identity arccos(rho)/pi; other links evaluate the
    quadrature error curve.
    """
    return _error_from_overlap(overlap_glm(theta, data.beta_true), params, order)


def glm_evaluator(data: GlmDataset, params: GlmParams):
    """evaluate(beta) -> (test error, overlap rho) for the engine."""

    def evaluate(beta):
        return test_error_glm(beta, data, params), overlap_glm(beta, data.beta_true)

    return evaluate
