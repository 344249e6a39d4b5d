"""Two-component Gaussian-mixture classification under label flipping.

Data generation, the retraining aggregator family, the plain one-shot linear
baseline, and test error.  The memory-corrected iteration itself lives in
:mod:`amp_retrain.retrain`; its correction terms debias the reuse of a fixed
data matrix, which keeps the iterates asymptotically Gaussian and lets the
deterministic recursion in :mod:`amp_retrain.gmm_se` predict their behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateModelError, DomainError
from .numerics import RngStream, _square, stable_logistic, std_normal_cdf
from .retrain import Dataset


# --------------------------------------------------------------------------
# parameters and data
# --------------------------------------------------------------------------

def _validate_shared_params(params) -> None:
    """Checks of the fields GmmParams and GlmParams share; fills in the default
    d = round(alpha * n) on the frozen instance."""
    if not (params.gamma > 0 and math.isfinite(params.gamma)):
        raise ConfigError("gamma must be positive and finite")
    if not (params.alpha > 0 and math.isfinite(params.alpha)):
        raise ConfigError("alpha must be positive and finite")
    if not (0.0 <= params.p < 0.5):
        raise ConfigError("p must lie in [0, 0.5)")
    if params.n < 1:
        raise ConfigError("n must be a positive integer")
    if params.d is None:
        object.__setattr__(params, "d", int(round(params.alpha * params.n)))
    if params.d < 1:
        raise ConfigError("d must be a positive integer")
    # keeps gamma^2, the mean or coefficient vector and its float32 image finite
    if not params.gamma * math.sqrt(params.d) < float(np.finfo(np.float32).max):
        raise ConfigError(f"gamma*sqrt(d) must be below float32's largest value, about 3.4e38, "
                          f"not {params.gamma!r}*sqrt({params.d})")
    if abs(params.d / params.n - params.alpha) > 1.0 / params.n + 1e-9:
        raise ConfigError(
            f"d/n = {params.d / params.n} inconsistent with alpha = {params.alpha}"
        )


@dataclass(frozen=True)
class GmmParams:
    """Experiment configuration for the Gaussian-mixture ground truth.

    gamma is the norm of the class-mean vector, alpha the feature/sample
    ratio d/n, p the label flip probability, pi_plus the probability of the
    +1 class.  d defaults to round(alpha * n).
    """

    gamma: float
    alpha: float
    p: float
    pi_plus: float = 0.5
    n: int = 1000
    d: Optional[int] = None

    def __post_init__(self):
        _validate_shared_params(self)
        # pi_plus in the closed interval: the endpoints give single-class data,
        # useful as degenerate edge cases.
        if not (0.0 <= self.pi_plus <= 1.0):
            raise ConfigError("pi_plus must lie in [0, 1]")

    @property
    def pi_minus(self) -> float:
        return 1.0 - self.pi_plus


_MAX_GAMMA2_SQRT_N = float(np.finfo(np.float32).max) / 2


def sample_gmm_dataset(params: GmmParams, rng: RngStream) -> Dataset:
    """Draw x_i = y_i * mu + z_i with z_i ~ N(0, I_d) and flipped labels.

    The mean is sampled with iid standard normal entries and rescaled so its
    norm equals gamma exactly.  The stream's generator draws mu, the labels
    and the flips, in that order; the noise matrix comes from the stream's
    block children (:meth:`RngStream.gaussian_matrix`), and X is that float32
    matrix plus +-mu rounded to float32.  The dataset's ``truth`` is mu and
    its ``scale`` sqrt(n).  Identical streams reproduce identical datasets.
    (Before version 0.2.0 the generator also drew the noise, between the
    labels and the flips; before 0.19.0 each block's noise was numpy's
    ziggurat ``standard_normal``, where it is now a Box-Muller transform of
    the block's uniforms.)  A gamma whose
    gamma^2*sqrt(n) reaches half of float32's largest value raises
    :class:`ConfigError`: the retraining products would overflow.
    """
    if params.n * (params.d or 0) == 0:
        raise ConfigError("empty dataset requested")
    # the float32 product X @ w of a retraining step reaches about
    # gamma^2*sqrt(n) (the label-weighted w_1 is about sqrt(n)*mu); half of
    # float32's range leaves room for the noise and the rounding of the sum
    if not params.gamma**2 * math.sqrt(params.n) < _MAX_GAMMA2_SQRT_N:
        raise ConfigError(f"gamma^2*sqrt(n) must be below {_MAX_GAMMA2_SQRT_N:.3g} (half of "
                          f"float32's largest value) to sample the mixture, "
                          f"not {params.gamma!r}^2*sqrt({params.n})")
    gen = rng.generator()
    mu = gen.standard_normal(params.d)
    mu *= params.gamma / np.linalg.norm(mu)
    y = np.where(gen.random(params.n) < params.pi_plus, 1.0, -1.0)
    X = rng.gaussian_matrix(params.n, params.d)
    # add +-mu row by row in place (y is +-1): y[:, None] * mu would build a
    # temporary as large as X, and a float64 mu would make numpy upcast X
    pos = (y > 0)[:, None]
    mu32 = mu.astype(X.dtype)
    np.add(X, mu32, out=X, where=pos)
    np.subtract(X, mu32, out=X, where=~pos)
    flips = gen.random(params.n) < params.p
    y_noisy = np.where(flips, -y, y)
    return Dataset(X=X, y_true=y, y_noisy=y_noisy, truth=mu, scale=math.sqrt(params.n))


# --------------------------------------------------------------------------
# aggregators g(y_soft, y_noisy)
# --------------------------------------------------------------------------

def _label_arrays(y, yhat):
    """Soft predictions and given labels as broadcast float arrays.

    Every aggregator's ``value_and_deriv`` takes its arguments through here:
    a non-finite prediction or a label other than +-1 raises
    :class:`DomainError`.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("soft prediction must be finite")
    if not np.all(np.abs(yhat) == 1.0):
        raise DomainError("given label must be +1 or -1")
    return np.broadcast_arrays(y, yhat)


@dataclass(frozen=True)
class IdentityAggregator:
    """g(y, yhat) = yhat: ignores the model prediction entirely."""

    y_breakpoints = ()

    def value_and_deriv(self, y, yhat):
        y, yhat = _label_arrays(y, yhat)
        return yhat.copy(), np.zeros_like(y)


def _channel(state, params: GmmParams):
    """(m_bar, sigma_bar) of the soft predictions U ~ N(m_bar*Y, sigma_bar^2)
    under a state-evolution state (``retrain.SeState``, floats):
    m_bar = gamma*sqrt(alpha)*mu and sigma_bar^2 = alpha*(mu^2 + sigma^2)."""
    return (params.gamma * math.sqrt(params.alpha) * state.mu,
            math.sqrt(params.alpha * (_square(state.mu, "mu") + _square(state.sigma, "sigma"))))


@dataclass(frozen=True)
class OptimalGmm:
    """Posterior-mean aggregator tanh((yhat*L + slope*y + prior) / 2).

    slope is the coefficient on the soft prediction, L = log((1-p)/p) the
    label log-likelihood ratio, prior = log(pi_plus/pi_minus).  Output lies
    strictly inside (-1, 1) for p > 0 and is the conditional mean of the true
    label given (soft prediction, flipped label) when slope matches the
    prediction channel.
    """

    slope: float
    p: float
    log_odds: float
    log_prior: float

    y_breakpoints = ()

    @classmethod
    def from_eta(cls, eta: float, params: GmmParams) -> "OptimalGmm":
        """Slope 2*gamma^2 / (alpha*(eta^2+1)): matched to the self-consistent
        retraining trajectory at signal-to-noise ratio eta."""
        if not (eta >= 0 and math.isfinite(eta)):
            raise DomainError("eta must be finite and non-negative")
        slope = 2.0 * params.gamma**2 / (params.alpha * (_square(eta, "eta") + 1.0))
        return cls._build(slope, params)

    @classmethod
    def from_se_state(cls, state, params: GmmParams) -> "OptimalGmm":
        """Slope 2*m_bar/sigma_bar^2: exact posterior mean for the prediction
        channel (:func:`_channel`) of a state-evolution state.

        On the self-consistent trajectory this equals the slope of
        :meth:`from_eta`; after the identity first step the exact channel
        slope differs from it by a factor (1-2p), and using the exact slope is
        what makes the empirical run track the state evolution (and the Bayes
        identity hold) from t = 1 on.
        """
        m_bar, sigma_bar = _channel(state, params)
        slope = 2.0 * m_bar / _square(sigma_bar, "sigma_bar")
        return cls._build(slope, params)

    @classmethod
    def _build(cls, slope, params):
        log_odds = math.log((1 - params.p) / params.p) if params.p > 0 else math.inf
        if params.pi_plus in (0.0, 1.0):
            log_prior = math.inf if params.pi_plus == 1.0 else -math.inf
        else:
            log_prior = math.log(params.pi_plus / params.pi_minus)
        return cls(slope=slope, p=params.p, log_odds=log_odds, log_prior=log_prior)

    def value_and_deriv(self, y, yhat):
        y, yhat = _label_arrays(y, yhat)
        if self.p == 0.0:
            # infinite log-odds limit: the flipped label is perfectly reliable
            return yhat.copy(), np.zeros_like(y)
        v = np.tanh(0.5 * (yhat * self.log_odds + self.slope * y + self.log_prior))
        return v, 0.5 * self.slope * (1.0 - v * v)


@dataclass(frozen=True)
class _LogisticSurrogate:
    """The steepness beta and its check, shared by the two logistic surrogates."""

    beta: float

    y_breakpoints = (0.0,)

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ConfigError("beta must be positive and finite")


class SmoothedFullRT(_LogisticSurrogate):
    """Logistic surrogate 2*sigmoid(beta*y) - 1 for retraining on sign(y).

    Lipschitz with constant beta/2; sharpens to the hard sign rule as beta
    grows, which is what makes the memory-correction term well defined.
    """

    def value_and_deriv(self, y, yhat):
        y, _ = _label_arrays(y, yhat)
        v = np.tanh(0.5 * self.beta * y)
        return v, 0.5 * self.beta * (1.0 - v * v)


class SmoothedConsensusRT(_LogisticSurrogate):
    """Logistic surrogate yhat*sigmoid(beta*y*yhat) for keeping only samples
    whose prediction agrees with the given label."""

    def value_and_deriv(self, y, yhat):
        y, yhat = _label_arrays(y, yhat)
        s = stable_logistic(self.beta * y * yhat)
        return yhat * s, self.beta * s * (1.0 - s)


# the aggregators that stay the same at every step, by name; "opt" names the
# one matched to each state instead
_CONSTANT_AGGREGATORS = {
    "identity": IdentityAggregator,
    "smoothed_ft": SmoothedFullRT,
    "smoothed_ct": SmoothedConsensusRT,
}
AGGREGATORS = ("opt", *_CONSTANT_AGGREGATORS)


def aggregator_from_name(name: str, beta: Optional[float] = None):
    """The aggregator a name in :data:`AGGREGATORS` stands for, for both models.

    None for "opt": its aggregator is matched to each state-evolution state
    (:meth:`OptimalGmm.from_se_state`, ``glm_se.optimal_aggregator_for_state``).
    The smoothed aggregators need ``beta``.
    """
    if name not in AGGREGATORS:
        raise ConfigError(f"aggregator must be one of {AGGREGATORS}, got {name!r}")
    if name == "opt":
        return None
    cls = _CONSTANT_AGGREGATORS[name]
    if cls is IdentityAggregator:
        return cls()
    if not beta:
        raise ConfigError(f"aggregator {name} needs beta (--beta)")
    return cls(beta)


# --------------------------------------------------------------------------
# scoring a model vector
# --------------------------------------------------------------------------

def test_error_gmm(theta: np.ndarray, mu: np.ndarray) -> float:
    """Population misclassification rate Phi(-mu.theta / ||theta||)."""
    theta = np.asarray(theta, dtype=float)
    nrm = np.linalg.norm(theta)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise DegenerateModelError("model vector has zero or non-finite norm")
    return std_normal_cdf(-float(mu @ theta) / nrm)


def gmm_evaluator(data: Dataset):
    """evaluate(theta) -> (test error, overlap mu.theta/||theta||) for the engine."""

    def evaluate(theta):
        return (test_error_gmm(theta, data.truth),
                float(data.truth @ theta / np.linalg.norm(theta)))

    return evaluate
