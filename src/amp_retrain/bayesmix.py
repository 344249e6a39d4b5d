"""Practical soft-label aggregation from a bimodal Gaussian fit to logits.

Fit a two-component univariate Gaussian mixture to the unnormalized logits of
a trained classifier, then combine each logit with its (noisy) given label
into a soft retraining target via the posterior-mean rule with general
component means/variances.  A desk-scale retraining demo iterates the recipe
with a plain least-squares trainer, as a rule of the uncorrected retraining
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DegenerateFitError, DomainError
from .gmm import GmmParams, _label_arrays, gmm_evaluator, sample_gmm_dataset
from .numerics import RngStream
from .retrain import run_hard_baseline


# The EM fit: at most _EM_ITERATIONS iterations, stopping once the
# log-likelihood gains less than _EM_LOGLIK_TOL; sigmas are clamped at
# _EM_FLOOR_FRACTION times the logits' standard deviation.
_EM_ITERATIONS = 200
_EM_LOGLIK_TOL = 1e-8
_EM_FLOOR_FRACTION = 1e-3


@dataclass(frozen=True)
class BimodalFit:
    """Two-component 1-D Gaussian mixture; 'plus' is the higher-mean component.

    The means must be finite, the sigmas positive and finite, and pi_plus in
    (0, 1); anything else raises :class:`DegenerateFitError`.
    """

    mu_plus: float
    mu_minus: float
    sigma_plus: float
    sigma_minus: float
    pi_plus: float
    loglik: float
    iterations: int
    sigma_clamped: bool = False

    def __post_init__(self):
        means = (self.mu_plus, self.mu_minus)
        sigmas = (self.sigma_plus, self.sigma_minus)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (*means, *sigmas, self.pi_plus)):
            raise DegenerateFitError("fit means, sigmas and pi_plus must be numbers")
        if not all(math.isfinite(m) for m in means):
            raise DegenerateFitError("fit means must be finite")
        if not all(0.0 < s < math.inf for s in sigmas):
            raise DegenerateFitError("fit sigmas must be positive and finite")
        if not 0.0 < self.pi_plus < 1.0:
            raise DegenerateFitError("fit pi_plus must lie in (0, 1)")


def _gauss_pdf(z, mu, sigma):
    return np.exp(-0.5 * ((z - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def fit_bimodal_em(logits: Sequence[float]) -> BimodalFit:
    """EM fit of a two-component mixture to 1-D logits.

    Initialization splits the data at zero (conditional means/stds of the
    positive and negative logits); if one side is empty, means start at the
    median +- one standard deviation.  Components stay sorted by mean, sigmas
    are clamped at the floor (flagged, never silent), and the log-likelihood
    is checked to be non-decreasing whenever no clamp was applied.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or z.size < 4:
        raise DegenerateFitError("need at least 4 logits")
    if not np.all(np.isfinite(z)):
        raise DomainError("logits must be finite")
    spread = float(np.std(z))
    if spread == 0.0:
        raise DegenerateFitError("all logits identical")
    floor = _EM_FLOOR_FRACTION * spread

    # one column per component, plus then minus, so each E- and M-step
    # quantity is one (2, 1) or (2, n) array
    pos = z[z > 0]
    neg = z[z <= 0]
    if pos.size == 0 or neg.size == 0:
        med = float(np.median(z))
        mu = np.array([[med + spread], [med - spread]])
        sigma = np.full((2, 1), max(spread, floor))
        w_p = 0.5
    else:
        mu = np.array([[np.mean(pos)], [np.mean(neg)]])
        sigma = np.maximum([[np.std(pos)], [np.std(neg)]], floor)
        w_p = float(np.clip(pos.size / z.size, 0.05, 0.95))

    resp = np.empty((2, z.size))
    loglik = -np.inf
    clamped = False
    iterations = 0
    for iterations in range(1, _EM_ITERATIONS + 1):
        dens = np.array([[w_p], [1.0 - w_p]]) * _gauss_pdf(z, mu, sigma)
        total = np.maximum(dens[0] + dens[1], 1e-300)
        new_loglik = float(np.sum(np.log(total)))
        if not clamped and new_loglik < loglik - 1e-8 * max(1.0, abs(loglik)):
            raise AssertionError(
                f"EM log-likelihood decreased: {loglik} -> {new_loglik}"
            )
        improved = new_loglik - loglik
        loglik = new_loglik
        if improved < _EM_LOGLIK_TOL and iterations > 1:
            break
        np.divide(dens[0], total, out=resp[0])
        np.subtract(1.0, resp[0], out=resp[1])
        mass = np.sum(resp, axis=1, keepdims=True)
        w_p = float(np.clip(mass[0, 0] / z.size, 1e-12, 1.0 - 1e-12))
        mu = np.sum(resp * z, axis=1, keepdims=True) / mass
        var = np.sum(resp * (z - mu) ** 2, axis=1, keepdims=True) / mass
        sigma = np.sqrt(np.maximum(var, 0.0))
        if np.any(sigma < floor):
            sigma, clamped = np.maximum(sigma, floor), True
        if mu[0, 0] < mu[1, 0]:
            mu, sigma, w_p = mu[::-1], sigma[::-1], 1.0 - w_p
    return BimodalFit(
        mu_plus=float(mu[0, 0]),
        mu_minus=float(mu[1, 0]),
        sigma_plus=float(sigma[0, 0]),
        sigma_minus=float(sigma[1, 0]),
        pi_plus=w_p,
        loglik=loglik,
        iterations=iterations,
        sigma_clamped=clamped,
    )


def bayesmix_aggregate(z, yhat, fit: BimodalFit, p: float):
    """Soft target from a logit and its given label.

    The posterior mean of the class under the fitted mixture: tanh of half
    the posterior log-odds, that is the label evidence yhat*log((1-p)/p), the
    two quadratic mixture terms, the Gaussian normalizer
    log(sigma_minus/sigma_plus) and the component-weight prior.  p = 0
    returns the given label exactly (infinite label evidence); p = 0.5 removes
    the label term.  Vectorized over z / yhat; a non-finite logit or a label
    other than +-1 raises :class:`DomainError`, as for the aggregators.
    """
    if not (0.0 <= p <= 0.5):
        raise DomainError("p must lie in [0, 0.5]")
    z, yhat_arr = _label_arrays(z, yhat)
    if p == 0.0:
        out = yhat_arr.copy()
        return float(out) if out.ndim == 0 else out
    label_term = yhat_arr * math.log((1.0 - p) / p)
    # log N(z; mu_plus, sigma_plus) - log N(z; mu_minus, sigma_minus); the
    # normalizer adds exactly 0.0 when the sigmas are equal
    log_ratio = (z - fit.mu_minus) ** 2 / (2.0 * fit.sigma_minus**2) - (
        z - fit.mu_plus
    ) ** 2 / (2.0 * fit.sigma_plus**2) + math.log(fit.sigma_minus / fit.sigma_plus)
    prior = math.log(fit.pi_plus / (1.0 - fit.pi_plus))
    out = np.tanh(0.5 * (label_term + log_ratio + prior))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RetrainDemoResult:
    accuracies: List[float]   # clean-test accuracy after rounds 0..T-1
    halted_at: Optional[int] = None  # last round before the run halted (EM fit degenerated)


def bayesmix_retrain_demo(params: GmmParams, T: int, rng: RngStream) -> RetrainDemoResult:
    """Desk-scale retraining on Gaussian-mixture data: T steps of
    :func:`run_hard_baseline` with the BayesMix rule.

    Round 0 trains the simplified linear model w = X^T y_noisy / sqrt(n) on
    the noisy labels (the standard tractable stand-in for the least-squares
    fit in this data model; the fully sphered solution shrinks the
    class-mean direction by 1 + gamma^2 and starves the mixture fit).  Each
    later round fits the bimodal mixture to the current train logits,
    aggregates them with the given labels into soft targets, and refits.
    Accuracy is the population clean-test accuracy of the current model.
    The trainer is deliberately simple; the aggregation rule is the point.
    """
    data = sample_gmm_dataset(params, rng)

    def rule(logits, y_noisy):
        return bayesmix_aggregate(logits, y_noisy, fit_bimodal_em(logits), params.p)

    traj = run_hard_baseline(data, rule, T, gmm_evaluator(data))
    # the fit of round k fails in step t = k + 2, which diverged_at flags
    halted_at = None if traj.diverged_at is None else traj.diverged_at - 2
    return RetrainDemoResult(accuracies=[1.0 - e for e in traj.errors.tolist()],
                             halted_at=halted_at)
