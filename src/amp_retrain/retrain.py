"""The retraining engine shared by both ground-truth models.

One memory-corrected (Onsager) step, in the generic GAMP form of an output
denoiser g and its derivative:

    w' = X^T g(y, yhat) / s - c * w,    y' = X w' / s - g * d/n,

with c = mean(dg/dy); g and dg/dy come from one ``agg.value_and_deriv(y,
yhat)`` call.  Both models' samplers return one record, :class:`Dataset`, and
the engine reads its ``scale`` as s: sqrt(n) for the mixture, whose noise has
unit variance, and 1 for the GLM, whose rows already carry the 1/n
covariance.  The models differ otherwise only in how a model vector is
scored against ``Dataset.truth``, passed in as ``evaluate(w) -> (error,
overlap)``.  The scale is applied by dividing after each matvec.  The state
(w, y_soft, g, c) is float64; each matvec casts its operand to the design
matrix's dtype (float32 for the sampled datasets) and its result back.

A schedule is a tuple of aggregators, one per step.  Its first entry is the
identity aggregator, which makes the first iterate the one-shot estimator
X^T y_noisy / s.

Both models' state evolutions follow the iterate through one two-scalar
:class:`SeState` (signal mu, noise sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, DegenerateFitError, DegenerateModelError, DivergenceError,
                     DomainError, ShapeError)
from .numerics import _matvec, _rmatvec

Evaluate = Callable[[np.ndarray], Tuple[float, float]]


@dataclass(frozen=True)
class SeState:
    """State-evolution pair (mu, sigma) of either model; eta = mu/sigma.

    mu and sigma are floats, or arrays of one shape for a batch of states
    (``glm_se.se_step_glm_opt`` steps one per point).  A model derives its
    prediction channel from the state and its params.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.all((np.asarray(self.sigma) > 0) & np.isfinite(self.sigma)):
            raise DomainError("sigma must be positive and finite")
        if not np.all(np.isfinite(self.mu)):
            raise DomainError("mu must be finite")

    @property
    def eta(self) -> float:
        return self.mu / self.sigma


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sampled training set of either model.

    X is float32 (the samplers' draw); the vectors are float64.  ``truth`` is
    the ground-truth direction: the mixture's class mean (norm gamma) or the
    GLM's coefficients (||beta||^2/d = gamma_eff^2).
    """

    X: np.ndarray        # (n, d)
    y_true: np.ndarray   # (n,) of +-1
    y_noisy: np.ndarray  # (n,) of +-1
    truth: np.ndarray    # (d,)
    scale: float         # the matvec scale s of the retraining step

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class AmpState:
    """Model vector, soft predictions on the training set, and the step index."""

    w: np.ndarray       # (d,)
    y_soft: np.ndarray  # (n,)
    t: int


@dataclass(frozen=True)
class TrajectoryPoint:
    t: int
    error: float
    overlap: float      # mu.theta/||theta|| (mixture) or rho (GLM)
    model_norm: float


@dataclass(frozen=True)
class Trajectory:
    points: list
    diverged_at: Optional[int] = None

    @property
    def errors(self) -> np.ndarray:
        return np.array([pt.error for pt in self.points])


def _checked(w: np.ndarray, y_soft: np.ndarray, t: int) -> AmpState:
    # entries can stay finite while the squared norm overflows; both are divergence
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(w @ w) and np.all(np.isfinite(y_soft))
    if not finite:
        raise DivergenceError("non-finite values in retraining update", iteration=t)
    return AmpState(w=w, y_soft=y_soft, t=t)


def amp_step(state: AmpState, X: np.ndarray, y_noisy: np.ndarray, scale: float,
             agg) -> AmpState:
    """One retraining step with memory correction (formula in the module docstring).

    Raises :class:`DivergenceError` when the new iterate or its squared norm
    is not finite.
    """
    n, d = X.shape
    if state.w.shape[0] != d or state.y_soft.shape[0] != n or np.shape(y_noisy) != (n,):
        raise ShapeError("state dimensions do not match dataset")
    g, dg = agg.value_and_deriv(state.y_soft, y_noisy)
    c = float(np.mean(dg))
    with np.errstate(over="ignore", invalid="ignore"):
        w = _rmatvec(X, g) / scale - c * state.w
        y_soft = _matvec(X, w) / scale - g * (d / n)
    return _checked(w, y_soft, state.t + 1)


def _run(data: Dataset, steps: Sequence, step: Callable, evaluate: Evaluate) -> Trajectory:
    """Apply step(state, entry) once per entry from the zero state, scoring
    each iterate; divergence or a degenerate model or fit truncates the
    trajectory and flags the step that failed."""
    state = AmpState(w=np.zeros(data.d), y_soft=np.zeros(data.n), t=0)
    points = []
    for entry in steps:
        try:
            state = step(state, entry)
            error, overlap = evaluate(state.w)
        except (DivergenceError, DegenerateModelError, DegenerateFitError):
            return Trajectory(points=points, diverged_at=len(points) + 1)
        points.append(TrajectoryPoint(t=state.t, error=error, overlap=overlap,
                                      model_norm=float(np.linalg.norm(state.w))))
    return Trajectory(points=points)


def run_retraining(data: Dataset, aggregators: Sequence, evaluate: Evaluate) -> Trajectory:
    """One memory-corrected step per aggregator of the schedule.

    On divergence the trajectory is truncated and flagged rather than raised.
    """
    if not aggregators:
        raise ConfigError("a schedule needs at least one aggregator")
    return _run(data, aggregators,
                lambda state, agg: amp_step(state, data.X, data.y_noisy, data.scale, agg),
                evaluate)


def _given_labels(y_soft, y_noisy):
    return y_noisy


def _hard_full(y_soft, y_noisy):
    g = np.sign(y_soft)
    g[g == 0] = 1.0
    return g


def _hard_consensus(y_soft, y_noisy):
    return y_noisy * (y_soft * y_noisy > 0)


# the hard rules g(y_soft, y_noisy): the sign of the prediction ("full"), or the
# given label where the prediction agrees with it and 0 elsewhere ("consensus")
HARD_RULES = {"full": _hard_full, "consensus": _hard_consensus}


def run_hard_baseline(data: Dataset, rule: Callable, T: int, evaluate: Evaluate) -> Trajectory:
    """T steps of retraining without memory correction.

    The hard rules of :data:`HARD_RULES` are not Lipschitz, so the corrected
    iteration is undefined for them; this baseline simply iterates
    w' = X^T g / s, y' = X w' / s with g = y_noisy at the first step, then
    g = rule(y, yhat).  Any rule of that signature works; one that raises
    :class:`DegenerateFitError` ends the trajectory there.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")

    def step(state, g_of):
        g = g_of(state.y_soft, data.y_noisy)
        with np.errstate(over="ignore", invalid="ignore"):
            w = _rmatvec(data.X, g) / data.scale
            y_soft = _matvec(data.X, w) / data.scale
        return _checked(w, y_soft, state.t + 1)

    return _run(data, (_given_labels,) + (rule,) * (T - 1), step, evaluate)
