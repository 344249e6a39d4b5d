"""Shared numerical kernels.

Gaussian CDF, one builder of quadrature rules for Gaussian expectations, the
output-channel expectation of a state-evolution step, bisection root
finding, an overflow-safe logistic, and deterministic splittable RNG streams
with a block-parallel Gaussian matrix sampler.

Quadrature conventions
----------------------
:func:`gaussian_rule` returns nodes and probability weights (they sum to 1),
so ``f(nodes) @ prob_weights`` is E[f(X)] for X ~ N(mean, sd^2).  Smooth
integrands use Gauss-Hermite; integrands with jumps or kinks at known points
use Gauss-Legendre pieces split at those points on the window mean +- 14 sd.
The raw rules under it, :func:`gauss_hermite` (physicists' normalization,
weights summing to sqrt(pi)) and :func:`gauss_legendre` (on [-1, 1], weights
summing to 2), are cached per order.

All functions are pure and re-entrant; quadrature rules are cached immutable
values and :class:`RngStream` instances are frozen.

Random matrices
---------------
:meth:`RngStream.gaussian_matrix` fills fixed row blocks of about
``_BLOCK_ELEMENTS`` entries, block k from child k of the stream's
``SeedSequence``, on a thread pool (numpy's bulk fills release the GIL).  The
block layout depends only on the shape, so the matrix is the same for any
thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, ndtr, roots_legendre

from .errors import BracketError, ConfigError, DomainError

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Half-width, in standard deviations, of the window a split rule covers: the
# Gaussian mass outside it is below 1e-40.
_SPLIT_HALF_WIDTH = 14.0

# Entries per row block of a Gaussian matrix (16 MB of float64); a block
# holds max(1, _BLOCK_ELEMENTS // d) rows.
_BLOCK_ELEMENTS = 2**21


def _validate_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} must be finite")


def std_normal_cdf(x):
    """Standard normal CDF, accurate to <=1e-12 absolute (erf-based).

    Accepts scalars or arrays; non-finite input raises :class:`DomainError`.
    """
    arr = np.asarray(x, dtype=float)
    _validate_finite(arr, "std_normal_cdf argument")
    out = ndtr(arr)
    return float(out) if arr.ndim == 0 else out


def stable_logistic(x):
    """1 / (1 + exp(-x)) without overflow; +-inf map to 1 / 0 exactly."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("stable_logistic argument must not be NaN")
    out = expit(arr)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes/weights (physicists' normalization).

    Invariants: nodes strictly increasing and symmetric about 0; weights
    positive and summing to sqrt(pi).
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=64)
def gauss_hermite(order: int) -> QuadratureRule:
    if order < 2:
        raise ConfigError(f"quadrature order must be >= 2, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] (weights sum to 2)."""
    if order < 2:
        raise ConfigError(f"quadrature order must be >= 2, got {order}")
    nodes, weights = roots_legendre(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def gaussian_rule(mean, sd: float, breakpoints: Sequence[float] = (), order: int = 61):
    """Nodes and probability weights for expectations over X ~ N(mean, sd^2).

    E[f(X)] is the dot product of f(nodes) and the weights over the last axis
    (``f(nodes) @ prob_weights`` when the weights are one-dimensional).

    Without breakpoints the rule is Gauss-Hermite with ``order`` nodes.  With
    breakpoints it is Gauss-Legendre with ``order`` nodes on each piece of the
    window mean +- 14 sd, split at the breakpoints clipped into the window.
    Nodes are interior points, so none lands on a breakpoint, and integrands
    with jumps, kinks or steep transitions there converge quickly; a global
    Hermite rule converges only polynomially for them.

    ``mean`` may be an array; the nodes then have shape ``mean.shape + (K,)``.
    Hermite weights have shape ``(order,)``; split weights move with the
    window and have the shape of the nodes.
    """
    if not (0.0 < sd < math.inf):
        raise DomainError(f"sd must be positive and finite, got {sd}")
    mean = np.asarray(mean, dtype=float)[..., None]
    if len(breakpoints) == 0:
        rule = gauss_hermite(order)
        return mean + (_SQRT_2 * sd) * rule.nodes, rule.weights / _SQRT_PI
    rule = gauss_legendre(order)
    lo = mean - _SPLIT_HALF_WIDTH * sd
    hi = mean + _SPLIT_HALF_WIDTH * sd
    cuts = np.stack([lo, *(np.clip(b, lo, hi) for b in sorted(breakpoints)), hi], axis=-2)
    half = 0.5 * (cuts[..., 1:, :] - cuts[..., :-1, :])
    # one rule per centre can make these arrays large: build them in place
    nodes = half * rule.nodes
    nodes += 0.5 * (cuts[..., 1:, :] + cuts[..., :-1, :])
    weights = nodes - mean[..., None]
    weights *= weights
    weights *= -0.5 / (sd * sd)
    np.exp(weights, out=weights)
    weights *= half / (sd * _SQRT_2PI)
    weights *= rule.weights
    shape = mean.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def expect_output_channel(latent, latent_weights, label_prob, gain: float, sd: float,
                          breakpoints: Sequence[float], values_fn, order: int):
    """E[f(U, Yhat)] for each integrand f of ``values_fn``: the output-channel
    expectation of a state-evolution step.

    The latent L takes the values ``latent`` with probabilities
    ``latent_weights``; given L the label Yhat is +1 with probability
    ``label_prob`` (q(L), one per latent value) and -1 otherwise, and the
    prediction is U ~ N(gain*L, sd^2) on :func:`gaussian_rule` split at
    ``breakpoints``.  sd = 0 is the point mass U = gain*L.

    ``values_fn(u)``, with u of shape (latent values, nodes), returns
    (integrands at label +1, integrands at label -1), each a sequence of
    arrays shaped like u; row i of u belongs to latent value i.
    """
    latent = np.asarray(latent, dtype=float)
    if sd == 0.0:
        u, uw = (gain * latent)[:, None], np.ones(1)
    else:
        u, uw = gaussian_rule(gain * latent, sd, breakpoints, order)
    hp = np.asarray(label_prob, dtype=float)[:, None]
    w2 = np.asarray(latent_weights, dtype=float)[:, None] * uw
    plus, minus = values_fn(u)
    return [float(np.sum(w2 * hp * a) + np.sum(w2 * (1.0 - hp) * b))
            for a, b in zip(plus, minus)]


def find_root_bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Bisection root of f on [lo, hi].

    Returns x with |f(x)| <= tol or bracket width <= tol.  Requires a sign
    change over the bracket; deterministic given (f, lo, hi, tol).
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if not lo < hi:
        raise ConfigError("need lo < hi")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}] (f(lo)={flo}, f(hi)={fhi})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) <= tol:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream keyed by (master_seed, stream_index).

    Identical keys reproduce identical draws bit-exactly (numpy PCG64 seeded
    through a SeedSequence over both integers); distinct stream indices give
    statistically independent streams.  Instances are immutable values.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")
        if int(self.stream_index) < 0:
            raise ConfigError("stream_index must be non-negative")

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence((int(self.master_seed), int(self.stream_index)))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._seed_sequence()))

    def gaussian_matrix(self, n: int, d: int, sd: float = 1.0) -> np.ndarray:
        """(n, d) matrix of iid N(0, sd^2) entries, drawn in fixed row blocks.

        Block k (rows k*r to (k+1)*r, r = max(1, 2**21 // d)) is filled by
        child k of ``SeedSequence((master_seed, stream_index)).spawn(blocks)``,
        independent of :meth:`generator`'s stream.  The blocks are filled on
        min(blocks, usable CPUs) threads; the result depends only on the key
        and (n, d, sd), never on the thread count.
        """
        if n < 1 or d < 1:
            raise ConfigError(f"matrix shape must be positive, got ({n}, {d})")
        rows = max(1, _BLOCK_ELEMENTS // d)
        blocks = -(-n // rows)
        children = self._seed_sequence().spawn(blocks)
        out = np.empty((n, d))

        # runs on the fill threads, so it calls numpy only: a traced package
        # call from a second thread would corrupt perfbench's per-process span stack
        def fill(k):
            block = out[k * rows:(k + 1) * rows]
            np.random.Generator(np.random.PCG64(children[k])).standard_normal(out=block)
            if sd != 1.0:
                block *= sd

        threads = min(blocks, _usable_cpus())
        if threads == 1:
            for k in range(blocks):
                fill(k)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(fill, range(blocks)))
        return out
