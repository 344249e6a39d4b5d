"""Shared numerical kernels.

The standard normal CDF and erfcx, one builder of quadrature rules for
Gaussian expectations, bisection root finding, an overflow-safe logistic,
deterministic splittable RNG streams with a block-parallel Gaussian matrix
sampler, and the two products with a design matrix.

Quadrature conventions
----------------------
:func:`gaussian_rule` returns nodes and probability weights (they sum to 1),
so ``f(nodes) @ prob_weights`` is E[f(X)] for X ~ N(mean, sd^2).  Smooth
integrands use Gauss-Hermite; integrands with jumps or kinks at known points
use Gauss-Legendre pieces split at those points on the window mean +- 14 sd.
The raw rules under it, :func:`gauss_hermite` (physicists' normalization,
weights summing to sqrt(pi)) and :func:`gauss_legendre` (on [-1, 1], weights
summing to 2), are cached per order.  The Legendre rule is Newton's method on
the three-term recurrence of P_n, started at cos(pi*(i - 1/4)/(n + 1/2)) and
mirrored, so it is exactly symmetric.

All functions are pure and re-entrant; quadrature rules are cached immutable
values and :class:`RngStream` instances are frozen.

Phi and erfcx
-------------
:func:`std_normal_cdf` and the private :func:`_ndtr` and :func:`_erfcx` are
one numpy kernel on the rational approximations of Cephes ``ndtr.c``
(S. L. Moshier): erf(x) = x T(x^2)/U(x^2) for |x| < 1, and the scaled
complementary error function erfcx(x) = exp(x^2) erfc(x) = P(x)/Q(x) on
[1, 8) and R(x)/S(x) beyond (R/S in 1/x, so no power overflows; above
x = 100 five terms of the asymptotic series).  Phi(a) is
1/2 + erf(a/sqrt 2)/2 for |a| < sqrt 2, exp(-a^2/2) erfcx(-a/sqrt 2)/2
below, with a^2 split exactly so that the tail keeps its relative accuracy,
and 1 less that of -a above.  Against 40-digit mpmath, Phi is within 8 ulp
on [-37.5, 8.3] (scipy's ``ndtr``: 1,918 ulp at -36.6) and erfcx within
13 ulp on [-26, 1e6] (12.2 near x = 1, where 1 - erf(x) cancels).  A float
runs the same operations as an array element, so it gets the same bits; an
array passes each piece only the elements that fall in it.

The logistic
------------
:func:`stable_logistic` is max(e, sign(x)) / (1 + e) with e = exp(-|x|) in
numpy: the numerator is e below 0 and 1 from -0.0 up, so one exponential
gives the bits of exp(min(x, 0)) / (1 + exp(-|x|)).  No exponent is
positive, so nothing overflows, and no branch is taken per element.  It is
within 4 ulp of the exact value where that is normal, gives the subnormal
tail below x = -708 (scipy's ``expit`` returns 0 there), maps +-inf to
exactly 1 and 0, and raises :class:`DomainError` on NaN.

Threads
-------
:func:`_split` runs ``work(j, a, b)`` for each of up to one thread per usable
CPU, j = 0, 1, ..., on a contiguous range [a, b) of a call's blocks, under the
caller's numpy error state.  Its users are :meth:`RngStream.gaussian_matrix`,
:func:`_matvec` and :func:`_rmatvec` (the row blocks of X) and
``glm.OptimalGlm``'s posterior kernel (row blocks of its quadrature).  Each
fixes its blocks by the shape alone, so the bits do not depend on the thread
count, and its work calls numpy and private helpers only (:func:`_logistic`,
:func:`_ndtr` and the function :func:`_rule_at` returns): perfbench traces the
public functions on one span stack per process, which a call from a second
thread would corrupt.  A contiguous range lets a product make one call per
thread (see Design-matrix products).

Memory a thread needs (the draw's Box-Muller scratch, the posterior kernel's
block arrays) is row j of one array the caller allocates, for all the
threads, before the split, and the work writes through ``out=`` arguments, so
no helper allocates an array of a block's size (a split quadrature rule still
does, which only tests run there).  glibc gives each thread
that allocates its own malloc arena and keeps freed memory there: when the
helpers allocated their block arrays, a process kept about 5 MB more
resident after a GLM cobweb.  The threads are joined before :func:`_split`
returns, so none is alive when ``harness.simulate`` forks its pool.

Random matrices
---------------
:meth:`RngStream.gaussian_matrix` fills fixed row blocks of about
``_BLOCK_ELEMENTS`` entries, block k from child k of the stream's
``SeedSequence``, on up to one thread per usable CPU (numpy's bulk fills and
ufunc loops release the GIL).  The block layout depends only on the shape,
so the matrix is the same for any thread count.  The matrix is float32, and
each block is a Box-Muller transform of its generator's float64 uniforms: uniforms 2i and
2i+1, (u, v), give the entries 2i and 2i+1 of the block (row-major),
R cos(theta) and R sin(theta), with R = sqrt(-2 sd^2 log(1 - u)) (the log in
float64, the square root of its float32 rounding) and theta = 2 pi v rounded
to float32; a block with an odd number of entries drops its last sine.  Since
1 - u >= 2^-53, no entry exceeds 8.57 sd; the normal mass beyond is about
1e-17 per entry.  The transform runs through a scratch buffer in chunks of
an even number of entries, so no pair straddles a chunk and the bits depend
only on the block's uniforms, not on the chunk size.  They do depend on
numpy's SIMD float64 ``log`` and float32 ``cos``/``sin``, as the products'
bits depend on its einsum and vecdot loops.  On a 2-core AMD EPYC host a
chunk costs about 2.8 ns per entry, 1.4 ns of them the uniforms, where
numpy's ziggurat ``standard_normal`` and the float32 rounding cost 7.5 ns.

Design-matrix products
----------------------
:func:`_matvec` and :func:`_rmatvec` cast only the vector to X's dtype:
numpy would copy the whole matrix for a mixed-dtype product.  Neither is a
BLAS sgemv, whose bits depend on the BLAS thread count: OpenBLAS splits X^T v
by thread, and it rounds X v differently when it splits the rows (unless n is
a multiple of 8).

Both take the draw's row blocks of max(1, 2**21 // d) rows, spread by
:func:`_split`; a one-block X (any X of fewer than 2**21 entries) runs on the
calling thread, and no part of X is copied.  X v is one vecdot per thread
over its range, one dot product per row: one vecdot per 419-row block took
about twice as long on 2 threads at 10000x5000 (20 against 10 ms).  X^T v is
one in-order float32 einsum per block, each into its own row of a (blocks, d)
buffer (480 KB at 10000x5000), and the block sums are added in float64 in
block order.  Its largest error against float64 is 2.5 to 9 times below
that of one float32 sum over all the rows (4000x2000 to 10000x5000).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BracketError, ConfigError, DomainError

_SQRT_PI = np.sqrt(np.pi)
_SQRT_2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Half-width, in standard deviations, of the window a split rule covers: the
# Gaussian mass outside it is below 1e-40.
_SPLIT_HALF_WIDTH = 14.0

# Entries per row block of a design matrix (8 MB of float32); a block holds
# max(1, _BLOCK_ELEMENTS // d) rows (see _row_blocks)
_BLOCK_ELEMENTS = 2**21
# Entries per chunk of a block's draw, even so that no Box-Muller pair
# straddles two chunks: its float64 uniforms and float64 log terms take a
# 384 KB scratch buffer per thread
_SCRATCH_ELEMENTS = 2**15
# Entries of the largest array a state-evolution map builds per block of
# points (256 KB; see _map_blocks)
_MAP_BLOCK_ELEMENTS = 2**15

# Most halvings find_root_bisect makes (a unit bracket is then far below 1 ulp)
_BISECT_MAX_ITER = 200
# Newton steps of gauss_legendre: it stops once no node moves more than
# _NEWTON_TOL, a few ulp of 1
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 4 * np.finfo(float).eps


def std_normal_cdf(x):
    """Standard normal CDF, within a few ulp (see Phi and erfcx in the module
    docstring).

    Accepts scalars or arrays; non-finite input raises :class:`DomainError`.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("std_normal_cdf argument must be finite")
    return _ndtr(arr)


# Cephes ndtr.c, highest power first; U, Q and S are monic, their leading 1
# not listed.  erf(x) = x T(x^2)/U(x^2) for |x| < 1; erfcx(x) = P(x)/Q(x) on
# [1, 8) and R(x)/S(x) beyond.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# R(x)/S(x) = w R~(w)/S~(w) in w = 1/x, R~ and S~ the reversed polynomials
_ERFC_R_INV = _ERFC_R[::-1]
_ERFC_S_INV = _ERFC_S[::-1] + (1.0,)
# erfcx(x) = (w/sqrt(pi)) (1 - w^2/2 + 3w^4/4 - 15w^6/8 + 105w^8/16 - ...),
# in v = w^2; the next term is below 3e-19 for x >= 100
_ERFCX_ASYMPTOTIC = (105.0 / 16.0, -15.0 / 8.0, 3.0 / 4.0, -0.5, 1.0)
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _ndtr(a):
    """Phi(a) for a float or a 0-d array (a float) or a float array (a fresh
    array); +-inf give 1 and 0, NaN gives NaN.  It calls numpy only, so it
    may run on a :func:`_split` thread."""
    return _piecewise(a, _PHI_CUTS, _PHI_PIECES)


def _erfcx(x):
    """exp(x^2) erfc(x) as :func:`_ndtr` takes and gives Phi; inf below -26.6."""
    return _piecewise(x, _ERFCX_CUTS, _ERFCX_PIECES)


def _piecewise(x, cuts, pieces):
    """pieces[k] at each element of x with k of the ascending ``cuts`` at or
    below it (NaN has none).  A piece is a function of a float or an array,
    or a constant (at most one per table).  A float or 0-d array takes its
    piece as a float; an array is filled with the constant and passes each
    function the elements that fall in its piece, all of them at once where
    they share one."""
    if np.ndim(x) == 0:
        x = float(x)
        piece = pieces[sum(x >= c for c in cuts)]
        return piece if isinstance(piece, float) else piece(x)
    index = np.zeros(x.shape, dtype=np.int8)
    for c in cuts:
        index += x >= c
    used = range(int(index.min()), int(index.max()) + 1) if x.size else range(0)
    if len(used) == 1 and callable(pieces[used[0]]):
        return pieces[used[0]](x)
    constant = [pieces[k] for k in used if not callable(pieces[k])]
    out = np.full(x.shape, constant[0]) if constant else np.empty(x.shape)
    for k in used:
        if callable(pieces[k]):
            where = index == k
            if where.any():
                out[where] = pieces[k](x[where])
    return out


def _polevl(x, coefs):
    """c0 x^n + c1 x^(n-1) + ... + cn by Horner's rule (Cephes polevl), built
    in one fresh array for an array x."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, coefs):
    """x^(n+1) + c0 x^n + ... + cn, the monic :func:`_polevl` (Cephes p1evl)."""
    y = x + coefs[0]
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _exp(x):
    """exp(x), written over x where it is an array: numpy's exp either way, so
    a float gets an array element's bits."""
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x, out=x)


def _exp_square(v, k: float):
    """exp(k v^2) for k = -1/2 or 1 and |v| <= 40, to the accuracy of exp.

    v rounded to float32 is h, so h^2 is exact and k v^2 = k h^2 + r with
    r = k (v - h)(v + h), |r| < 1e-4, whose exp a cubic gives to rounding;
    exp(k v^2) taken directly would carry the rounding of v^2, up to 2e-13
    relative at |v| = 40.
    """
    h = float(np.float32(v)) if isinstance(v, float) else v.astype(np.float32).astype(float)
    r = v - h
    r *= v + h
    r *= k
    h *= h
    h *= k
    e = _exp(h)
    e *= _polevl(r, (1.0 / 6.0, 0.5, 1.0, 1.0))
    return e


def _erf_centre(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    y = _polevl(z, _ERF_T)
    y *= x
    y /= _p1evl(z, _ERF_U)
    return y


def _erfcx_mid(x):
    """erfcx(x) for 1 <= x < 8."""
    y = _polevl(x, _ERFC_P)
    y /= _p1evl(x, _ERFC_Q)
    return y


def _erfcx_far(x):
    """erfcx(x) for x >= 8."""
    w = 1.0 / x
    y = _polevl(w, _ERFC_R_INV)
    y *= w
    y /= _polevl(w, _ERFC_S_INV)
    return y


def _erfcx_asymptotic(x):
    """erfcx(x) for x >= 100."""
    w = 1.0 / x
    y = _polevl(w * w, _ERFCX_ASYMPTOTIC)
    y *= w
    y *= _INV_SQRT_PI
    return y


def _clip_below(x, lo: float):
    return max(x, lo) if isinstance(x, float) else np.maximum(x, lo)


def _phi_below(a, erfcx):
    """Phi(a) = exp(-a^2/2) erfcx(-a/sqrt 2)/2 for a <= -sqrt 2 (a >= -40)."""
    y = erfcx(a * -_SQRT_HALF)
    y *= _exp_square(a, -0.5)
    y *= 0.5
    return y


def _phi_centre(a):
    """Phi(a) = 1/2 + erf(a/sqrt 2)/2 for |a| < sqrt 2."""
    y = _erf_centre(a * _SQRT_HALF)
    y *= 0.5
    y += 0.5
    return y


def _phi_above(a):
    """Phi(a) = 1 - exp(-a^2/2) erfcx(a/sqrt 2)/2 for sqrt 2 <= a < 8.5.

    The subtracted term c is below 0.08 and its exponent's rounding costs it
    at most c a^2 2^-54, under a tenth of an ulp of Phi, so a plain exp serves.
    """
    y = _erfcx_mid(a * _SQRT_HALF)
    e = a * a
    e *= -0.5
    y *= _exp(e)
    y *= -0.5
    y += 1.0
    return y


# Phi(a) for a below -8 sqrt 2 (0 below -38.5, so a is clipped at -40), to
# -sqrt 2, to sqrt 2, to 8.5, and beyond, where Phi(-a) is below half an ulp
# of 1 and Phi rounds to exactly 1
_PHI_CUTS = (-8.0 / _SQRT_HALF, -1.0 / _SQRT_HALF, 1.0 / _SQRT_HALF, 8.5)
_PHI_PIECES = (lambda a: _phi_below(_clip_below(a, -40.0), _erfcx_far),
               lambda a: _phi_below(a, _erfcx_mid), _phi_centre, _phi_above, 1.0)


def _erfcx_minus_eight(x):
    """erfcx(x) = 2 exp(x^2) - erfcx(-x) for x < -8, where the second term is
    below half an ulp of the first; inf below -26.6 (x is clipped at -27)."""
    with np.errstate(over="ignore"):
        y = _exp_square(_clip_below(x, -27.0), 1.0)
        y *= 2.0
    return y


def _erfcx_minus_one(x):
    """erfcx(x) = 2 exp(x^2) - erfcx(-x) for -8 <= x < -1."""
    y = _exp_square(x, 1.0)
    y *= 2.0
    y -= _erfcx_mid(-x)
    return y


def _erfcx_centre(x):
    """erfcx(x) = exp(x^2) (1 - erf(x)) for |x| < 1."""
    y = _erf_centre(x)
    y *= -1.0
    y += 1.0
    y *= _exp_square(x, 1.0)
    return y


_ERFCX_CUTS = (-8.0, -1.0, 1.0, 8.0, 100.0)
_ERFCX_PIECES = (_erfcx_minus_eight, _erfcx_minus_one, _erfcx_centre, _erfcx_mid, _erfcx_far,
                 _erfcx_asymptotic)


def stable_logistic(x):
    """1 / (1 + exp(-x)) without overflow (see The logistic in the module
    docstring); NaN raises :class:`DomainError`, and 0-d input gives a float."""
    out = _logistic(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def _logistic(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """:func:`stable_logistic` of a float array, into ``out`` and with
    ``scratch`` for its numerator (each an array of x's shape, or fresh):
    max(e, sign(x))/(1 + e) with e = exp(-|x|), one exponential where
    exp(min(x, 0)) would take a second with the same bits (the numerator is
    e below 0 and 1 from -0.0 up).  It calls numpy only, so it may run on a
    :func:`_split` thread."""
    e = np.abs(x, out=np.empty(x.shape) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.sign(x, out=np.empty(x.shape) if scratch is None else scratch)
    np.maximum(num, e, out=num)
    e += 1.0
    out = np.divide(num, e, out=e)
    # each value lies in [0, 1] unless its x is NaN, so only a NaN makes the sum NaN
    if np.isnan(out.sum()):
        raise DomainError("stable_logistic argument must not be NaN")
    return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes/weights (physicists' normalization).

    Invariants: nodes strictly increasing and symmetric about 0; weights
    positive and summing to sqrt(pi).
    """

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule; above order 370 numpy's weights overflow to 0 or NaN."""
    if order < 2:
        raise ConfigError(f"quadrature order must be >= 2, got {order}")
    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    if not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise ConfigError(f"no Gauss-Hermite rule of order {order} (its weights overflow)")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] (weights sum to 2).

    The positive nodes are roots of P_n found by Newton's method on the
    three-term recurrence, from cos(pi*(i - 1/4)/(n + 1/2)), i = 1, 2, ...;
    the weights are 2/((1 - x^2) P_n'(x)^2) there, and both are mirrored, so
    the rule is exactly symmetric (the middle node of an odd order is 0).
    Against a 40-digit reference the nodes are within 1 ulp and the weights
    within 89 ulp at order 61 and 1,403 at 201 (scipy's ``roots_legendre``:
    15,534 and 761,093).
    """
    if order < 2:
        raise ConfigError(f"quadrature order must be >= 2, got {order}")
    half = np.arange(order // 2, 0, -1)
    x = np.cos(np.pi * (half - 0.25) / (order + 0.5))   # ascending, positive
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre(order, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise ConfigError(f"no Gauss-Legendre rule of order {order} (Newton did not converge)")
    if order % 2:
        x = np.concatenate(([0.0], x))   # a root of every odd P_n
    p, dp = _legendre(order, x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    # to first order in the node's own rounding error p/dp: the formula's
    # log-derivative at a root is -2x/(1 - x^2), steep near the ends
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one_minus_x2)
    mirrored = slice(order % 2, None)
    nodes = np.concatenate([-x[mirrored][::-1], x])
    weights = np.concatenate([w[mirrored][::-1], w])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the recurrence k P_k = (2k-1) x P_(k-1) - (k-1) P_(k-2)."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


def gaussian_rule(mean, sd, breakpoints: Sequence[float], order: int):
    """Nodes and probability weights for expectations over X ~ N(mean, sd^2).

    E[f(X)] is the dot product of f(nodes) and the weights over the last axis
    (``f(nodes) @ prob_weights`` when the weights are one-dimensional).

    Without breakpoints the rule is Gauss-Hermite with ``order`` nodes.  With
    breakpoints it is Gauss-Legendre with ``order`` nodes on each piece of the
    window mean +- 14 sd, split at the breakpoints clipped into the window.
    Nodes are interior points, so none lands on a breakpoint, and integrands
    with jumps, kinks or steep transitions there converge quickly; a global
    Hermite rule converges only polynomially for them.

    ``mean`` and ``sd`` may be arrays that broadcast together, one rule per
    element: the nodes then have their broadcast shape plus ``(K,)``, and
    each element's nodes and weights have the bits of its scalar rule.
    Hermite weights have shape ``(order,)``; split weights move with the
    window and have the shape of the nodes.  An sd that is not positive and
    finite raises :class:`DomainError`.
    """
    return _rule_at(sd, breakpoints, order)(mean)


def _rule_at(sd, breakpoints: Sequence[float], order: int):
    """:func:`gaussian_rule` as a function ``place(mean, rows=..., out=None)``:
    the rule at ``mean[rows]``, with ``sd[rows]`` where sd is an array (one sd
    per row of the mean, as ``OptimalGlm``'s posterior blocks take them).
    ``out``, an array of the nodes' shape, takes a Hermite rule's nodes, whose
    weights are one shared row; a split rule's nodes and weights are fresh
    arrays (only tests send a link with jumps through ``OptimalGlm``).
    ``place.width`` is the number of nodes per row.

    sd is checked and the raw rule fetched here, on the calling thread; the
    returned function calls numpy only, so it may run on a :func:`_split`
    thread, and given ``out`` a Hermite rule allocates no array of the nodes'
    size there.
    """
    sd = np.asarray(sd, dtype=float)
    if sd.size and not (0.0 < sd.min() and sd.max() < math.inf):   # a NaN is both
        bad = ~((sd > 0.0) & (sd < math.inf))
        raise DomainError(f"sd must be positive and finite, got {sd[bad].flat[0]}")
    rule = gauss_legendre(order) if len(breakpoints) else gauss_hermite(order)
    breakpoints = sorted(breakpoints)
    hermite_weights = rule.weights / _SQRT_PI

    def place(mean, rows=..., out=None):
        mean = np.asarray(mean, dtype=float)[rows][..., None]
        s = (sd if sd.ndim == 0 else sd[rows])[..., None]
        if not breakpoints:
            if out is None:
                return mean + (_SQRT_2 * s) * rule.nodes, hermite_weights
            nodes = np.multiply(_SQRT_2 * s, rule.nodes, out=out)
            nodes += mean
            return nodes, hermite_weights
        lo = mean - _SPLIT_HALF_WIDTH * s
        hi = mean + _SPLIT_HALF_WIDTH * s
        cuts = np.stack([lo, *(np.clip(b, lo, hi) for b in breakpoints), hi], axis=-2)
        half = 0.5 * (cuts[..., 1:, :] - cuts[..., :-1, :])
        nodes = half * rule.nodes + 0.5 * (cuts[..., 1:, :] + cuts[..., :-1, :])
        s = s[..., None]
        density = np.exp((nodes - mean[..., None]) ** 2 * (-0.5 / (s * s)))
        weights = density * (half / (s * _SQRT_2PI)) * rule.weights
        shape = nodes.shape[:-2] + (-1,)
        return nodes.reshape(shape), weights.reshape(shape)

    place.width = order * (len(breakpoints) + 1)
    return place


def find_root_bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> float:
    """Bisection root of f on [lo, hi].

    Returns x with |f(x)| <= tol or bracket width <= tol, the midpoint once
    the bracket's ends are adjacent floats (with tol = 0, the only stop but
    an exact zero), or the midpoint after _BISECT_MAX_ITER halvings.
    Requires a sign change over the bracket; deterministic given
    (f, lo, hi, tol).
    """
    if not tol >= 0:
        raise ConfigError("tol must be non-negative")
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
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) <= tol:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _square(x, name: str):
    """x**2 of a Python float, or of each element of an array by C ``pow``,
    the operation of a float's ``**`` (numpy's ``x**2`` is ``x*x``, 1 ulp
    off it for about one value in 1,200), so an element has its float's
    bits; :class:`DomainError` names x where a finite x's square overflows
    (a float's ``**`` raises the built-in OverflowError)."""
    if isinstance(x, float):   # numpy's float64 is one too
        try:
            return float(x)**2
        except OverflowError:
            raise DomainError(f"{name} is too large: its square overflows") from None
    with np.errstate(over="ignore"):
        square = np.float_power(x, 2.0)
    if np.any(np.isinf(square) & np.isfinite(x)):
        raise DomainError(f"{name} is too large: its square overflows")
    return square


def _map_blocks(fn, x, per_point: int):
    """``fn`` over the elements of x in consecutive blocks of at most
    _MAP_BLOCK_ELEMENTS // per_point points, joined in x's shape (a 0-d x
    gives a numpy float): a map whose arrays hold ``per_point`` elements per
    point keeps each of them within 256 KB however many points it gets.
    ``fn`` takes and returns 1-D arrays."""
    flat = np.ravel(x)
    rows = max(1, _MAP_BLOCK_ELEMENTS // per_point)
    out = np.empty(flat.size)
    for lo in range(0, flat.size, rows):
        out[lo:lo + rows] = fn(flat[lo:lo + rows])
    return out.reshape(np.shape(x))[()]


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
        """(n, d) float32 matrix of iid N(0, sd^2) entries, drawn in fixed row blocks.

        Block k (rows k*r to (k+1)*r, r = max(1, 2**21 // d)) is filled by
        child k of ``SeedSequence((master_seed, stream_index)).spawn(blocks)``,
        independent of :meth:`generator`'s stream: its entries 2i and 2i+1
        (row-major) are the Box-Muller pair R cos(theta), R sin(theta) of the
        child's float64 uniforms 2i and 2i+1, u and v, with
        R = sqrt(float32(-2 sd^2 log(1 - u))) and theta = float32(2 pi v); a
        block with an odd number of entries drops its last sine (see Random
        matrices in the module docstring).  Each block is transformed in
        chunks of an even number of entries, which give the bits of the whole
        block at once.  :func:`_split` spreads the blocks over threads; the
        result depends only on the key and (n, d, sd).
        """
        if n < 1 or d < 1:
            raise ConfigError(f"matrix shape must be positive, got ({n}, {d})")
        rows, blocks = _row_blocks(n, d)
        children = self._seed_sequence().spawn(blocks)
        out = np.empty((n, d), dtype=np.float32)
        flat = out.reshape(-1)
        radius_scale = -2.0 * sd * sd
        threads = _split_threads(blocks)
        pairs = min(_SCRATCH_ELEMENTS, min(n, rows) * d + 1) // 2  # per chunk
        # each thread's float64 uniforms and log terms, allocated here so that
        # the helper threads allocate nothing
        scratch = np.empty((threads, 3 * pairs))

        # runs on the fill threads, so it calls numpy only: a traced package
        # call from a second thread would corrupt perfbench's per-process span stack
        def fill(j, a, b):
            uniforms, log_terms = scratch[j, :2 * pairs], scratch[j, 2 * pairs:]
            # float32 radii, cosines and sines over the uniforms once read
            radius, cosine, sine = uniforms.view(np.float32).reshape(4, pairs)[:3]
            for k in range(a, b):
                gen = np.random.Generator(np.random.PCG64(children[k]))
                stop = min(n, (k + 1) * rows) * d
                for lo in range(k * rows * d, stop, 2 * pairs):
                    chunk = flat[lo:min(stop, lo + 2 * pairs)]
                    m, m_sin = (chunk.size + 1) // 2, chunk.size // 2
                    u = uniforms[:2 * m]
                    gen.random(out=u)
                    theta = chunk[:m]  # held in the chunk until cos and sin are taken
                    np.multiply(u[1::2], 2.0 * np.pi, out=theta)
                    np.subtract(1.0, u[0::2], out=log_terms[:m])
                    np.log(log_terms[:m], out=log_terms[:m])
                    np.multiply(log_terms[:m], radius_scale, out=radius[:m])
                    np.sqrt(radius[:m], out=radius[:m])
                    np.cos(theta, out=cosine[:m])
                    np.sin(theta[:m_sin], out=sine[:m_sin])
                    np.multiply(radius[:m], cosine[:m], out=chunk[0::2])
                    np.multiply(radius[:m_sin], sine[:m_sin], out=chunk[1::2])

        _split(blocks, fill, threads)
        return out


def _row_blocks(n: int, d: int):
    """(rows, blocks) of an (n, d) matrix's row blocks, the last one partial."""
    rows = max(1, _BLOCK_ELEMENTS // d)
    return rows, -(-n // rows)


def _split_threads(blocks: int) -> int:
    """The number of threads :func:`_split` runs ``blocks`` blocks on: one per
    usable CPU, and no more than there are blocks."""
    return 1 if blocks == 1 else min(blocks, _usable_cpus())


def _split(blocks: int, work: Callable[[int, int, int], None],
           threads: Optional[int] = None) -> None:
    """Run ``work(j, a, b)`` on each thread j's range [a, b) of the blocks, j
    of ``threads`` (by default :func:`_split_threads`) from blocks*j // threads:
    the calling thread runs j = 0, and plain threads the rest, under the
    caller's numpy error state (a new thread starts from numpy's default).  A
    work that needs scratch memory indexes by j one array the caller
    allocated for all the threads, so no helper allocates (or keeps in its
    malloc arena) anything of a block's size.  The threads are joined before
    return, so no thread outlives the call (``harness.simulate`` may fork a
    pool afterwards).  work must call numpy and private helpers only (see
    Threads in the module docstring); an exception it raises on any thread is
    raised here once every thread is joined."""
    threads = _split_threads(blocks) if threads is None else threads
    if threads == 1:  # no helper to start: skip the error state
        work(0, 0, blocks)
        return
    errstate = np.geterr()
    errors = []

    def run(j):
        try:
            with np.errstate(**errstate):
                work(j, blocks * j // threads, blocks * (j + 1) // threads)
        except BaseException as exc:  # raised on the calling thread after the join
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(j,)) for j in range(1, threads)]
    for helper in helpers:
        helper.start()
    try:
        work(0, 0, blocks // threads)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X v with v cast to X's dtype, as float64: one vecdot per thread over
    its range of row blocks.  Each row is its own dot product, so the bits
    depend neither on the BLAS thread count nor on the thread count."""
    v = v.astype(X.dtype, copy=False)
    rows, blocks = _row_blocks(*X.shape)
    out = np.empty(X.shape[0], dtype=X.dtype)

    def dots(_j, a, b):
        np.vecdot(X[a * rows:b * rows], v, out=out[a * rows:b * rows])

    _split(blocks, dots)
    return out.astype(float)


def _rmatvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X^T v with v cast to X's dtype, as float64: the float64 sum, in block
    order, of each row block's in-order float32 sum, so the bits depend
    neither on the BLAS thread count nor on the thread count."""
    v = v.astype(X.dtype, copy=False)
    rows, blocks = _row_blocks(*X.shape)
    parts = np.empty((blocks, X.shape[1]), dtype=X.dtype)

    def block_sums(_j, a, b):
        for k in range(a, b):
            block = slice(k * rows, (k + 1) * rows)
            np.einsum("ij,i->j", X[block], v[block], out=parts[k])

    _split(blocks, block_sums)
    out = parts[0].astype(float)
    for k in range(1, blocks):
        out += parts[k]
    return out
