import ast
import functools
import math
import pathlib
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_retrain import numerics
from amp_retrain.errors import BracketError, ConfigError, DomainError
from amp_retrain.numerics import (
    RngStream,
    find_root_bisect,
    gauss_hermite,
    gauss_legendre,
    gaussian_rule,
    stable_logistic,
    std_normal_cdf,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "amp_retrain"


def expect(f, breakpoints=(), order=61, mean=0.0, sd=1.0):
    nodes, weights = gaussian_rule(mean, sd, breakpoints, order)
    return float(f(nodes) @ weights)


def erf_series(x: float, terms: int = 60) -> float:
    # independent oracle: Maclaurin series of erf
    total = 0.0
    term = x
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def ulps(got, exact):
    """|got - exact| in units of the last place of exact (mpmath numbers)."""
    mpmath = pytest.importorskip("mpmath")
    return np.array([float(abs(mpmath.mpf(float(g)) - e) / mpmath.mpf(np.spacing(float(e))))
                     for g, e in zip(got, exact)])


class TestStdNormalCdf:
    def test_zero(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15
        assert std_normal_cdf(-40.0) <= 1e-15

    def test_against_series_oracle(self):
        expected = 0.5 * (1.0 + erf_series(1.0 / math.sqrt(2.0)))
        assert abs(std_normal_cdf(1.0) - expected) <= 1e-12

    def test_against_monte_carlo(self):
        rng = RngStream(20240817).generator()
        draws = rng.standard_normal(10_000_000)
        mc = np.mean(draws < 1.0)
        se = math.sqrt(mc * (1 - mc) / draws.size)
        assert abs(std_normal_cdf(1.0) - mc) <= 4 * se

    def test_monotone(self):
        xs = np.linspace(-8, 8, 200)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_cdf(float("inf"))

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_against_mpmath(self):
        # every piece of the kernel, the far tail included: scipy's ndtr was
        # 1,918 ulp off at -36.6, the rounding of a^2 in its exp(-a^2/2)
        mpmath = pytest.importorskip("mpmath")
        a = np.concatenate([np.linspace(-37.5, 8.3, 2001),
                            np.random.default_rng(7).uniform(-37.5, 8.3, 2000)])
        with mpmath.workdps(40):
            err = ulps(std_normal_cdf(a), [mpmath.ncdf(mpmath.mpf(float(v))) for v in a])
        assert err.max() <= 10.0   # measured 7.9, at -10.9

    def test_exact_ends(self):
        assert std_normal_cdf(-38.6) == 0.0
        assert std_normal_cdf(8.5) == 1.0
        assert numerics._ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
        assert (numerics._ndtr(-np.inf), numerics._ndtr(np.inf)) == (0.0, 1.0)

    def test_float_and_array_elements_have_the_same_bits(self):
        a = np.concatenate([np.linspace(-40.0, 10.0, 1001), [-11.3137, -1.4142, 1.4142, 8.5]])
        whole = std_normal_cdf(a)
        assert np.array_equal([std_normal_cdf(float(v)) for v in a], whole)
        assert np.array_equal(std_normal_cdf(a[::-1]), whole[::-1])
        assert np.array_equal(std_normal_cdf(a.reshape(5, -1)).ravel(), whole)

    # Phi at two points of each piece (a < -8 sqrt 2, to -sqrt 2, to sqrt 2,
    # to 8.5, beyond), as float.hex, taken from version 0.12.0
    PINNED = {-39.0: "0x0.0p+0", -20.5: "0x1.1f6a3f82871ebp-309",
              -12.0: "0x1.272b313666238p-109", -5.25: "0x1.46a16cd7b7554p-24",
              -1.5: "0x1.11a46d89647efp-4", -0.75: "0x1.d0220056b3a4ep-3",
              0.3: "0x1.3c5ee2cc40b78p-1", 1.25: "0x1.c9e845da8ac7ap-1",
              2.0: "0x1.f45a183e9b13dp-1", 6.5: "0x1.ffffffffa7affp-1",
              9.0: "0x1.0000000000000p+0"}

    def test_pinned_bits(self):
        points = list(self.PINNED)
        assert [numerics._ndtr(a).hex() for a in points] == list(self.PINNED.values())
        assert [v.hex() for v in numerics._ndtr(np.array(points)).tolist()] == \
            list(self.PINNED.values())


class TestErfcx:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([np.linspace(-26.0, 10.0, 1801), np.geomspace(10.0, 1e6, 400)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numerics._erfcx(x)
        with mpmath.workdps(40):
            exact = [mpmath.exp(mpmath.mpf(float(v)) ** 2) * mpmath.erfc(mpmath.mpf(float(v)))
                     for v in x]
        assert ulps(got, exact).max() <= 16.0   # measured 12.2, at 0.99 (1 - erf(x) cancels)

    def test_overflow_and_limits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = numerics._erfcx(np.array([-np.inf, -30.0, 1e300, np.inf]))
            assert numerics._erfcx(-30.0) == math.inf
        assert out[:2].tolist() == [math.inf, math.inf] and out[3] == 0.0
        assert out[2] == pytest.approx(1.0 / (1e300 * math.sqrt(math.pi)), rel=1e-15)

    def test_float_and_array_elements_have_the_same_bits(self):
        x = np.concatenate([np.linspace(-27.0, 12.0, 781), [-8.0, -1.0, 1.0, 8.0, 100.0, 1e5]])
        assert np.array_equal([numerics._erfcx(float(v)) for v in x], numerics._erfcx(x))

    # erfcx at two points of each piece (x < -8, to -1, to 1, to 8, to 100,
    # beyond), as float.hex, taken from version 0.12.0
    PINNED = {-26.0: "0x1.32f288d4422dap+976", -9.5: "0x1.26b9b1cfc88bap+131",
              -3.25: "0x1.2e0322eb5b476p+16", -1.125: "0x1.ac7987d9692f4p+2",
              -0.5: "0x1.f3cde5a30aa93p+0", 0.625: "0x1.1d16b5809eaf6p-1",
              1.0: "0x1.b5d8780f956b4p-2", 4.75: "0x1.dc603a3e77e9dp-4",
              7.5: "0x1.31742f4d8d4d3p-4", 12.0: "0x1.7fd46c5e0864dp-5",
              55.5: "0x1.4d0d36d130849p-7", 150.0: "0x1.ecfc44def529cp-9",
              1e6: "0x1.2ee5a03c7620fp-21"}

    def test_pinned_bits(self):
        points = list(self.PINNED)
        assert [numerics._erfcx(x).hex() for x in points] == list(self.PINNED.values())
        assert [v.hex() for v in numerics._erfcx(np.array(points)).tolist()] == \
            list(self.PINNED.values())


class TestGaussHermite:
    def test_weights_sum_sqrt_pi(self):
        for order in (10, 61, 101):
            rule = gauss_hermite(order)
            assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), abs=1e-12)
            assert np.all(rule.weights > 0)

    def test_nodes_increasing_and_symmetric(self):
        rule = gauss_hermite(61)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-12

    def test_normalization_of_expectation(self):
        for breakpoints in ((), (0.0,), (-0.5, 2.0)):
            for order in (61, 101):
                _, weights = gaussian_rule(0.3, 1.7, breakpoints, order)
                assert abs(weights.sum() - 1.0) <= 1e-12
                assert np.all(weights > 0)

    @pytest.mark.parametrize("order", [6, 15, 40])
    def test_polynomial_exactness(self, order):
        # exact for all polynomials of degree <= 2*order - 1
        rng = np.random.default_rng(123 + order)
        degree = 2 * order - 1
        coeffs = rng.uniform(-1, 1, degree + 1)
        # standard normal moments: E[G^k] = (k-1)!! for even k, 0 for odd
        moments = np.zeros(degree + 1)
        moments[0] = 1.0
        for k in range(2, degree + 1, 2):
            moments[k] = moments[k - 2] * (k - 1)
        exact = float(coeffs @ moments)
        got = expect(lambda g: np.polynomial.polynomial.polyval(g, coeffs), order=order)
        assert got == pytest.approx(exact, rel=1e-11, abs=1e-11)

    def test_order_validation(self):
        for breakpoints in ((), (0.0,)):
            with pytest.raises(ConfigError):
                gaussian_rule(0.0, 1.0, breakpoints, order=1)

    def test_refuses_orders_it_cannot_build(self):
        # numpy's construction overflows from order 371 on; the suite runs
        # with RuntimeWarnings as errors, so a warning would fail this test
        assert np.all(gauss_hermite(370).weights > 0)
        for order in (371, 400):
            with pytest.raises(ConfigError, match=f"order {order}"):
                gauss_hermite(order)


class TestExpectations:
    def test_1d_examples(self):
        assert expect(lambda g: np.ones_like(g)) == pytest.approx(1.0, abs=1e-14)
        assert expect(lambda g: g * g) == pytest.approx(1.0, abs=1e-12)
        # symmetry oracle: E[Phi(G)] = P(G' < G) = 1/2
        assert expect(lambda g: std_normal_cdf(g)) == pytest.approx(0.5, abs=1e-10)

    def test_split_rule_handles_kink(self):
        # |G| has a kink at 0: the split rule nails E|G| = sqrt(2/pi)
        got = expect(np.abs, breakpoints=[0.0], order=61)
        assert got == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)

    def test_split_rule_handles_jump(self):
        got = expect(lambda g: (g > 0).astype(float), [0.0], order=61)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_split_matches_hermite_on_smooth(self):
        # pole structure of tanh slows Hermite convergence; order 201 reaches
        # the accuracy the split rule already has at order 61
        f = lambda g: np.tanh(1.3 * g + 0.2) ** 2
        assert expect(f, [0.0], order=61) == pytest.approx(expect(f, order=201), abs=1e-12)

    @pytest.mark.parametrize("breakpoints", [(), (0.0,), (-40.0, 0.5, 40.0)])
    def test_moments_of_shifted_law(self, breakpoints):
        mean, sd = -2.3, 0.45
        assert expect(lambda x: x, breakpoints, mean=mean, sd=sd) == pytest.approx(mean, abs=1e-12)
        assert expect(lambda x: (x - mean) ** 2, breakpoints, mean=mean, sd=sd) == pytest.approx(
            sd * sd, abs=1e-12)

    @pytest.mark.parametrize("breakpoints", [(), (0.0,), (-1.0, 3.0)])
    def test_array_mean_rows_equal_scalar_rules(self, breakpoints):
        # breakpoints inside, at the edge of and outside the window of a row
        means = np.array([[-30.0, -1.2, 0.0], [0.4, 2.9, 45.0]])
        nodes, weights = gaussian_rule(means, 0.8, breakpoints, 21)
        assert nodes.shape == means.shape + (21 * (len(breakpoints) + 1),)
        for idx in np.ndindex(means.shape):
            row_nodes, row_weights = gaussian_rule(means[idx], 0.8, breakpoints, 21)
            assert np.array_equal(nodes[idx], row_nodes)
            assert np.array_equal(np.broadcast_to(weights, nodes.shape)[idx], row_weights)

    def test_sd_validation(self):
        for sd in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                gaussian_rule(0.0, sd, (), 61)

    @pytest.mark.parametrize("breakpoints", [(), (0.0,), (-1.0, 3.0)])
    def test_array_sd_rows_equal_scalar_rules(self, breakpoints):
        # one sd per row, and one per element, against each element's own rule
        means = np.array([[-30.0, -1.2, 0.0], [0.4, 2.9, 45.0]])
        for sds in (np.array([[0.3], [2.5]]), np.array([[1e-3, 0.8, 7.0], [0.05, 1.0, 30.0]])):
            nodes, weights = gaussian_rule(means, sds, breakpoints, 21)
            assert nodes.shape == means.shape + (21 * (len(breakpoints) + 1),)
            for idx in np.ndindex(means.shape):
                sd = np.broadcast_to(sds, means.shape)[idx]
                row_nodes, row_weights = gaussian_rule(means[idx], float(sd), breakpoints, 21)
                assert np.array_equal(nodes[idx], row_nodes)
                assert np.array_equal(np.broadcast_to(weights, nodes.shape)[idx], row_weights)

    @pytest.mark.parametrize("breakpoints", [(), (0.0,)])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_array_sd_validation(self, breakpoints, bad):
        # one bad sd among good ones refuses the whole call
        with pytest.raises(DomainError, match="sd must be positive and finite"):
            gaussian_rule(np.zeros(3), np.array([0.5, bad, 1.0]), breakpoints, 21)

    @pytest.mark.parametrize("order", [2, 3, 61, 201])
    def test_legendre_against_a_40_digit_reference(self, order):
        # worst weights: 89 ulp at order 61 and 1,403 at 201 (scipy's
        # roots_legendre: 15,534 and 761,093)
        mpmath = pytest.importorskip("mpmath")
        rule = gauss_legendre(order)
        with mpmath.workdps(40):
            nodes, weights = legendre_reference(mpmath, order)
            assert ulps(rule.nodes, nodes).max() <= 1.0
            bound = {2: 2.0, 3: 2.0, 61: 100.0, 201: 1500.0}[order]
            assert ulps(rule.weights, weights).max() <= bound
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert abs(rule.weights.sum() - 2.0) <= 4 * np.spacing(2.0)

    def test_raw_rules_only_used_by_the_builder(self):
        for path in SRC.glob("*.py"):
            if path.name != "numerics.py":
                text = path.read_text()
                assert "gauss_hermite(" not in text and "gauss_legendre(" not in text, path.name


def legendre_reference(mpmath, n):
    """Roots of P_n and their weights 2/((1 - x^2) P_n'(x)^2), ascending, by
    Newton's method at the working precision on the non-negative roots,
    mirrored."""
    def p_and_dp(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    for i in range(1, (n + 1) // 2 + 1):
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (n + mpmath.mpf(0.5)))
        if 2 * i == n + 1:
            x = mpmath.mpf(0)   # the middle root of an odd order
        for _ in range(100):
            p, dp = p_and_dp(x)
            x -= p / dp
            if abs(p / dp) < mpmath.mpf(10) ** (3 - mpmath.mp.dps):   # quadratic: done
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * p_and_dp(x)[1] ** 2))
    mirrored = n // 2
    return ([-x for x in nodes[:mirrored]] + nodes[::-1],
            weights[:mirrored] + weights[::-1])


class TestSquare:
    def test_the_bits_of_a_floats_power(self):
        # an array's squares are C pow's, as a float's ** (x*x differs from it
        # in the last bit for about one value in 1,200)
        x = np.random.default_rng(3).normal(0.0, 1e3, 20000)
        squares = numerics._square(x, "x")
        assert [float(v) for v in squares] == [v**2 for v in x.tolist()]
        assert np.count_nonzero(x * x != squares) > 0
        assert numerics._square(float(x[0]), "x") == x.tolist()[0] ** 2

    @pytest.mark.parametrize("x", [1e200, np.float64(1e200), np.array([1.0, 1e200])])
    def test_overflow_is_a_domain_error(self, x):
        with pytest.raises(DomainError, match="x is too large"):
            numerics._square(x, "x")

    def test_non_finite_elements_pass_through(self):
        squares = numerics._square(np.array([math.inf, math.nan, 2.0]), "x")
        assert squares[0] == math.inf and math.isnan(squares[1]) and squares[2] == 4.0


class TestMapBlocks:
    def test_blocks_in_order_in_the_shape_of_x(self):
        x = np.arange(1000.0).reshape(10, 100)
        sizes = []

        def twice(block):
            sizes.append(block.size)
            return 2.0 * block

        per_point = numerics._MAP_BLOCK_ELEMENTS // 300
        assert np.array_equal(numerics._map_blocks(twice, x, per_point), 2.0 * x)
        assert sizes == [300, 300, 300, 100]

    def test_a_0d_x_gives_a_float(self):
        out = numerics._map_blocks(lambda block: block + 1.0, np.asarray(2.0), 10)
        assert isinstance(out, float) and out == 3.0


class TestBisection:
    def test_linear(self):
        assert find_root_bisect(lambda x: x - 1.0, 0.0, 2.0, tol=1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_cdf_median(self):
        root = find_root_bisect(lambda x: std_normal_cdf(x) - 0.5, -1.0, 1.0, tol=1e-12)
        assert root == pytest.approx(0.0, abs=1e-11)

    def test_noise_threshold_equation(self):
        # root of Phi(-g2(1-2p)/sqrt(g2(1-2p)^2+alpha)) - p on (0, 0.5);
        # existence guaranteed since gamma^2 = 2.25 >= sqrt(pi*alpha/2) ~ 1.77
        g2, alpha = 1.5**2, 2.0

        def h(p):
            s = 1 - 2 * p
            return std_normal_cdf(-g2 * s / math.sqrt(g2 * s * s + alpha)) - p

        root = find_root_bisect(h, 1e-9, 0.5 - 1e-9, tol=1e-12)
        assert 0.0 < root < 0.5
        assert abs(h(root)) <= 1e-10

    def test_zero_tol_bisects_to_adjacent_floats(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0 / 3.0

        root = find_root_bisect(f, 0.0, 1.0, tol=0.0)
        assert abs(root - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
        assert len(calls) <= 2 + 60   # stops once no float lies between the ends
        with pytest.raises(ConfigError):
            find_root_bisect(f, 0.0, 1.0, tol=-1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_deterministic(self):
        f = lambda x: math.cos(x) - x
        a = find_root_bisect(f, 0.0, 1.0, tol=1e-13)
        b = find_root_bisect(f, 0.0, 1.0, tol=1e-13)
        assert a == b


class TestStableLogistic:
    def test_examples(self):
        assert stable_logistic(0.0) == 0.5
        assert stable_logistic(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_underflow_safe(self):
        v = stable_logistic(-1e4)
        assert 0.0 <= v <= 1e-300
        assert stable_logistic(1e4) == 1.0

    def test_infinities(self):
        assert stable_logistic(float("inf")) == 1.0
        assert stable_logistic(float("-inf")) == 0.0

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([np.linspace(-745.0, 745.0, 10001), [0.0, -0.0]])
        got = stable_logistic(x)
        with mpmath.workdps(40):
            exact = [1 / (1 + mpmath.exp(-mpmath.mpf(float(v)))) for v in x]
            ulps = np.array([float(abs(mpmath.mpf(float(g)) - e)) for g, e in zip(got, exact)])
        normal = np.array([e >= np.finfo(float).tiny for e in exact])
        ulps /= np.spacing(np.array([float(e) for e in exact]))
        assert normal.sum() > 9000
        assert ulps[normal].max() <= 4.0
        # below x = -708.4 the value is subnormal, not flushed to 0
        assert np.all(got[~normal] > 0.0)
        assert np.all(got[~normal] < np.finfo(float).tiny)

    def test_nan_and_zero_dimensional_input(self):
        with pytest.raises(DomainError):
            stable_logistic(float("nan"))
        with pytest.raises(DomainError):
            stable_logistic(np.array([0.0, np.nan]))
        assert type(stable_logistic(np.array(2.0))) is float
        assert stable_logistic(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_symmetry(self, x):
        v = stable_logistic(x)
        assert 0.0 <= v <= 1.0
        assert v + stable_logistic(-x) == pytest.approx(1.0, abs=1e-12)


class TestRngStream:
    def test_bit_exact_reproduction(self):
        a = RngStream(42, 3).generator().standard_normal(100)
        b = RngStream(42, 3).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(1000)
        b = RngStream(42, 1).generator().standard_normal(1000)
        assert not np.array_equal(a, b)
        # crude independence check: correlation of independent streams is small
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.15

    def test_validation(self):
        with pytest.raises(ConfigError):
            RngStream(-1)
        with pytest.raises(ConfigError):
            RngStream(0, -2)


class TestGaussianMatrix:
    # 2**21 // 1000 = 2097 rows per block: two blocks, the second of 3 rows
    N, D = 2100, 1000

    @pytest.fixture
    def draw(self, usable_cpus, split_threads):
        """Draw at ``cpus`` usable CPUs; returns the matrix and the threads
        its pieces ran on."""
        def draw_at(cpus, sd=1.0, shape=(self.N, self.D)):
            usable_cpus(cpus)
            split_threads.clear()
            return RngStream(42, 3).gaussian_matrix(*shape, sd=sd), list(split_threads)
        return draw_at

    def test_same_for_any_thread_count(self, draw):
        one, threads_one = draw(1)
        two, threads_two = draw(2)
        many, threads_many = draw(8)
        assert threads_one == [1] and threads_two == [2] and threads_many == [2]
        assert np.array_equal(one, two) and np.array_equal(one, many)

    def test_more_threads_than_cores(self, draw):
        # rows of 2**20 + 1 entries: one row per block, four blocks on four threads
        shape = (4, 2**20 + 1)
        one, _threads = draw(1, shape=shape)
        four, threads = draw(4, shape=shape)
        assert threads == [4] and np.array_equal(one, four)

    def test_block_k_is_child_k(self, draw):
        # 2**21 // 999 = 2099 rows per block: two blocks of odd size, the
        # second of one row
        X, _threads = draw(2, sd=0.5, shape=(2100, 999))
        children = np.random.SeedSequence((42, 3)).spawn(2)
        for k, rows in enumerate((slice(0, 2099), slice(2099, 2100))):
            block = box_muller_block(children[k], (rows.stop - rows.start) * 999, sd=0.5)
            assert np.array_equal(X[rows].reshape(-1), block)

    def test_one_block_is_drawn_inline(self, draw):
        small, threads = draw(2, sd=0.5, shape=(31, 21))
        assert threads == [1]
        child = np.random.SeedSequence((42, 3)).spawn(1)[0]
        assert small.dtype == np.float32
        assert np.array_equal(small.reshape(-1), box_muller_block(child, 31 * 21, sd=0.5))

    def test_same_for_any_chunk_size(self, draw, monkeypatch):
        whole, _threads = draw(2, sd=0.5, shape=(2100, 999))
        monkeypatch.setattr(numerics, "_SCRATCH_ELEMENTS", 2**10)
        chunked, _threads = draw(2, sd=0.5, shape=(2100, 999))
        assert np.array_equal(whole, chunked)

    def test_entries_are_standard_normal(self):
        # 2**22 entries; measured mean -9.3e-5, variance 1 - 4.5e-4, kurtosis
        # 3.00098, sqrt(n) D = 0.591 and paired-square correlation 2.3e-4
        # (standard errors 4.9e-4, 6.9e-4, 2.4e-3 and 6.9e-4; the 5% point of
        # sqrt(n) D is 1.36)
        x = RngStream(42, 3).gaussian_matrix(2048, 2048).reshape(-1).astype(float)
        n = x.size
        assert abs(x.mean()) <= 2e-4
        assert abs(x.var() - 1.0) <= 1e-3
        assert abs(np.mean((x - x.mean()) ** 4) / x.var() ** 2 - 3.0) <= 2e-3
        cdf = numerics._ndtr(np.sort(x))
        ranks = np.arange(1, n + 1) / n
        ks = max((ranks - cdf).max(), (cdf - ranks + 1.0 / n).max())
        assert math.sqrt(n) * ks <= 0.8
        squares = x * x
        assert abs(np.corrcoef(squares[0::2], squares[1::2])[0, 1]) <= 5e-4

    def test_independent_of_generator(self):
        stream = RngStream(42, 3)
        assert not np.array_equal(stream.gaussian_matrix(1, 50),
                                  stream.generator().standard_normal((1, 50)))

    def test_empty_shape_rejected(self):
        with pytest.raises(ConfigError):
            RngStream(0).gaussian_matrix(0, 5)
        with pytest.raises(ConfigError):
            RngStream(0).gaussian_matrix(5, 0)

    def test_no_module_imports_scipy(self):
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "scipy" for name in names), path.name

    def test_only_numerics_draws_matrices_or_starts_threads(self):
        for path in SRC.glob("*.py"):
            text = path.read_text()
            assert "standard_normal((" not in text, path.name
            if path.name != "numerics.py":
                assert "ThreadPoolExecutor" not in text, path.name
                assert "threading" not in text, path.name


def box_muller_block(child, entries, sd):
    """One block of ``gaussian_matrix``, flat, from the whole block's uniforms
    at once: uniforms 2i and 2i+1 (u, v) give entries 2i and 2i+1,
    R cos(theta) and R sin(theta), R = sqrt(float32(-2 sd^2 log(1 - u))),
    theta = float32(2 pi v); an odd block drops its last sine."""
    uniforms = np.random.Generator(np.random.PCG64(child)).random(entries + entries % 2)
    u, v = uniforms[0::2], uniforms[1::2]
    radius = np.sqrt((-2.0 * sd * sd * np.log(1.0 - u)).astype(np.float32))
    theta = (2.0 * np.pi * v).astype(np.float32)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1).reshape(-1)[:entries]


@functools.lru_cache(maxsize=1)   # the tests run one shape after another
def design_matrix(n, d):
    return np.random.default_rng(d).standard_normal((n, d), dtype=np.float32)


def serial_products(X, g, w):
    """X^T g and X w on the calling thread, one row block at a time: each
    block's float32 einsum, those sums added in float64 in block order, and
    each block's vecdot."""
    rows, blocks = numerics._row_blocks(*X.shape)
    g, w = g.astype(np.float32), w.astype(np.float32)
    pieces = [slice(k * rows, (k + 1) * rows) for k in range(blocks)]
    sums = [np.einsum("ij,i->j", X[piece], g[piece]) for piece in pieces]
    rmatvec = sums[0].astype(float)
    for block_sum in sums[1:]:
        rmatvec += block_sum
    matvec = np.concatenate([np.vecdot(X[piece], w) for piece in pieces]).astype(float)
    return rmatvec, matvec


class TestDesignMatrixProducts:
    # 2 row blocks each, then 5 (7 for d 5000), the last one partial, so that
    # 3, 4 and 7 CPUs split the work; no n is a multiple of 8
    SHAPES = [(123363, 17), (67651, 31), (2101, 999), (2097, 1001), (421, 5000),
              (493447, 17), (270603, 31), (8397, 999), (8381, 1001), (2515, 5000)]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_same_bits_as_the_whole_matrix_product(self, usable_cpus, split_threads,
                                                   shape, cpus):
        # the whole matrix's products on the calling thread, block by block
        X = design_matrix(*shape)
        gen = np.random.default_rng(cpus)
        g, w = gen.standard_normal(shape[0]), gen.standard_normal(shape[1])
        usable_cpus(cpus)
        rmatvec, matvec = numerics._rmatvec(X, g), numerics._matvec(X, w)
        blocks = numerics._row_blocks(*shape)[1]
        assert blocks in (2, 5, 7)
        assert split_threads == [min(cpus, blocks)] * 2
        assert rmatvec.dtype == matvec.dtype == np.float64
        serial_rmatvec, serial_matvec = serial_products(X, g, w)
        assert np.array_equal(rmatvec, serial_rmatvec)
        assert np.array_equal(matvec, serial_matvec)

    @pytest.mark.parametrize("shape", SHAPES[7:], ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_rmatvec_error_against_float64(self, shape):
        # blocks of at most 2099 rows: measured 1.8e-6 to 3.5e-6 sqrt(n); one
        # float32 sum over all the rows read 6.4e-6 to 9.8e-6 sqrt(n)
        X = design_matrix(*shape)
        g = np.random.default_rng(1).standard_normal(shape[0]).astype(np.float32)
        exact = sum(np.einsum("ij,i->j", X[a:a + 1000].astype(float), g[a:a + 1000].astype(float))
                    for a in range(0, shape[0], 1000))
        assert np.abs(numerics._rmatvec(X, g) - exact).max() <= 4.5e-6 * math.sqrt(shape[0])

    def test_below_the_split_size_runs_inline(self, usable_cpus, split_threads):
        # one row block, on the calling thread: fewer than 2**21 entries, or
        # exactly 2**21 in 2**21 // d rows
        usable_cpus(2)
        for n, d in [(2000, 1000), (2048, 1024)]:
            X = design_matrix(n, d)
            g = np.random.default_rng(2).standard_normal(n).astype(np.float32)
            w = np.random.default_rng(3).standard_normal(d).astype(np.float32)
            split_threads.clear()
            rmatvec, matvec = numerics._rmatvec(X, g), numerics._matvec(X, w)
            assert split_threads == [1, 1]
            assert np.array_equal(rmatvec, np.einsum("ij,i->j", X, g).astype(float))
            assert np.array_equal(matvec, np.vecdot(X, w).astype(float))

    def test_a_failing_piece_raises_after_every_thread_is_joined(self, usable_cpus):
        usable_cpus(3)
        done = []

        def work(a, b):
            if a <= 3 < b:
                raise DomainError("block 3")
            done.append((a, b))

        before = threading.active_count()
        with pytest.raises(DomainError, match="block 3"):
            numerics._split(5, work)
        assert sorted(done) == [(0, 1), (1, 3)] and threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_threads_keep_the_callers_error_state(self, usable_cpus, cpus):
        # the suite turns RuntimeWarning into an error
        usable_cpus(cpus)
        big = np.full(4, 1e38, dtype=np.float32)
        with np.errstate(over="ignore"):
            numerics._split(2, lambda a, b: big * np.float32(10.0))
        with pytest.raises(FloatingPointError):
            with np.errstate(over="raise"):
                numerics._split(2, lambda a, b: big * np.float32(10.0))
