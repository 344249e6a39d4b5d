import functools
import math
import os
import pathlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_retrain import numerics
from amp_retrain.errors import BracketError, ConfigError, DomainError
from amp_retrain.numerics import (
    RngStream,
    expect_output_channel,
    find_root_bisect,
    gauss_hermite,
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

    def test_raw_rules_only_used_by_the_builder(self):
        for path in SRC.glob("*.py"):
            if path.name != "numerics.py":
                text = path.read_text()
                assert "gauss_hermite(" not in text and "gauss_legendre(" not in text, path.name


class TestOutputChannel:
    def test_point_mass(self):
        seen = []

        def values(u):
            seen.append(u)
            return (np.cos(u), u), (u * u, np.ones_like(u))

        got = expect_output_channel([0.5, -2.0, 3.0], (0.2, 0.5, 0.3), (0.9, 0.4, 0.1), 1.5, 0.0,
                                    (0.0,), values, 61)
        assert np.array_equal(seen[0], [[0.75], [-3.0], [4.5]])
        # enumeration of the (latent, label) atoms at U = 1.5 * L
        atoms = [(0.2 * 0.9, 0.75, 1), (0.2 * 0.1, 0.75, -1), (0.5 * 0.4, -3.0, 1),
                 (0.5 * 0.6, -3.0, -1), (0.3 * 0.1, 4.5, 1), (0.3 * 0.9, 4.5, -1)]
        first = sum(w * (math.cos(u) if lab > 0 else u * u) for w, u, lab in atoms)
        second = sum(w * (u if lab > 0 else 1.0) for w, u, lab in atoms)
        assert got == pytest.approx([first, second], rel=1e-15)

    def test_two_atoms_against_enumeration(self):
        # U | L ~ N(gain*L, sd^2): E[U] = gain*L, E[U^2] = (gain*L)^2 + sd^2,
        # P(U > 0) = Phi(gain*L/sd) (the jump needs the breakpoint)
        gain, sd = 0.9, 0.6

        def values(u):
            return (u, (u > 0).astype(float)), (u * u, np.zeros_like(u))

        got = expect_output_channel([1.0, -1.0], (0.3, 0.7), (0.8, 0.25), gain, sd, (0.0,),
                                    values, 61)
        first = second = 0.0
        for lat, w, q in zip((1.0, -1.0), (0.3, 0.7), (0.8, 0.25)):
            mean = gain * lat
            first += w * (q * mean + (1 - q) * (mean * mean + sd * sd))
            second += w * q * std_normal_cdf(mean / sd)
        assert got == pytest.approx([first, second], abs=1e-12)


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


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class TestGaussianMatrix:
    # 2**21 // 1000 = 2097 rows per block: two blocks, the second of 3 rows
    N, D, ROWS = 2100, 1000, 2097

    @pytest.fixture
    def draw(self, monkeypatch, split_threads):
        """Draw at ``cpus`` usable CPUs; returns the matrix and the threads
        its pieces ran on."""
        def draw_at(cpus, sd=1.0, shape=(self.N, self.D)):
            usable_cpus(monkeypatch, cpus)
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
        X, _threads = draw(2, sd=0.5)
        children = np.random.SeedSequence((42, 3)).spawn(2)
        for k, rows in enumerate((slice(0, self.ROWS), slice(self.ROWS, self.N))):
            block = np.random.Generator(np.random.PCG64(children[k])).standard_normal(
                (rows.stop - rows.start, self.D))
            assert np.array_equal(X[rows], (block * 0.5).astype(np.float32))

    def test_one_block_is_drawn_inline(self, draw):
        small, threads = draw(2, shape=(30, 20))
        assert threads == [1]
        child = np.random.SeedSequence((42, 3)).spawn(1)[0]
        assert small.dtype == np.float32
        assert np.array_equal(small, np.random.Generator(np.random.PCG64(child))
                              .standard_normal((30, 20)).astype(np.float32))

    def test_independent_of_generator(self):
        stream = RngStream(42, 3)
        assert not np.array_equal(stream.gaussian_matrix(1, 50),
                                  stream.generator().standard_normal((1, 50)))

    def test_empty_shape_rejected(self):
        with pytest.raises(ConfigError):
            RngStream(0).gaussian_matrix(0, 5)
        with pytest.raises(ConfigError):
            RngStream(0).gaussian_matrix(5, 0)

    def test_only_numerics_draws_matrices_or_starts_threads(self):
        for path in SRC.glob("*.py"):
            text = path.read_text()
            assert "standard_normal((" not in text, path.name
            if path.name != "numerics.py":
                assert "ThreadPoolExecutor" not in text, path.name
                assert "threading" not in text, path.name


@functools.lru_cache(maxsize=1)   # the tests run one shape after another
def design_matrix(n, d):
    return np.random.default_rng(d).standard_normal((n, d), dtype=np.float32)


class TestDesignMatrixProducts:
    # each shape has at least 2**21 entries, the least a product is split at;
    # no n is a multiple of 8
    SHAPES = [(123363, 17), (67651, 31), (2101, 999), (2097, 1001), (421, 5000)]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_same_bits_as_the_whole_matrix_product(self, monkeypatch, split_threads,
                                                   shape, cpus):
        X = design_matrix(*shape)
        gen = np.random.default_rng(cpus)
        g, w = gen.standard_normal(shape[0]), gen.standard_normal(shape[1])
        usable_cpus(monkeypatch, cpus)
        rmatvec, matvec = numerics._rmatvec(X, g), numerics._matvec(X, w)
        # X^T g splits the columns in runs of 16, so d < 32 is one piece
        assert split_threads == [cpus if shape[1] >= 32 else 1, cpus]
        assert rmatvec.dtype == matvec.dtype == np.float64
        assert np.array_equal(rmatvec, np.einsum("ij,i->j", X, g.astype(np.float32)))
        assert np.array_equal(matvec, np.vecdot(X, w.astype(np.float32)))

    def test_a_failing_piece_raises_after_every_thread_is_joined(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        done = []

        def work(j, threads):
            if j == 2:
                raise DomainError("piece 2")
            done.append(j)

        before = threading.active_count()
        with pytest.raises(DomainError, match="piece 2"):
            numerics._split(5, work)
        assert sorted(done) == [0, 1] and threading.active_count() == before

    def test_below_the_split_size_runs_inline(self, monkeypatch, split_threads):
        X = design_matrix(2000, 1000)
        usable_cpus(monkeypatch, 2)
        numerics._rmatvec(X, np.ones(2000))
        numerics._matvec(X, np.ones(1000))
        assert split_threads == []
