import hashlib
import math
import sys

import numpy as np
import pytest

from amp_retrain.errors import ConfigError, DomainError, ShapeError
from amp_retrain.glm import (
    _POSTERIOR_ROWS,
    GlmParams,
    LogisticLink,
    OptimalGlm,
    OptimalSign,
    ProbitLink,
    SignLink,
    error_curve_glm,
    glm_evaluator,
    hat_h_p,
    link_from_name,
    overlap_glm,
    sample_glm_dataset,
)
from amp_retrain.glm import test_error_glm as glm_error
from amp_retrain.gmm import IdentityAggregator
from amp_retrain.numerics import RngStream, gaussian_rule
from amp_retrain.retrain import AmpState, Dataset, SeState, amp_step, run_retraining


def zero_state(data):
    return AmpState(w=np.zeros(data.d), y_soft=np.zeros(data.n), t=0)


def step(state, data, agg):
    return amp_step(state, data.X, data.y_noisy, data.scale, agg)


def schedule(agg, T):
    """Identity first, then agg for the remaining T - 1 steps."""
    return (IdentityAggregator(),) + (agg,) * (T - 1)


def rows_sum(X, g):
    """X^T g in float32 with the rows added in order, as float64: a plain
    transcription of the engine's product."""
    return (X * g.astype(np.float32)[:, None]).sum(axis=0).astype(float)


class HalfLink:
    """Uninformative link h = 1/2: labels carry no margin information."""

    name = "half"
    discontinuities = ()
    noise_var = None

    def h(self, z, out=None, scratch=None):
        return np.full_like(np.asarray(z, dtype=float), 0.5)


def sign_params(alpha=2.0, p=0.2, n=1000, gamma=1.0):
    return GlmParams(gamma=gamma, alpha=alpha, p=p, link=SignLink(), n=n)


class TestLinks:
    def test_factory(self):
        assert isinstance(link_from_name("sign"), SignLink)
        assert isinstance(link_from_name("logistic"), LogisticLink)
        assert isinstance(link_from_name("probit"), ProbitLink)
        with pytest.raises(ConfigError):
            link_from_name("cauchy")

    def test_margin_favours_the_positive_label(self):
        # h(u) > h(-u) for u > 0 makes the error curve decreasing in the overlap
        u = np.linspace(1e-3, 8.0, 64)
        for link in (SignLink(), LogisticLink(), ProbitLink()):
            assert np.all(link.h(u) > link.h(-u)), link

    def test_probit_ends(self):
        h = ProbitLink().h
        assert h(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]
        assert (h(np.inf), h(-np.inf)) == (1.0, 0.0)

    def test_hat_h_p_sign(self):
        link = SignLink()
        assert hat_h_p(3.0, link, 0.2) == pytest.approx(0.8)
        assert hat_h_p(-3.0, link, 0.2) == pytest.approx(0.2)

    def test_hat_h_p_pure_noise(self):
        for link in (SignLink(), LogisticLink(), ProbitLink()):
            assert hat_h_p(1.7, link, 0.5) == pytest.approx(0.5)

    def test_hat_h_p_logistic_center(self):
        assert hat_h_p(0.0, LogisticLink(), 0.3) == pytest.approx(0.5)

    def test_hat_h_p_range(self):
        zs = np.linspace(-20, 20, 101)
        vals = hat_h_p(zs, LogisticLink(), 0.1)
        assert np.all(vals >= 0.1 - 1e-12) and np.all(vals <= 0.9 + 1e-12)


class TestSampling:
    def test_no_flips(self):
        params = GlmParams(gamma=1.0, alpha=0.5, p=0.0, link=LogisticLink(), n=400)
        data = sample_glm_dataset(params, RngStream(1))
        assert np.array_equal(data.y_true, data.y_noisy)

    def test_sign_link_deterministic_labels(self):
        params = sign_params(n=500)
        data = sample_glm_dataset(params, RngStream(2))
        margins = data.X @ data.truth
        assert np.array_equal(data.y_true, np.sign(margins))

    def test_beta_normalization(self):
        params = GlmParams(gamma=1.7, alpha=0.5, p=0.1, link=LogisticLink(), n=600)
        data = sample_glm_dataset(params, RngStream(3))
        assert np.linalg.norm(data.truth) ** 2 / data.d == pytest.approx(1.7**2, abs=1e-12)
        # X already carries the 1/n covariance
        assert data.scale == 1.0

    def test_noisy_label_statistics(self):
        params = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=LogisticLink(), n=1000)
        data = sample_glm_dataset(params, RngStream(4))
        margins = data.X @ data.truth
        pos = margins > 0
        emp = np.mean(data.y_noisy[pos] == 1.0)
        model = np.mean(hat_h_p(margins[pos], params.link, params.p))
        se = math.sqrt(model * (1 - model) / pos.sum())
        assert abs(emp - model) <= 4 * se


class TestOptimalAggregator:
    def test_uninformative_link_collapses_to_zero(self):
        # with h = 1/2 the posterior mean is the plain Gaussian conditional
        # mean and the two terms cancel exactly
        agg = OptimalGlm.from_eta(0.7, GlmParams(gamma=1.0, alpha=2.0, p=0.2, link=HalfLink(),
                                                 n=100))
        for u in (-2.0, 0.0, 1.3, 4.0):
            for yhat in (1, -1):
                assert abs(float(agg.value_and_deriv(u, yhat)[0])) <= 1e-12

    def test_sign_quadrature_matches_closed_form(self):
        params = sign_params(alpha=2.0, p=0.2)
        for eta in (0.0, 0.5):
            quad_agg, closed_agg = OptimalGlm.from_eta(eta, params), OptimalSign.from_eta(eta, params)
            for u in np.linspace(-3, 3, 13):
                for yhat in (1, -1):
                    quad = float(quad_agg.value_and_deriv(float(u), yhat)[0])
                    closed = float(closed_agg.value_and_deriv(float(u), yhat)[0])
                    assert abs(quad - closed) <= 1e-6, (eta, u, yhat)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_probit_quadrature_matches_closed_form(self, p):
        # criterion 09's check for the other Gaussian-threshold link: the
        # posterior quadrature against the closed form, value and derivative
        params = GlmParams(gamma=2.0, alpha=0.5, p=p, link=ProbitLink(), n=100)
        u = np.linspace(-3, 3, 13)
        for eta in (0.0, 0.5):
            quad_agg, closed_agg = OptimalGlm.from_eta(eta, params), OptimalSign.from_eta(eta, params)
            for yhat in (1.0, -1.0):
                for quad, closed in zip(quad_agg.value_and_deriv(u, yhat),
                                        closed_agg.value_and_deriv(u, yhat)):
                    assert np.max(np.abs(quad - closed)) <= 1e-6, (eta, yhat)

    def test_sign_antisymmetry(self):
        agg = OptimalGlm.from_eta(0.5, sign_params(alpha=2.0, p=0.2))
        for u in np.linspace(-3, 3, 7):
            a = float(agg.value_and_deriv(float(u), 1)[0])
            b = float(agg.value_and_deriv(float(-u), -1)[0])
            assert abs(a + b) <= 1e-9

    def test_closed_form_at_origin(self):
        params = sign_params(alpha=2.0, p=0.2)
        eta = 0.5
        s = 1.0 / math.sqrt(1.0 / 2.0 + eta**2)
        expected = (1 - 2 * 0.2) * math.sqrt(2 / math.pi) / s
        agg = OptimalSign.from_eta(eta, params)
        assert float(agg.value_and_deriv(0.0, 1)[0]) == pytest.approx(expected, abs=1e-14)
        assert float(agg.value_and_deriv(0.0, -1)[0]) == pytest.approx(-expected, abs=1e-14)

    def test_closed_form_decays(self):
        agg = OptimalSign.from_eta(0.5, sign_params(alpha=2.0, p=0.2))
        assert abs(float(agg.value_and_deriv(1e4, 1)[0])) <= 1e-280

    def test_sign_without_flips(self):
        # p = 0 takes the erfcx form: the closed form with its denominator
        # 1 + yhat*(2*Phi(r) - 1) = 2*Phi(yhat*r) = erfc(-yhat*r/sqrt(2)) where
        # nothing underflows, finite beyond
        agg = OptimalSign.from_eta(0.8, sign_params(alpha=0.5, p=0.0))
        s = 1.0 / math.sqrt(2.0 + 0.8**2)
        u = np.linspace(-6.0, 6.0, 121)
        for yhat in (1.0, -1.0):
            r = 2.0 * s * u
            den = np.vectorize(math.erfc)(-yhat * r / math.sqrt(2.0))
            closed = yhat * math.sqrt(2 / math.pi) * np.exp(-r * r / 2) / (den * s)
            assert np.allclose(agg.value_and_deriv(u, yhat)[0], closed, rtol=1e-13, atol=0.0)
            far = np.array([-1e6, -60.0, 60.0, 1e6])
            g, dg = agg.value_and_deriv(far, yhat)
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(dg))
            assert np.all(g[far * yhat > 0] == 0.0)

    def test_sign_without_flips_derivative_far_on_the_wrong_side(self):
        # at confident wrong-side predictions the closed form's two terms
        # cancel; against a 50-digit derivative of g = yhat*phi(r)/(s*Phi(yhat*r))
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        agg = OptimalSign.from_eta(3.0, sign_params(alpha=0.5, p=0.0))
        s = 1 / mpmath.sqrt(1 / mpmath.mpf(agg.prior_var) + agg.quad_a)

        def g(u, yhat):
            r = agg.lin_b * s * u
            return yhat * mpmath.npdf(r) / (s * mpmath.ncdf(yhat * r))

        for yhat in (1.0, -1.0):
            for u in (-1e2, -1e3, -1e6):
                exact = mpmath.diff(lambda x: g(x, yhat), mpmath.mpf(u * yhat))
                dg = agg.value_and_deriv(u * yhat, yhat)[1]
                assert abs(float((dg - exact) / exact)) <= 1e-12, (yhat, u)

    def test_near_pure_noise_vanishes(self):
        agg = OptimalSign.from_eta(0.5, sign_params(alpha=2.0, p=0.4999999))
        assert abs(float(agg.value_and_deriv(0.7, 1)[0])) <= 1e-5

    def test_domain_errors(self):
        params = sign_params()
        with pytest.raises(DomainError):
            OptimalSign.from_eta(-0.5, params)

    def test_eta_whose_square_overflows(self):
        # finite eta, but a Python float's eta**2 raises the built-in OverflowError
        smooth = GlmParams(gamma=1.0, alpha=1.0, p=0.2, link=LogisticLink(), n=100)
        with pytest.raises(DomainError, match="eta is too large"):
            OptimalGlm.from_eta(1e160, smooth)
        with pytest.raises(DomainError, match="eta is too large"):
            OptimalSign.from_eta(1e160, sign_params())

    def test_labels_other_than_plus_minus_one_rejected(self):
        smooth = GlmParams(gamma=1.0, alpha=1.0, p=0.2, link=LogisticLink(), n=100)
        aggs = [OptimalGlm.from_eta(0.5, smooth), OptimalGlm.from_eta(0.5, sign_params()),
                OptimalSign.from_eta(0.5, sign_params())]
        for agg in aggs:
            for yhat in ([0.0, 0.5], [1.0, 0.0], 2.0):
                with pytest.raises(DomainError):
                    agg.value_and_deriv([0.3, 0.5], yhat)

    def test_logistic_smooth_eta_zero_allowed(self):
        params = GlmParams(gamma=1.0, alpha=1.0, p=0.2, link=LogisticLink(), n=100)
        v = float(OptimalGlm.from_eta(0.0, params).value_and_deriv(0.3, 1)[0])
        assert math.isfinite(v)


class TestPosteriorKernel:
    """A point's value and derivative have the same bits however the points
    are batched, ordered or split over threads."""

    N = 2 * _POSTERIOR_ROWS + 517   # three row blocks, the last one partial

    @pytest.fixture(scope="class", params=["logistic", "probit"])
    def case(self, request):
        params = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=link_from_name(request.param))
        agg = OptimalGlm.from_eta(0.8, params)
        gen = np.random.default_rng(5)
        u = gen.normal(0.0, 3.0, self.N)
        yhat = np.where(gen.random(self.N) < 0.6, 1.0, -1.0)
        return agg, u, yhat, agg.value_and_deriv(u, yhat)

    def test_one_point_per_call(self, case):
        agg, u, yhat, (g, dg) = case
        single = np.array([agg.value_and_deriv(a, b) for a, b in zip(u, yhat)])
        assert np.array_equal(single[:, 0], g)
        assert np.array_equal(single[:, 1], dg)

    def test_permuted_batch(self, case):
        agg, u, yhat, (g, dg) = case
        perm = np.random.default_rng(6).permutation(self.N)
        g_perm, dg_perm = agg.value_and_deriv(u[perm], yhat[perm])
        assert np.array_equal(g_perm, g[perm])
        assert np.array_equal(dg_perm, dg[perm])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_usable_cpus(self, case, usable_cpus, split_threads, cpus):
        agg, u, yhat, (g, dg) = case
        usable_cpus(cpus)
        g_cpus, dg_cpus = agg.value_and_deriv(u, yhat)
        assert split_threads == [cpus]
        assert np.array_equal(g_cpus, g)
        assert np.array_equal(dg_cpus, dg)

    def test_both_labels_share_one_evaluation(self, case):
        # label_values evaluates the link once for both labels, with the
        # same bits as one label at a time
        agg, u, _, _ = case
        g_plus, g_minus, _ = agg.label_values(u)
        assert np.array_equal(g_plus, agg.value_and_deriv(u, 1.0)[0])
        assert np.array_equal(g_minus, agg.value_and_deriv(u, -1.0)[0])


def digest(*arrays):
    """sha256 of the arrays' float64 bytes, one after another."""
    data = b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)
    return hashlib.sha256(data).hexdigest()


class TestPosteriorPins:
    """The logistic posterior kernel's values of version 0.22.0, bit for bit,
    on one and two threads."""

    PARAMS = GlmParams(gamma=2.0, alpha=0.5, p=0.2, link=LogisticLink())

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("points,expected", [
        # one row block; two, the last partial; five
        (700, "4425c60a7c422a19410f9fe09fc6a8ca1ee2ce55b1c2ef25c413cedc7d0228f1"),
        (_POSTERIOR_ROWS + 300,
         "84a3978ff9240b76423b54e7d5b91f24a851dd3ded8b9a740325f7f6a5e741f9"),
        (4 * _POSTERIOR_ROWS + 17,
         "d5746f198f3416a72dc121606ff1e53e31a73d5d43519af5a08df113998af0af"),
    ])
    def test_scalar_sd(self, usable_cpus, cpus, points, expected):
        usable_cpus(cpus)
        assert self.scalar_sd_digest(points) == expected

    def scalar_sd_digest(self, points):
        agg = OptimalGlm.from_eta(0.8, self.PARAMS)
        gen = np.random.default_rng(points)
        u = gen.normal(0.0, 3.0, points)
        yhat = np.where(gen.random(points) < 0.6, 1.0, -1.0)
        return digest(*agg.value_and_deriv(u, yhat), *agg.label_values(u))

    def test_more_threads_than_cores(self, usable_cpus, split_threads):
        # five threads share one scratch array, switching as often as the
        # interpreter allows: each must write its own rows only
        usable_cpus(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.scalar_sd_digest(4 * _POSTERIOR_ROWS + 17)
        finally:
            sys.setswitchinterval(interval)
        assert split_threads == [5, 5]
        assert got == "d5746f198f3416a72dc121606ff1e53e31a73d5d43519af5a08df113998af0af"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_per_row_sd(self, usable_cpus, cpus):
        # one matched aggregator per row of nodes, as se_step_glm_opt batches
        # its states: 12 rows of 201 nodes, three row blocks
        usable_cpus(cpus)
        eta = np.linspace(0.3, 3.0, 12)
        alpha, prior_var = self.PARAMS.alpha, self.PARAMS.prior_var
        state = SeState(mu=(alpha * eta**2)[:, None], sigma=(alpha * eta)[:, None])
        agg = OptimalGlm.from_se_state(state, self.PARAMS)
        u, _ = gaussian_rule(0.0, np.sqrt((alpha * eta**2)**2 * prior_var + (alpha * eta)**2),
                             (), 201)
        yhat = np.where(np.arange(u.size).reshape(u.shape) % 3 == 0, -1.0, 1.0)
        g_plus, g_minus, q = agg.label_values(u)
        assert float(g_minus[5, 100]).hex() == "-0x1.1bf4c6bf39534p-2"
        assert digest(*agg.value_and_deriv(u, yhat), g_plus, g_minus, q) == (
            "a6b7a97a41b4e093773cad49a1ec3a36c757528adde94b49f2fa103b7d79db20")


class TestOnsagerGlm:
    def test_identity_zero(self):
        # the engine's c, read off one step on a zero matrix from w = 1: w' = -c
        y = np.linspace(-1, 1, 9)
        yhat = np.ones(9)
        X = np.zeros((9, 1), dtype=np.float32)
        state = amp_step(AmpState(np.ones(1), y, 0), X, yhat, 1.0, IdentityAggregator())
        assert state.w[0] == 0.0

    def test_deriv_matches_central_difference(self):
        # the analytic derivative behind the Onsager term, against a central
        # difference of the aggregator itself
        smooth = dict(gamma=1.5, alpha=0.5, p=0.2, n=100)
        aggs = [
            OptimalSign.from_eta(0.8, sign_params(alpha=0.5, p=0.2)),
            OptimalGlm.from_eta(0.8, GlmParams(link=LogisticLink(), **smooth)),
            # a steep probit link: Phi(2z) at gamma 1.5 is Phi(z) at gamma 3
            OptimalGlm.from_eta(0.8, GlmParams(link=ProbitLink(), **dict(smooth, gamma=3.0))),
            OptimalGlm.from_eta(0.8, sign_params(alpha=0.5, p=0.2)),  # quadrature
            OptimalSign.from_eta(0.8, sign_params(alpha=0.5, p=0.0)),  # erfcx form
        ]
        u = np.linspace(-6.0, 6.0, 241)
        h = 1e-5
        for agg in aggs:
            for lab in (1.0, -1.0):
                yhat = np.full_like(u, lab)
                deriv = agg.value_and_deriv(u, yhat)[1]
                central = (agg.value_and_deriv(u + h, yhat)[0]
                           - agg.value_and_deriv(u - h, yhat)[0]) / (2 * h)
                gap = np.max(np.abs(deriv - central))
                assert gap <= 1e-8, f"{agg!r}, label {lab}: gap {gap:.2e}"


class TestAmpStepGlm:
    def test_first_step_exact(self):
        params = sign_params(n=80, alpha=0.5)
        data = sample_glm_dataset(params, RngStream(7))
        state = step(zero_state(data), data, IdentityAggregator())
        assert np.array_equal(state.w, rows_sum(data.X, data.y_noisy))

    def test_zero_matrix(self):
        n, d = 20, 10
        data = Dataset(X=np.zeros((n, d)), y_true=np.ones(n), y_noisy=np.ones(n),
                       truth=np.ones(d), scale=1.0)
        params = sign_params(n=n, alpha=0.5)
        agg = OptimalSign.from_eta(0.5, params)
        beta0 = np.linspace(1, 2, d)
        y0 = np.linspace(-1, 1, n)
        state = step(AmpState(beta0, y0, 1), data, agg)
        c = np.mean(agg.value_and_deriv(y0, data.y_noisy)[1])
        assert np.allclose(state.w, -c * beta0, atol=1e-15)

    def test_label_count_must_match_rows(self):
        params = sign_params(n=20, alpha=0.5)
        data = sample_glm_dataset(params, RngStream(7))
        state = AmpState(np.zeros(data.d), np.zeros(data.n), 1)
        with pytest.raises(ShapeError):
            amp_step(state, data.X, data.y_noisy[:-1], data.scale,
                     OptimalSign.from_eta(0.5, params))

    def test_against_straight_line_reimplementation(self):
        params = sign_params(alpha=0.5, p=0.2, n=50)
        assert params.d == 25
        data = sample_glm_dataset(params, RngStream(8))
        agg = OptimalSign.from_eta(0.7, params)
        state = zero_state(data)
        state = step(state, data, IdentityAggregator())
        state = step(state, data, agg)

        n, d, alpha, p, eta = 50, 25, 0.5, 0.2, 0.7
        X = data.X

        def matvec(v):   # one float32 dot product per row, float64 result
            return np.vecdot(X, v.astype(np.float32)).astype(float)

        beta = rows_sum(X, data.y_noisy)
        y = matvec(beta) - data.y_noisy * d / n
        s = 1.0 / math.sqrt(1 / alpha + eta**2)

        def g_fn(u):
            r = u * s / alpha
            num = (1 - 2 * p) * data.y_noisy * math.sqrt(2 / math.pi) * np.exp(-r * r / 2)
            den = 1 + (1 - 2 * p) * data.y_noisy * (2 * 0.5 * (1 + np.vectorize(math.erf)(r / math.sqrt(2))) - 1)
            return num / den / s

        h = 1e-5
        c = np.mean((g_fn(y + h) - g_fn(y - h)) / (2 * h))
        beta2 = rows_sum(X, g_fn(y)) - c * beta
        y2 = matvec(beta2) - g_fn(y) * d / n
        assert np.max(np.abs(state.w - beta2)) <= 1e-10
        assert np.max(np.abs(state.y_soft - y2)) <= 1e-10


class TestErrorCurve:
    def test_sign_chance_and_perfect(self):
        params = sign_params(n=100)
        data = sample_glm_dataset(params, RngStream(9))
        ortho = np.zeros(params.d)
        # build an exactly orthogonal vector
        ortho[0], ortho[1] = data.truth[1], -data.truth[0]
        assert glm_error(ortho, data, params) == pytest.approx(0.5, abs=1e-12)
        # arccos amplifies rounding near rho = 1 by sqrt(eps)
        assert glm_error(data.truth, data, params) == pytest.approx(0.0, abs=1e-7)

    def test_logistic_chance_level(self):
        params = GlmParams(gamma=1.0, alpha=2.0, p=0.1, link=LogisticLink(), n=100)
        assert error_curve_glm(0.0, params) == pytest.approx(0.5, abs=1e-10)

    def test_decreasing_in_overlap(self):
        # the probit link at gamma 0.84 is a shallow one, Phi(0.7z) at gamma 1.2
        for link, gamma in ((SignLink(), 1.2), (LogisticLink(), 1.2), (ProbitLink(), 0.84)):
            params = GlmParams(gamma=gamma, alpha=1.5, p=0.1, link=link, n=100)
            rhos = np.linspace(-0.99, 0.99, 41)
            vals = [error_curve_glm(float(r), params) for r in rhos]
            assert np.all(np.diff(vals) < 0)

    def test_sign_quadrature_matches_arccos(self):
        params = sign_params(alpha=2.0)
        # and within 1e-14 of overlap +-1, where the error is still above 1e-8
        for rho in [*np.linspace(-0.99, 0.99, 21), 1 - 1e-15, 1 - 4e-15, 1 - 1e-14, -1 + 1e-15]:
            quad = error_curve_glm(float(rho), params)
            assert abs(quad - math.acos(rho) / math.pi) <= 1e-8

    def test_monte_carlo_oracle_logistic(self):
        # classify fresh samples drawn from the generative model
        params = GlmParams(gamma=1.3, alpha=0.8, p=0.0, link=LogisticLink(), n=100)
        gen = RngStream(10).generator()
        d = 30
        beta = gen.standard_normal(d)
        beta *= 1.3 * math.sqrt(d) / np.linalg.norm(beta)
        theta = beta + 0.8 * np.linalg.norm(beta) / math.sqrt(d) * gen.standard_normal(d)
        rho = float(beta @ theta / np.linalg.norm(beta) / np.linalg.norm(theta))
        n_mc = 400_000
        # entry sd sqrt(alpha/d) reproduces the limiting margin law N(0, alpha*gamma^2)
        X = gen.standard_normal((n_mc, d)) * math.sqrt(params.alpha / d)
        margins = X @ beta
        y = np.where(gen.random(n_mc) < params.link.h(margins), 1.0, -1.0)
        emp = np.mean(np.sign(X @ theta) != y)
        se = math.sqrt(emp * (1 - emp) / n_mc)
        assert abs(error_curve_glm(rho, params) - emp) <= 4 * se


class TestRunRetrainingGlm:
    def test_single_step(self):
        params = sign_params(alpha=0.5, n=400)
        data = sample_glm_dataset(params, RngStream(11))
        traj = run_retraining(data, schedule(IdentityAggregator(), 1),
                              glm_evaluator(data, params))
        beta1 = rows_sum(data.X, data.y_noisy)
        rho = overlap_glm(beta1, data.truth)
        assert traj.points[0].error == pytest.approx(math.acos(rho) / math.pi, abs=1e-14)

    def test_deterministic(self):
        params = sign_params(alpha=0.5, n=300)
        agg = OptimalSign.from_eta(0.6, params)
        runs = []
        for _ in range(2):
            data = sample_glm_dataset(params, RngStream(12, 4))
            runs.append(run_retraining(data, schedule(agg, 3), glm_evaluator(data, params)))
        a, b = runs
        assert [p.error for p in a.points] == [p.error for p in b.points]
