import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp_retrain import bayesmix, harness
from amp_retrain.bayesmix import BimodalFit, bayesmix_aggregate, fit_bimodal_em
from amp_retrain.cli import main as cli_main
from amp_retrain.datafiles import read_table
from amp_retrain.errors import ConfigError, DegenerateFitError, DomainError
from amp_retrain.gmm import GmmParams, OptimalGmm
from amp_retrain.harness import ExperimentConfig, bayesmix_retrain_demo, simulate
from amp_retrain.numerics import RngStream

DATA_DIR = Path(__file__).parent / "data"
FIT_FIELDS = ("mu_plus", "mu_minus", "sigma_plus", "sigma_minus", "pi_plus", "loglik")


def symmetric_fit(mean=2.0, sigma=1.0, pi_plus=0.5):
    return BimodalFit(mu_plus=mean, mu_minus=-mean, sigma_plus=sigma,
                      sigma_minus=sigma, pi_plus=pi_plus, loglik=0.0, iterations=1)


def raw_rule(z, yhat, fit, p):
    # direct transcription of the aggregation rule, kept independent of the
    # tanh-form implementation
    ratio = (p / (1 - p)) ** yhat
    expo = fit.sigma_plus / fit.sigma_minus * math.exp(
        (z - fit.mu_plus) ** 2 / (2 * fit.sigma_plus**2)
        - (z - fit.mu_minus) ** 2 / (2 * fit.sigma_minus**2))
    prior = (1 - fit.pi_plus) / fit.pi_plus
    return 2.0 / (1.0 + ratio * expo * prior) - 1.0


class TestFit:
    def test_recovers_separated_clusters(self):
        gen = RngStream(100).generator()
        z = np.concatenate([gen.normal(-5.0, 0.3, 500), gen.normal(5.0, 0.3, 500)])
        fit = fit_bimodal_em(z)
        assert abs(fit.mu_plus - 5.0) <= 0.1
        assert abs(fit.mu_minus + 5.0) <= 0.1
        assert abs(fit.pi_plus - 0.5) <= 0.05

    def test_symmetric_input_gives_symmetric_fit(self):
        gen = RngStream(101).generator()
        half = gen.normal(1.5, 0.7, 400)
        z = np.concatenate([half, -half])
        fit = fit_bimodal_em(z)
        assert abs(fit.mu_plus + fit.mu_minus) <= 1e-6
        assert abs(fit.sigma_plus - fit.sigma_minus) <= 1e-6
        assert abs(fit.pi_plus - 0.5) <= 1e-6

    def test_loglik_monotone(self, monkeypatch):
        # the fit raises on any log-likelihood drop while no sigma is
        # clamped; a tolerance of 1e-300 runs it until the gain vanishes or the cap
        monkeypatch.setattr(bayesmix, "_EM_ITERATIONS", 40)
        monkeypatch.setattr(bayesmix, "_EM_LOGLIK_TOL", 1e-300)
        gen = RngStream(102).generator()
        for trial in range(10):
            z = np.concatenate([
                gen.normal(gen.uniform(-4, -0.5), gen.uniform(0.4, 1.5), 150),
                gen.normal(gen.uniform(0.5, 4), gen.uniform(0.4, 1.5), 150),
            ])
            fit = fit_bimodal_em(z)
            assert not fit.sigma_clamped

    def test_components_sorted(self):
        gen = RngStream(103).generator()
        z = np.concatenate([gen.normal(3.0, 0.5, 200), gen.normal(-1.0, 0.5, 50)])
        fit = fit_bimodal_em(z)
        assert fit.mu_plus >= fit.mu_minus

    def test_degenerate_input(self):
        with pytest.raises(DegenerateFitError):
            fit_bimodal_em([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateFitError):
            fit_bimodal_em([1.0, 2.0])

    def test_floor_clamps_and_flags(self, monkeypatch):
        monkeypatch.setattr(bayesmix, "_EM_FLOOR_FRACTION", 0.5)
        gen = RngStream(104).generator()
        z = np.concatenate([gen.normal(-3.0, 0.4, 200), gen.normal(3.0, 0.4, 200)])
        floor = 0.5 * float(np.std(z))  # about 1.5, far above the clusters' 0.4
        fit = fit_bimodal_em(z)
        assert fit.sigma_clamped
        assert fit.sigma_plus >= floor and fit.sigma_minus >= floor

    def test_pinned_bits(self):
        # the fits of version 0.13.0 bit for bit: each EM iteration takes the
        # responsibilities' sums once, with the bits of the sums it took before
        fits = []
        for seed in range(8):
            gen = np.random.default_rng(seed)
            n = (40, 300, 1000, 2500)[seed % 4]
            fits.append(fit_bimodal_em(np.concatenate([gen.normal(2.0, 0.9, n),
                                                       gen.normal(-1.2, 0.6, n // 2)])))
        assert [getattr(fits[3], name).hex() for name in FIT_FIELDS] == [
            "0x1.04ae085d89717p+1", "-0x1.33b546e791cdbp+0", "0x1.c580bbdfb0d48p-1",
            "0x1.4110d799dbcccp-1", "0x1.5358641f10501p-1", "-0x1.a0a6c00b7de96p+12"]
        text = " ".join(getattr(fit, name).hex() for fit in fits for name in FIT_FIELDS)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "df592453cb93736f93d12c82330909546a0104014ae985e8704219d4f4939585")

    @pytest.mark.parametrize("branch, floor_fraction, expected", [
        # all logits positive: the means start at the median +- one sd
        ("one_sided", 1e-3, ["0x1.140795bfc1c12p+2", "0x1.e132fd12eac35p+1",
                             "0x1.050cdf62439e2p+0", "0x1.f9dd35fd23657p-1",
                             "0x1.f026a602ace93p-2", "-0x1.b5b732336dccfp+8", 200, False]),
        # both sigmas held at a floor of half the logits' sd
        ("clamp", 0.5, ["0x1.7f11f9f7e2576p+1", "-0x1.7c65890c7643ap+1",
                        "0x1.8197e77a733b9p+0", "0x1.8197e77a733b9p+0",
                        "0x1.fff886d309592p-2", "-0x1.9b4407147f52dp+9", 4, True]),
        # two close clusters whose components swap at iteration 46
        ("swap", 1e-3, ["-0x1.491231fd37707p+0", "-0x1.6d47a43b00cebp+0",
                        "0x1.5860b2081c905p-1", "0x1.8244d692dc445p+0",
                        "0x1.efd189a25b98ep-1", "-0x1.4245389d17172p+8", 193, False]),
    ])
    def test_pinned_bits_of_each_branch(self, monkeypatch, branch, floor_fraction, expected):
        # the fits of version 0.21.0 bit for bit on the branches the two-cluster
        # pins above do not reach
        monkeypatch.setattr(bayesmix, "_EM_FLOOR_FRACTION", floor_fraction)
        if branch == "one_sided":
            z = RngStream(105).generator().normal(4.0, 1.0, 300)
        elif branch == "clamp":
            gen = RngStream(104).generator()
            z = np.concatenate([gen.normal(-3.0, 0.4, 200), gen.normal(3.0, 0.4, 200)])
        else:
            gen = np.random.default_rng(357)
            m1, m2 = gen.uniform(-3, 3, 2)
            z = np.concatenate([gen.normal(m1, 0.9, 200), gen.normal(m2, 0.6, 100)])
        fit = fit_bimodal_em(z)
        assert [getattr(fit, name).hex() for name in FIT_FIELDS] + [
            fit.iterations, fit.sigma_clamped] == expected

    def test_one_sided_initialization(self):
        gen = RngStream(105).generator()
        z = gen.normal(4.0, 1.0, 300)  # all positive: sign split degenerates
        fit = fit_bimodal_em(z)
        assert math.isfinite(fit.loglik)

    @pytest.mark.parametrize("field, value", [
        ("mu_plus", math.nan), ("mu_minus", -math.inf), ("mu_plus", "a"),
        ("sigma_plus", -1.0), ("sigma_minus", 0.0), ("sigma_plus", math.inf),
        ("pi_plus", 0.0), ("pi_plus", 1.0), ("pi_plus", math.nan), ("pi_plus", True)])
    def test_fit_fields_validated(self, field, value):
        fields = dict(mu_plus=2.0, mu_minus=-2.0, sigma_plus=1.0, sigma_minus=1.0,
                      pi_plus=0.5, loglik=0.0, iterations=1)
        with pytest.raises(DegenerateFitError):
            BimodalFit(**dict(fields, **{field: value}))


class TestAggregate:
    def test_at_positive_mode(self):
        fit = symmetric_fit(mean=2.0, sigma=1.0)
        p = 0.3
        got = bayesmix_aggregate(2.0, 1, fit, p)
        assert got == pytest.approx(raw_rule(2.0, 1, fit, p), abs=1e-12)
        assert got > 0

    def test_posterior_mean_with_unequal_sigmas(self):
        # E[Y | z, yhat] from the log-sum-exp of the two weighted log-densities,
        # log pi_y + log N(z; mu_y, sigma_y) + log P(yhat | y)
        fit = BimodalFit(mu_plus=1.0, mu_minus=-1.0, sigma_plus=0.5, sigma_minus=1.5,
                         pi_plus=0.5, loglik=0.0, iterations=1)
        for p in (0.05, 0.3, 0.45):
            for yhat in (1, -1):
                z = np.linspace(-3.0, 3.0, 25)
                log_joint = [
                    math.log(pi) - 0.5 * ((z - mu) / sigma) ** 2 - math.log(sigma)
                    + math.log(1.0 - p if yhat == y else p)
                    for y, mu, sigma, pi in ((1, fit.mu_plus, fit.sigma_plus, fit.pi_plus),
                                             (-1, fit.mu_minus, fit.sigma_minus,
                                              1.0 - fit.pi_plus))]
                norm = np.logaddexp(*log_joint)
                expected = np.exp(log_joint[0] - norm) - np.exp(log_joint[1] - norm)
                np.testing.assert_allclose(bayesmix_aggregate(z, yhat, fit, p), expected,
                                           rtol=0, atol=1e-12)
        # binned Monte Carlo means of 4M draws at p 0.3: +0.130 and +0.509
        assert bayesmix_aggregate([0.5, 1.0], -1, fit, 0.3) == pytest.approx(
            [0.125, 0.515], abs=0.01)

    def test_midpoint_collapses_to_label_confidence(self):
        fit = symmetric_fit(mean=1.7, sigma=0.8, pi_plus=0.5)
        for p in (0.1, 0.3, 0.45):
            for yhat in (1, -1):
                assert bayesmix_aggregate(0.0, yhat, fit, p) == pytest.approx(
                    yhat * (1 - 2 * p), abs=1e-12
                )

    def test_matches_posterior_mean_aggregator(self):
        # symmetric fit reduces to the mixture-model optimal rule under the
        # slope correspondence slope = 2*mean/sigma^2
        m, s = 1.3, 0.9
        fit = symmetric_fit(mean=m, sigma=s)
        p = 0.25
        params = GmmParams(gamma=math.sqrt(m / s**2), alpha=1.0, p=p, pi_plus=0.5, n=100)
        agg = OptimalGmm.from_eta(0.0, params)  # slope 2*gamma^2 = 2*m/s^2
        for z in np.linspace(-4, 4, 17):
            for yhat in (1, -1):
                assert bayesmix_aggregate(float(z), yhat, fit, p) == pytest.approx(
                    float(agg.value_and_deriv(float(z), yhat)[0]), abs=1e-12
                )

    def test_label_symmetry(self):
        fit = symmetric_fit(mean=2.2, sigma=1.1)
        for z in np.linspace(-3, 3, 11):
            a = bayesmix_aggregate(float(z), 1, fit, 0.2)
            b = bayesmix_aggregate(float(-z), -1, fit, 0.2)
            assert a == pytest.approx(-b, abs=1e-12)

    def test_p_zero_returns_label(self):
        fit = symmetric_fit()
        assert bayesmix_aggregate(3.0, -1, fit, 0.0) == -1.0

    def test_pure_noise_ignores_label(self):
        fit = symmetric_fit(mean=1.0, sigma=1.0)
        a = bayesmix_aggregate(0.7, 1, fit, 0.5)
        b = bayesmix_aggregate(0.7, -1, fit, 0.5)
        assert a == pytest.approx(b, abs=1e-15)

    def test_increasing_in_logit_for_equal_sigmas(self):
        fit = symmetric_fit(mean=1.5, sigma=1.2)
        zs = np.linspace(-5, 5, 60)
        vals = bayesmix_aggregate(zs, 1, fit, 0.3)
        assert np.all(np.diff(vals) > 0)

    @given(st.floats(-20, 20), st.sampled_from([1, -1]),
           st.floats(0.01, 0.49))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, z, yhat, p):
        fit = symmetric_fit(mean=1.0, sigma=0.5, pi_plus=0.4)
        v = bayesmix_aggregate(z, yhat, fit, p)
        assert -1.0 <= v <= 1.0

    def test_invalid_label(self):
        with pytest.raises(DomainError):
            bayesmix_aggregate(0.0, 2, symmetric_fit(), 0.2)

    def test_non_finite_logit(self):
        for z in (math.nan, math.inf, -math.inf, [0.5, math.nan]):
            for p in (0.0, 0.2):
                with pytest.raises(DomainError):
                    bayesmix_aggregate(z, 1, symmetric_fit(), p)

    def test_scalar_in_float_out(self):
        assert type(bayesmix_aggregate(0.4, -1, symmetric_fit(), 0.2)) is float
        assert type(bayesmix_aggregate(0.4, -1, symmetric_fit(), 0.0)) is float
        assert bayesmix_aggregate([0.4, 1.0], 1, symmetric_fit(), 0.0).shape == (2,)


class TestTargets:
    def test_identical_logits_identical_targets(self):
        out = bayesmix_aggregate(np.full(5, 0.8), np.ones(5), symmetric_fit(), 0.2)
        assert out.shape == (5,) and len(set(out)) == 1

    def test_golden_file(self):
        # frozen regression capture; three entries re-verified against the
        # independent raw-form rule below
        fit = BimodalFit(mu_plus=1.9, mu_minus=-2.3, sigma_plus=1.1,
                         sigma_minus=0.8, pi_plus=0.55, loglik=0.0, iterations=1)
        gen = RngStream(4242).generator()
        z = np.round(gen.normal(0, 2.0, 20), 6)
        yhat = np.sign(gen.standard_normal(20))
        targets = bayesmix_aggregate(z, yhat, fit, 0.45)
        for idx in (0, 7, 19):
            assert targets[idx] == pytest.approx(
                raw_rule(z[idx], yhat[idx], fit, 0.45), abs=1e-12
            )
        lines = [f"r{i:02d}\t{float(t)!r}" for i, t in enumerate(targets)]
        golden = (DATA_DIR / "bayesmix_targets_golden.tsv").read_text().splitlines()
        assert lines == golden


def demo(rounds, seed, p=0.3, n=500):
    """The demo's trajectory at gamma 2.0, alpha 0.1, and its accuracy per round."""
    traj = bayesmix_retrain_demo(ExperimentConfig(model="gmm", gamma=2.0, alpha=0.1, p=p, n=n,
                                                  iterations=rounds, master_seed=seed))
    return traj, (1.0 - traj.errors).tolist()


class TestRetrainDemo:
    def test_noiseless_is_flat(self):
        _traj, accuracies = demo(4, 7, p=0.0)
        assert len(accuracies) == 4
        assert max(accuracies) - min(accuracies) <= 1e-12

    def test_single_round_is_plain_training(self):
        _traj, one = demo(1, 8)
        _traj, many = demo(5, 8)
        assert len(one) == 1
        assert one[0] == many[0]

    def test_high_noise_improvement_trend(self):
        # directional check at moderate size; the full ten-seed version runs
        # in the acceptance suite
        wins = 0
        for seed in range(3):
            _traj, accuracies = demo(8, 500 + seed, p=0.45, n=1500)
            wins += accuracies[-1] > accuracies[0]
        assert wins >= 2

    @pytest.mark.parametrize("k", [0, 2])
    def test_degenerate_fit_halts_the_demo(self, monkeypatch, tmp_path, k):
        # the fit of round k's logits fails: rounds 0..k keep their accuracy,
        # and the fit fails in step k + 2
        fit, calls = harness.fit_bimodal_em, []

        def failing(logits):
            calls.append(len(calls))
            if len(calls) == k + 1:
                raise DegenerateFitError("forced")
            return fit(logits)

        monkeypatch.setattr(harness, "fit_bimodal_em", failing)
        traj, accuracies = demo(6, 8)
        assert traj.diverged_at == k + 2
        assert len(accuracies) == k + 1
        calls.clear()
        assert cli_main(["bayesmix", "demo", "--p", "0.3", "--gamma", "2.0", "--alpha", "0.1",
                         "--n", "500", "--rounds", "6", "--out", str(tmp_path)]) == 0
        meta, _columns, rows = read_table(tmp_path / "demo.tsv")
        assert meta["halted_at_round"] == str(k)
        assert len(rows) == k + 1
        assert (tmp_path / "demo.tsv").read_text().count(f"# halted_at_round: {k}\n") == 1

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigError):
            demo(0, 1, n=100)

    def test_round_0_is_replication_0_of_simulate(self):
        # both are X^T y_noisy / sqrt(n) on stream (seed, 0): the demo's round-0
        # error is simulate's replication-0 error at t = 1, bit for bit
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.8, p=0.45, n=400,
                                  iterations=2, master_seed=0)
        first = bayesmix_retrain_demo(config).points[0]
        replication = simulate(config, jobs=1).replications[0]
        assert first.t == 1
        assert first.error == next(pt.error for pt in replication.points if pt.t == 1)
        assert first.error == 0.35631638953778055
