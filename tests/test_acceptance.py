"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion as it clears.
"""

import math
import time

import numpy as np

from amp_retrain import bayesmix
from amp_retrain.bayesmix import (
    BimodalFit,
    bayesmix_aggregate,
    fit_bimodal_em,
)
from amp_retrain.gmm import (
    GmmParams,
    OptimalGmm,
    SmoothedFullRT,
    _channel,
)
from amp_retrain.gmm_se import (
    eta_map_ct,
    eta_map_ft,
    eta_map_opt,
    find_crossover,
    label_atoms,
    p_star,
    se_error_gmm,
    se_init_gmm,
    se_step_gmm,
)
from amp_retrain.glm import (
    GlmParams,
    OptimalGlm,
    OptimalSign,
    SignLink,
    error_curve_glm,
)
from amp_retrain.glm_se import se_init_glm
from amp_retrain.harness import ExperimentConfig, bayesmix_retrain_demo, se_states, simulate
from amp_retrain.numerics import RngStream, gauss_hermite
from amp_retrain.retrain import SeState


def _passed(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num:2d} PASS: {message}")


def _mean_abs_gap_by_iteration(result):
    # the comparison report's gap: |prediction - replication-mean error|,
    # the quantity the ten-realization averaging is meant to pin down
    gaps = {row[0]: row[4] for row in result.report_rows}
    n_reps = len(result.replications)
    for t in gaps:
        count = sum(1 for traj in result.replications for pt in traj.points if pt.t == t)
        assert count == n_reps, f"t={t}: missing replications"
    return gaps


def test_criterion_01_gmm_se_vs_empirical():
    """Mixture model: replicated runs track the theory within 0.02 everywhere."""
    start = time.monotonic()
    config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.8, p=0.4, pi_plus=0.3,
                              n=1000, d=800, iterations=10, replications=10,
                              master_seed=20250801, aggregator="opt")
    result = simulate(config)
    gaps = _mean_abs_gap_by_iteration(result)
    for t in range(1, 11):
        assert gaps[t] <= 0.02, f"t={t}: mean abs gap {gaps[t]:.4f} > 0.02"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passed(1, f"gmm gap max {max(gaps[t] for t in range(1, 11)):.4f} <= 0.02 "
               f"({elapsed:.1f}s)")


def test_criterion_02_glm_sign_se_vs_empirical():
    """Sign-link model at n=10000, d=5000: same 0.02 agreement."""
    config = ExperimentConfig(model="glm", gamma=1.0, alpha=0.5, p=0.2, link="sign",
                              n=10000, d=5000, iterations=10, replications=10,
                              master_seed=20250802, aggregator="opt")
    result = simulate(config)
    gaps = _mean_abs_gap_by_iteration(result)
    for t in range(1, 11):
        assert gaps[t] <= 0.02, f"t={t}: mean abs gap {gaps[t]:.4f} > 0.02"
    _passed(2, f"glm gap max {max(gaps[t] for t in range(1, 11)):.4f} <= 0.02")


def test_criterion_03_crossover_values():
    """Full-vs-consensus map crossings at the three reference noise levels."""
    expected = {0.2: 4.32, 0.25: 1.54, 0.3: 0.75}
    for p, u_ref in expected.items():
        params = GmmParams(gamma=1.5, alpha=2.0, p=p, pi_plus=0.3, n=100)
        roots = find_crossover(params)
        assert roots, f"no crossover found for p={p}"
        assert abs(roots[0] - u_ref) <= 0.05, f"p={p}: u*={roots[0]:.4f} vs {u_ref}"
    _passed(3, "crossovers 4.32 / 1.54 / 0.75 within +-0.05")


def test_criterion_04_initializations_exact():
    """First-iterate signal-to-noise ratios match direct arithmetic to 1e-12."""
    gmm = GmmParams(gamma=1.5, alpha=0.8, p=0.4, pi_plus=0.3, n=100)
    eta1 = se_init_gmm(gmm).eta
    assert abs(eta1 - 1.5 * (1 - 2 * 0.4) / math.sqrt(0.8)) <= 1e-12
    glm = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=SignLink(), n=100)
    eta1_glm = se_init_glm(glm).eta
    assert abs(eta1_glm - (1 - 2 * 0.2) * math.sqrt(2 / math.pi) / 0.5) <= 1e-12
    _passed(4, "initial eta values exact to 1e-12")


def test_criterion_05_posterior_mean_step_identities():
    """Optimal steps satisfy mu' = (gamma/sqrt(alpha)) sigma'^2 (mixture) and
    sigma'^2 = alpha mu' (GLM)."""
    params = GmmParams(gamma=1.5, alpha=0.8, p=0.4, pi_plus=0.3, n=100)
    states, _ = se_states(ExperimentConfig(model="gmm", gamma=1.5, alpha=0.8, p=0.4,
                                           pi_plus=0.3, n=100, iterations=10))
    worst = 0.0
    for state in states[1:]:
        worst = max(worst, abs(state.mu - params.gamma / math.sqrt(params.alpha) * state.sigma**2))
    assert worst <= 1e-9
    glm = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=SignLink(), n=100)
    glm_states, _ = se_states(ExperimentConfig(model="glm", gamma=1.0, alpha=0.5, p=0.2,
                                               link="sign", n=100, iterations=10))
    worst_glm = 0.0
    for state in glm_states[1:]:
        worst_glm = max(worst_glm, abs(state.sigma**2 - glm.alpha * state.mu))
    assert worst_glm <= 1e-8
    _passed(5, f"step identities: gmm residual {worst:.1e} <= 1e-9, "
               f"glm residual {worst_glm:.1e} <= 1e-8")


def test_criterion_06_bayes_identity_random_tuples():
    """|E[Y g] - E[g^2]| <= 1e-8 for the matched aggregator, 20 random setups."""
    gen = RngStream(606).generator()
    rule = gauss_hermite(301)
    nodes = math.sqrt(2.0) * rule.nodes
    worst = 0.0
    for _ in range(20):
        gamma = gen.uniform(0.5, 2.5)
        alpha = gen.uniform(0.3, 3.0)
        p = gen.uniform(0.02, 0.48)
        pi_plus = gen.uniform(0.1, 0.9)
        eta = gen.uniform(0.05, 3.0)
        params = GmmParams(gamma=gamma, alpha=alpha, p=p, pi_plus=pi_plus, n=100)
        scale = math.sqrt(alpha) / gamma
        state = SeState(mu=scale * eta**2, sigma=scale * eta)
        agg = OptimalGmm.from_se_state(state, params)
        m_bar, sigma_bar = _channel(state, params)
        e_yg = e_gg = 0.0
        for w, y_lab, yhat in label_atoms(params):
            vals = agg.value_and_deriv(m_bar * y_lab + sigma_bar * nodes, yhat)[0]
            e_yg += w * y_lab * float(rule.weights @ vals) / math.sqrt(math.pi)
            e_gg += w * float(rule.weights @ (vals * vals)) / math.sqrt(math.pi)
        worst = max(worst, abs(e_yg - e_gg))
    assert worst <= 1e-8
    _passed(6, f"posterior-mean identity residual {worst:.1e} <= 1e-8 on 20 tuples")


PARAM_SETS = [
    dict(gamma=1.5, alpha=2.0, p=0.3, pi_plus=0.3),
    dict(gamma=1.5, alpha=0.8, p=0.4, pi_plus=0.3),
    dict(gamma=1.0, alpha=0.5, p=0.2, pi_plus=0.5),
    dict(gamma=2.0, alpha=1.0, p=0.1, pi_plus=0.7),
    dict(gamma=0.8, alpha=1.5, p=0.45, pi_plus=0.4),
]


def test_criterion_07_monotone_and_dominant_map():
    """Optimal map nondecreasing and above both sharp-limit maps."""
    us = np.linspace(0.0, 10.0, 200)
    for kw in PARAM_SETS:
        params = GmmParams(n=100, **kw)
        vals = np.array([eta_map_opt(float(u), params) for u in us])
        assert np.all(np.diff(vals) >= -1e-10)
        fts = np.array([eta_map_ft(float(u), params) for u in us])
        cts = np.array([eta_map_ct(float(u), params) for u in us])
        assert np.all(vals >= fts - 1e-9)
        assert np.all(vals >= cts - 1e-9)
    _passed(7, "optimal map monotone and dominant on 5 parameter sets")


def test_criterion_08_smoothed_limit_convergence():
    """Logistic surrogate at beta=100 tracks the sharp full-retraining limit."""
    params = GmmParams(gamma=1.5, alpha=0.8, p=0.2, pi_plus=0.3, n=100)
    agg = SmoothedFullRT(100.0)
    state = se_init_gmm(params)
    u = state.eta**2
    worst = 0.0
    for _ in range(10):
        state = se_step_gmm(state, agg, params)
        u = eta_map_ft(u, params)
        worst = max(worst, abs(se_error_gmm(state.eta, params)
                               - se_error_gmm(math.sqrt(u), params)))
    assert worst <= 0.01
    _passed(8, f"beta=100 surrogate within {worst:.4f} <= 0.01 of the sharp limit")


def test_criterion_09_closed_form_agreement():
    """Quadrature aggregator vs. closed form; quadrature error curve vs. arccos."""
    params = GlmParams(gamma=1.0, alpha=2.0, p=0.2, link=SignLink(), n=100)
    quad_agg = OptimalGlm.from_eta(0.5, params)
    closed_agg = OptimalSign.from_eta(0.5, params)
    worst_g = 0.0
    for u in np.linspace(-3, 3, 13):
        for yhat in (1, -1):
            quad = float(quad_agg.value_and_deriv(float(u), yhat)[0])
            closed = float(closed_agg.value_and_deriv(float(u), yhat)[0])
            worst_g = max(worst_g, abs(quad - closed))
    assert worst_g <= 1e-6
    worst_f = 0.0
    for rho in np.linspace(-0.99, 0.99, 21):
        worst_f = max(worst_f, abs(error_curve_glm(float(rho), params)
                                   - math.acos(float(rho)) / math.pi))
    assert worst_f <= 1e-8
    _passed(9, f"aggregator agreement {worst_g:.1e} <= 1e-6; "
               f"error-curve agreement {worst_f:.1e} <= 1e-8")


def test_criterion_10_noise_threshold():
    """Threshold root residual and monotone trajectories above it."""
    params = GmmParams(gamma=1.5, alpha=2.0, p=0.3, pi_plus=0.3, n=100)
    assert params.gamma**2 >= math.sqrt(math.pi * params.alpha / 2.0)
    result = p_star(params)
    assert result.condition_met
    assert abs(result.residual) <= 1e-10
    for p in np.linspace(result.value, 0.49, 5):
        noisy = GmmParams(gamma=1.5, alpha=2.0, p=float(p), pi_plus=0.3, n=100)
        u = se_init_gmm(noisy).eta ** 2
        for _ in range(20):
            u_next = eta_map_opt(u, noisy)
            assert u_next >= u - 1e-12
            u = u_next
    _passed(10, f"threshold p*={result.value:.6f}, residual {result.residual:.1e}; "
                "trajectories nondecreasing above it")


def test_criterion_11_bayesmix_reduction_and_em(monkeypatch):
    """Symmetric-fit soft labels equal the mixture-optimal rule; EM monotone."""
    m, s, p = 1.3, 0.9, 0.25
    fit = BimodalFit(mu_plus=m, mu_minus=-m, sigma_plus=s, sigma_minus=s,
                     pi_plus=0.5, loglik=0.0, iterations=1)
    params = GmmParams(gamma=math.sqrt(m / s**2), alpha=1.0, p=p, pi_plus=0.5, n=100)
    agg = OptimalGmm.from_eta(0.0, params)
    worst = 0.0
    for z in np.linspace(-4, 4, 33):
        for yhat in (1, -1):
            worst = max(worst, abs(bayesmix_aggregate(float(z), yhat, fit, p)
                                   - float(agg.value_and_deriv(float(z), yhat)[0])))
    assert worst <= 1e-12
    # the fit raises on any log-likelihood drop while no sigma is clamped
    monkeypatch.setattr(bayesmix, "_EM_ITERATIONS", 30)
    monkeypatch.setattr(bayesmix, "_EM_LOGLIK_TOL", 1e-300)
    gen = RngStream(1111).generator()
    for _ in range(10):
        z = np.concatenate([
            gen.normal(gen.uniform(-4, -0.5), gen.uniform(0.3, 1.5), 120),
            gen.normal(gen.uniform(0.5, 4), gen.uniform(0.3, 1.5), 120),
        ])
        fit = fit_bimodal_em(z)
        assert not fit.sigma_clamped
    _passed(11, f"symmetric-fit reduction residual {worst:.1e} <= 1e-12; "
                "EM log-likelihood monotone on 10 datasets")


def test_criterion_12_high_noise_demo_improves():
    """Desk-scale retraining demo wins over its round-0 model in >= 8/10 seeds."""
    wins = 0
    for seed in range(10):
        traj = bayesmix_retrain_demo(ExperimentConfig(
            model="gmm", gamma=2.0, alpha=0.1, p=0.45, pi_plus=0.5, n=2000, d=200,
            iterations=10, master_seed=seed))
        assert traj.diverged_at is None
        accuracies = 1.0 - traj.errors
        wins += accuracies[-1] > accuracies[0]
    assert wins >= 8
    _passed(12, f"high-noise demo improved in {wins}/10 seeds (need >= 8)")
