import json

import numpy as np
import pytest

from amp_retrain import harness
from amp_retrain.cli import main
from amp_retrain.datafiles import read_table, write_logit_file
from amp_retrain.bayesmix import LogitRecord
from amp_retrain.glm import sample_glm_dataset
from amp_retrain.gmm import sample_gmm_dataset, vanilla_estimator
from amp_retrain.harness import ExperimentConfig, build_params, run_replication, se_trace
from amp_retrain.numerics import RngStream
from amp_retrain.retrain import Trajectory


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_small_run_and_reproducibility(self, tmp_path):
        args = ("simulate", "--model", "gmm", "--gamma", "1.5", "--alpha", "0.8",
                "--p", "0.4", "--pi-plus", "0.3", "--n", "200", "--iterations", "2",
                "--replications", "2", "--seed", "11")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        for name in ("report.tsv", "trajectories.tsv", "se.tsv", "config.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_replay_from_embedded_config(self, tmp_path):
        out1 = tmp_path / "first"
        assert run_cli("simulate", "--model", "gmm", "--gamma", "1.2", "--alpha", "0.5",
                       "--p", "0.2", "--n", "150", "--iterations", "2",
                       "--replications", "1", "--seed", "3", "--out", str(out1)) == 0
        out2 = tmp_path / "replay"
        assert run_cli("simulate", "--config", str(out1 / "config.json"),
                       "--out", str(out2)) == 0
        assert (out1 / "report.tsv").read_bytes() == (out2 / "report.tsv").read_bytes()

    def test_jobs_do_not_change_results(self, tmp_path):
        # the glm case pickles the quadrature aggregator and its link into the
        # workers; at n = 2200, d = 1100 (2**21 // 1100 = 1906 rows per block)
        # every worker draws X in two blocks on threads
        blocks = ("--gamma", "1.0", "--alpha", "0.5", "--p", "0.2", "--n", "2200",
                  "--d", "1100", "--iterations", "2")
        cases = {
            "gmm": ("--model", "gmm", "--gamma", "1.0", "--alpha", "0.5", "--p", "0.1",
                    "--n", "120", "--iterations", "2"),
            "glm": ("--model", "glm", "--link", "logistic", "--gamma", "2.0",
                    "--alpha", "0.5", "--p", "0.2", "--n", "120", "--iterations", "3"),
            "gmm-blocks": ("--model", "gmm", "--pi-plus", "0.3", *blocks),
            "glm-blocks": ("--model", "glm", "--link", "sign", *blocks),
        }
        for name, model_args in cases.items():
            args = ("simulate", *model_args, "--replications", "3", "--seed", "5")
            seq = tmp_path / f"{name}-seq"
            assert run_cli(*args, "--jobs", "1", "--out", str(seq)) == 0
            for jobs in ("2", "3"):
                par = tmp_path / f"{name}-par{jobs}"
                assert run_cli(*args, "--jobs", jobs, "--out", str(par)) == 0
                for table in ("report.tsv", "trajectories.tsv"):
                    assert (seq / table).read_bytes() == (par / table).read_bytes(), \
                        (name, jobs, table)

    @pytest.mark.parametrize("model", ["gmm", "glm"])
    def test_t0_row_is_the_scaled_first_iterate(self, model):
        config = ExperimentConfig(model=model, gamma=1.5, alpha=0.5, p=0.2, n=400,
                                  iterations=3, master_seed=4)
        rows = run_replication(config, 1, se_trace(config)[1]).rows
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        assert rows[0][1:3] == rows[1][1:3]
        # the one-shot vector the baseline row used to be computed from
        params, rng = build_params(config), RngStream(4, 1)
        if model == "gmm":
            one_shot = vanilla_estimator(sample_gmm_dataset(params, rng))
        else:
            data = sample_glm_dataset(params, rng)
            one_shot = data.X.T @ data.y_noisy
        assert rows[0][3] == pytest.approx(np.linalg.norm(one_shot), rel=1e-12)

    def test_no_t0_row_when_step_1_diverges(self, monkeypatch):
        monkeypatch.setattr(harness, "run_retraining",
                            lambda data, schedule, evaluate: Trajectory([], diverged_at=1))
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.5, p=0.2, n=100,
                                  iterations=2)
        result = run_replication(config, 0, se_trace(config)[1])
        assert result.rows == [] and result.diverged_at == 1

    def test_t0_row_present(self, tmp_path):
        out = tmp_path / "r"
        assert run_cli("simulate", "--model", "gmm", "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.1", "--n", "100", "--iterations", "1",
                       "--replications", "1", "--out", str(out)) == 0
        _meta, _cols, rows = read_table(out / "report.tsv")
        assert [r[0] for r in rows] == ["0", "1"]


class TestSe:
    def test_identity_constant(self, tmp_path, capsys):
        out = tmp_path / "se"
        assert run_cli("se", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0",
                       "--p", "0.3", "--aggregator", "identity",
                       "--iterations", "5", "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "se.tsv")
        errs = {r[2] for r in rows}
        assert len(errs) == 1  # flat after the first iterate

    def test_opt_monotone_from_small_start(self, tmp_path):
        out = tmp_path / "se2"
        assert run_cli("se", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0",
                       "--p", "0.3", "--pi-plus", "0.3", "--iterations", "8",
                       "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "se.tsv")
        errors = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(errors[:-1], errors[1:]))

    def test_limit_variants(self, tmp_path):
        out = tmp_path / "se3"
        assert run_cli("se", "--model", "gmm", "--gamma", "1.5", "--alpha", "0.8",
                       "--p", "0.2", "--variant", "ft_limit", "--iterations", "4",
                       "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "se.tsv")
        assert len(rows) == 4

    def test_glm_sign_trace(self, tmp_path):
        out = tmp_path / "se4"
        assert run_cli("se", "--model", "glm", "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.2", "--link", "sign", "--iterations", "6",
                       "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "se.tsv")
        etas = [float(r[1]) for r in rows]
        # increasing toward the fixed point from the standard start
        assert all(b >= a - 1e-12 for a, b in zip(etas[:-1], etas[1:]))


class TestCobweb:
    def test_trace_structure(self, tmp_path):
        out = tmp_path / "cw"
        assert run_cli("cobweb", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0",
                       "--p", "0.3", "--pi-plus", "0.3", "--u1", "0.04",
                       "--steps", "6", "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "cobweb.tsv")
        kinds = {r[0] for r in rows}
        assert kinds == {"map", "diagonal", "trace"}
        trace_us = [float(r[1]) for r in rows if r[0] == "trace"]
        assert len(trace_us) == 6
        assert trace_us == sorted(trace_us)

    def test_single_step(self, tmp_path):
        out = tmp_path / "cw1"
        assert run_cli("cobweb", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0",
                       "--p", "0.3", "--u1", "0.5", "--steps", "1",
                       "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "cobweb.tsv")
        assert len([r for r in rows if r[0] == "trace"]) == 1


class TestCrossover:
    def test_reference_points(self, tmp_path, capsys):
        out = tmp_path / "cx"
        assert run_cli("crossover", "--gamma", "1.5", "--alpha", "2.0",
                       "--pi-plus", "0.3", "--p-list", "0.2,0.25,0.3",
                       "--out", str(out)) == 0
        meta, _c, rows = read_table(out / "crossover.tsv")
        assert meta["u_star_increases_as_p_decreases"] == "True"
        stars = {float(r[0]): float(r[1]) for r in rows}
        assert stars[0.2] == pytest.approx(4.32, abs=0.05)
        assert stars[0.25] == pytest.approx(1.54, abs=0.05)
        assert stars[0.3] == pytest.approx(0.75, abs=0.05)
        assert all(abs(float(r[2])) <= 1e-6 for r in rows)

    def test_single_p(self, tmp_path):
        out = tmp_path / "cx1"
        assert run_cli("crossover", "--gamma", "1.5", "--alpha", "2.0",
                       "--p-list", "0.25", "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "crossover.tsv")
        assert len(rows) == 1


class TestBayesmix:
    def _write_logits(self, path, n=200, seed=3):
        gen = RngStream(seed).generator()
        z = np.concatenate([gen.normal(-2, 0.8, n // 2), gen.normal(2, 0.8, n // 2)])
        yh = np.where(gen.random(n) < 0.7, np.sign(z), -np.sign(z))
        records = [LogitRecord(z=float(a), yhat=int(b), id=f"s{i}")
                   for i, (a, b) in enumerate(zip(z, yh))]
        write_logit_file(path, records)

    def test_fit_then_apply(self, tmp_path):
        logit_path = tmp_path / "logits.tsv"
        self._write_logits(logit_path)
        fit_dir = tmp_path / "fit"
        assert run_cli("bayesmix", "fit", "--input", str(logit_path),
                       "--p", "0.3", "--out", str(fit_dir)) == 0
        payload = json.loads((fit_dir / "fit.json").read_text())
        assert payload["fit"]["mu_plus"] > 0 > payload["fit"]["mu_minus"]
        apply_dir = tmp_path / "apply"
        assert run_cli("bayesmix", "apply", "--input", str(logit_path),
                       "--fit", str(fit_dir / "fit.json"), "--p", "0.3",
                       "--out", str(apply_dir)) == 0
        _m, cols, rows = read_table(apply_dir / "targets.tsv")
        assert cols == ["id", "target"]
        assert len(rows) == 200
        assert all(-1.0 <= float(r[1]) <= 1.0 for r in rows)

    def test_demo(self, tmp_path):
        out = tmp_path / "demo"
        assert run_cli("bayesmix", "demo", "--p", "0.3", "--gamma", "2.0",
                       "--alpha", "0.1", "--n", "500", "--rounds", "3",
                       "--seed", "4", "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "demo.tsv")
        assert len(rows) == 3

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\tz\tyhat\nx\toops\t1\n")
        assert run_cli("bayesmix", "fit", "--input", str(bad), "--p", "0.3",
                       "--out", str(tmp_path / "o")) == 2


class TestErrorsAndEnv:
    def test_missing_required_is_config_error(self, tmp_path):
        assert run_cli("simulate", "--model", "gmm", "--alpha", "0.5",
                       "--p", "0.2", "--out", str(tmp_path)) == 2

    def test_bad_aggregator(self, tmp_path):
        assert run_cli("simulate", "--model", "glm", "--gamma", "1.0",
                       "--alpha", "0.5", "--p", "0.2",
                       "--aggregator", "smoothed_ft", "--beta", "5",
                       "--out", str(tmp_path)) == 2

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMP_RETRAIN_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("crossover", "--gamma", "1.5", "--alpha", "2.0",
                       "--p-list", "0.3") == 0
        assert (tmp_path / "envout" / "crossover.tsv").exists()
