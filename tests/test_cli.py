import argparse
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from amp_retrain import harness
from amp_retrain.cli import build_parser, main
from amp_retrain.datafiles import read_table, write_logit_file
from amp_retrain.errors import ConfigError
from amp_retrain.bayesmix import bayesmix_retrain_demo
from amp_retrain.gmm import (AGGREGATORS, GmmParams, IdentityAggregator, aggregator_from_name,
                             sample_gmm_dataset)
from amp_retrain.gmm_se import VARIANTS, SeMapSpec
from amp_retrain.harness import (ExperimentConfig, build_params, replication_data,
                                 run_replication, se_trace)
from amp_retrain.numerics import RngStream
from amp_retrain.retrain import Trajectory


# a byte-order mark of UTF-16 and "bad": not UTF-8 text
NOT_UTF8 = b"\xff\xfe\x00bad"


def run_cli(*argv):
    return main(list(argv))


def assert_finite_rows(path):
    """The table has rows, and every cell but a status is a finite number."""
    _meta, cols, rows = read_table(path)
    assert rows
    for row in rows:
        cells = [float(c) for col, c in zip(cols, row) if col != "status"]
        assert all(math.isfinite(c) for c in cells), (path.name, row)


# the "fit" object of a bayesmix fit.json
GOOD_FIT = {"mu_plus": 2.0, "mu_minus": -2.0, "sigma_plus": 0.8, "sigma_minus": 0.8,
            "pi_plus": 0.5, "loglik": -300.0, "iterations": 5, "sigma_clamped": False}


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
            # no --jobs: the worker count of the machine
            for jobs in ((), ("--jobs", "2"), ("--jobs", "3")):
                par = tmp_path / f"{name}-par{''.join(jobs)}"
                assert run_cli(*args, *jobs, "--out", str(par)) == 0
                for table in ("report.tsv", "trajectories.tsv"):
                    assert (seq / table).read_bytes() == (par / table).read_bytes(), \
                        (name, jobs, table)

    @pytest.fixture
    def asked(self, monkeypatch):
        """The worker counts simulate asks pools for.  A pool forks all of its
        workers at start-up; a serial stand-in records how many were asked
        for, so no process is started."""
        asked = []

        class SerialPool:
            def __init__(self, workers):
                asked.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "_process_pool", SerialPool)
        return asked

    def test_jobs_capped_at_replications(self, asked, usable_cpus):
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.5, p=0.2, n=200,
                                  iterations=3, replications=2, master_seed=6)
        usable_cpus(4)
        capped = harness.simulate(config, jobs=64)
        assert asked == [2]
        assert capped == harness.simulate(config, jobs=1)
        single = dataclasses.replace(config, replications=1)
        harness.simulate(single, jobs=64)
        assert asked == [2]   # one replication runs inline

    @pytest.mark.parametrize("cpus,replications,free_xs,workers", [
        (4, 8, 100, 4),    # capped by the CPUs
        (4, 3, 100, 3),    # by the replications
        (4, 8, 7, 3),      # by memory: two X per worker, 7 X free
        (4, 8, 1, 1),      # too little memory for two X still runs one
        (1, 8, 100, 1),    # one CPU
    ])
    def test_default_jobs(self, asked, monkeypatch, usable_cpus, cpus, replications, free_xs,
                          workers):
        # X is float32: 4 * n * d = 4 * 40 * 20 bytes
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.5, p=0.2, n=40,
                                  iterations=2, replications=replications, master_seed=6)
        usable_cpus(cpus)
        monkeypatch.setattr(harness, "_free_bytes", lambda: free_xs * 4 * 40 * 20)
        result = harness.simulate(config)
        assert asked == ([workers] if workers > 1 else [])
        assert result == harness.simulate(config, jobs=1)

    @pytest.mark.parametrize("cpus,jobs,replications,free_xs,workers", [
        (2, 64, 8, 100, 2),   # capped by the CPUs
        (4, 3, 8, 100, 3),    # by the count asked for
        (4, 64, 3, 100, 3),   # by the replications
        (4, 64, 8, 7, 3),     # by memory: two X per worker, 7 X free
        (1, 2, 8, 100, 1),    # one CPU runs them inline
    ])
    def test_jobs_is_an_upper_bound(self, asked, monkeypatch, usable_cpus, cpus, jobs,
                                    replications, free_xs, workers):
        # X is float32: 4 * n * d = 4 * 40 * 20 bytes
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.5, p=0.2, n=40,
                                  iterations=2, replications=replications, master_seed=6)
        usable_cpus(cpus)
        monkeypatch.setattr(harness, "_free_bytes", lambda: free_xs * 4 * 40 * 20)
        result = harness.simulate(config, jobs=jobs)
        assert asked == ([workers] if workers > 1 else [])
        assert result == harness.simulate(config, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_refused(self, tmp_path, capsys, jobs):
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.5, p=0.2, n=40,
                                  iterations=2, replications=2)
        with pytest.raises(ConfigError, match="jobs"):
            harness.simulate(config, jobs=jobs)
        assert run_cli("simulate", "--model", "gmm", "--gamma", "1.5", "--alpha", "0.5",
                       "--p", "0.2", "--n", "40", "--replications", "2",
                       "--jobs", str(jobs), "--out", str(tmp_path)) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "report.tsv").exists()

    @pytest.mark.parametrize("model", ["gmm", "glm"])
    def test_t0_row_is_the_scaled_first_iterate(self, model):
        config = ExperimentConfig(model=model, gamma=1.5, alpha=0.5, p=0.2, n=400,
                                  iterations=3, master_seed=4)
        points = run_replication(config, 1, se_trace(config)[1]).points
        assert [pt.t for pt in points] == [0, 1, 2, 3]
        assert (points[0].error, points[0].overlap) == (points[1].error, points[1].overlap)
        # the one-shot vector X^T y_noisy / scale^2 the baseline row stands for,
        # from float32 products with the rows added in order, as the engine's
        data, _ = replication_data(config, 1)
        row_sum = (data.X * data.y_noisy.astype(np.float32)[:, None]).sum(axis=0)
        one_shot = row_sum / data.scale**2
        assert points[0].model_norm == pytest.approx(np.linalg.norm(one_shot), rel=1e-12)

    def test_no_t0_row_when_step_1_diverges(self, monkeypatch):
        monkeypatch.setattr(harness, "run_retraining",
                            lambda data, schedule, evaluate: Trajectory([], diverged_at=1))
        config = ExperimentConfig(model="gmm", gamma=1.5, alpha=0.5, p=0.2, n=100,
                                  iterations=2)
        result = run_replication(config, 0, se_trace(config)[1])
        assert result.points == [] and result.diverged_at == 1

    def test_sign_link_without_flips(self, tmp_path):
        # p = 0: the sign aggregator's denominator 2*Phi(yhat*r) underflows to
        # zero for confident wrong-side predictions unless taken through erfcx
        out = tmp_path / "p0"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("simulate", "--model", "glm", "--link", "sign", "--gamma", "1.0",
                           "--alpha", "0.5", "--p", "0", "--n", "400", "--iterations", "12",
                           "--replications", "2", "--seed", "1", "--out", str(out)) == 0
        for table in ("report.tsv", "trajectories.tsv", "se.tsv"):
            assert_finite_rows(out / table)

    def test_probit_link_without_flips(self, tmp_path):
        # p = 0: the probit label factor Phi(yhat*z) underflows on every node of
        # a posterior quadrature for confident wrong-side predictions; the
        # closed-form threshold aggregator takes it through erfcx
        out = tmp_path / "p0"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("simulate", "--model", "glm", "--link", "probit", "--gamma", "2.0",
                           "--alpha", "0.5", "--p", "0", "--n", "400", "--iterations", "10",
                           "--replications", "2", "--seed", "1", "--out", str(out)) == 0
        for table in ("report.tsv", "trajectories.tsv", "se.tsv"):
            assert_finite_rows(out / table)

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

    def test_variant_is_the_aggregator_run(self, tmp_path):
        args = ("se", "--model", "gmm", "--gamma", "1.5", "--alpha", "2.0", "--p", "0.3",
                "--pi-plus", "0.3", "--beta", "20", "--iterations", "4")
        assert run_cli(*args, "--variant", "smoothed_ft", "--out", str(tmp_path / "v")) == 0
        assert run_cli(*args, "--aggregator", "smoothed_ft", "--out", str(tmp_path / "a")) == 0
        meta_v, _c, rows_v = read_table(tmp_path / "v" / "se.tsv")
        meta_a, _c, rows_a = read_table(tmp_path / "a" / "se.tsv")
        assert rows_v == rows_a
        assert meta_v["variant"] == meta_a["variant"] == "smoothed_ft"
        assert json.loads(meta_v["config"])["aggregator"] == "opt"

    def test_glm_has_no_limit_maps(self, tmp_path):
        assert run_cli("se", "--model", "glm", "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.2", "--variant", "ct_limit", "--out", str(tmp_path)) == 2

    def test_glm_sign_trace(self, tmp_path):
        out = tmp_path / "se4"
        assert run_cli("se", "--model", "glm", "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.2", "--link", "sign", "--iterations", "6",
                       "--out", str(out)) == 0
        _m, _c, rows = read_table(out / "se.tsv")
        etas = [float(r[1]) for r in rows]
        # increasing toward the fixed point from the standard start
        assert all(b >= a - 1e-12 for a, b in zip(etas[:-1], etas[1:]))

    @pytest.mark.parametrize("gamma, alpha", [("2", "0.5"), ("2", "0.1"), ("3", "0.1")])
    def test_glm_probit_trace_without_flips(self, tmp_path, gamma, alpha):
        out = tmp_path / "se"
        assert run_cli("se", "--model", "glm", "--link", "probit", "--gamma", gamma,
                       "--alpha", alpha, "--p", "0", "--out", str(out)) == 0
        assert_finite_rows(out / "se.tsv")


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

    @pytest.mark.parametrize("u1", ["0", "-0.5"])
    def test_glm_start_outside_the_domain_is_refused(self, tmp_path, capsys, u1):
        assert run_cli("cobweb", "--model", "glm", "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.2", f"--u1={u1}", "--steps", "2", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "--u1" in err and "u > 0" in err
        assert not (tmp_path / "cobweb.tsv").exists()

    @pytest.mark.parametrize("u1", ["1e16", "1e100"])
    def test_glm_start_beyond_the_tested_range_is_refused(self, tmp_path, capsys, u1):
        # the grid reaches 1.2*u1; the maps of both models are tested up to u = 1e16
        for model in (["--model", "glm", "--link", "logistic", "--gamma", "2.0"],
                      ["--model", "gmm", "--gamma", "1.5", "--pi-plus", "0.3"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("cobweb", *model, "--alpha", "0.5", "--p", "0.2", "--u1", u1,
                               "--steps", "2", "--out", str(tmp_path)) == 2
            assert "--u1" in capsys.readouterr().err
            assert not (tmp_path / "cobweb.tsv").exists()

    @pytest.mark.parametrize("model", ["gmm", "glm"])
    @pytest.mark.parametrize("u1", ["nan", "inf", "-inf"])
    def test_non_finite_start_is_refused(self, tmp_path, capsys, model, u1):
        assert run_cli("cobweb", "--model", model, "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.2", f"--u1={u1}", "--steps", "2", "--out", str(tmp_path)) == 2
        assert "--u1" in capsys.readouterr().err
        assert not (tmp_path / "cobweb.tsv").exists()

    @pytest.mark.parametrize("model", ["gmm", "glm"])
    def test_zero_steps_are_refused(self, tmp_path, capsys, model):
        assert run_cli("cobweb", "--model", model, "--gamma", "1.0", "--alpha", "0.5",
                       "--p", "0.2", "--u1", "0.5", "--steps", "0", "--out", str(tmp_path)) == 2
        assert "--steps" in capsys.readouterr().err
        assert not (tmp_path / "cobweb.tsv").exists()

    @pytest.mark.parametrize("model, variant", [("gmm", "opt"), ("gmm", "smoothed_ft"),
                                                ("glm", "opt")])
    def test_one_map_call_for_the_grid_and_one_per_step(self, tmp_path, monkeypatch, model,
                                                        variant):
        calls = []
        if model == "gmm":
            spec_call = SeMapSpec.__call__
            monkeypatch.setattr(SeMapSpec, "__call__",
                                lambda spec, u: calls.append(np.size(u)) or spec_call(spec, u))
        else:
            glm_map = harness.se_step_glm_opt
            monkeypatch.setattr(harness, "se_step_glm_opt", lambda eta, params: calls.append(
                np.size(eta)) or glm_map(eta, params))
        assert run_cli("cobweb", "--model", model, "--gamma", "1.5", "--alpha", "2.0",
                       "--p", "0.3", "--variant", variant, "--beta", "20", "--u1", "0.04",
                       "--steps", "6", "--out", str(tmp_path)) == 0
        # the 6 trace steps, then the 200-point grid
        assert calls == [1] * 6 + [200]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_glm_table_at_any_cpu_count(self, tmp_path, usable_cpus, split_threads, cpus):
        # the grid's posterior points span several blocks, which go to min(cpus,
        # blocks) threads; the table is the same byte for byte
        args = ("cobweb", "--model", "glm", "--link", "logistic", "--gamma", "2.0",
                "--alpha", "0.5", "--p", "0.2", "--u1", "0.04", "--steps", "4")
        usable_cpus(1)
        assert run_cli(*args, "--out", str(tmp_path / "one")) == 0
        usable_cpus(cpus)
        split_threads.clear()
        assert run_cli(*args, "--out", str(tmp_path / "many")) == 0
        assert max(split_threads.by_caller["OptimalGlm._evaluate"]) == cpus
        assert ((tmp_path / "many" / "cobweb.tsv").read_bytes()
                == (tmp_path / "one" / "cobweb.tsv").read_bytes())

    def test_glm_has_the_opt_map_only(self, tmp_path):
        args = ("cobweb", "--model", "glm", "--gamma", "1.0", "--alpha", "0.5", "--p", "0.2",
                "--u1", "0.5", "--steps", "2", "--out", str(tmp_path))
        assert run_cli(*args, "--aggregator", "identity") == 2
        assert run_cli(*args, "--variant", "ft_limit") == 2
        assert not (tmp_path / "cobweb.tsv").exists()


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
        write_logit_file(path, [f"s{i}" for i in range(n)], z, yh)

    def test_fit_then_apply(self, tmp_path):
        logit_path = tmp_path / "logits.tsv"
        self._write_logits(logit_path)
        fit_dir = tmp_path / "fit"
        assert run_cli("bayesmix", "fit", "--input", str(logit_path),
                       "--out", str(fit_dir)) == 0
        payload = json.loads((fit_dir / "fit.json").read_text())
        assert sorted(payload) == ["fit", "schema", "version"]
        assert payload["fit"]["mu_plus"] > 0 > payload["fit"]["mu_minus"]
        apply_dir = tmp_path / "apply"
        assert run_cli("bayesmix", "apply", "--input", str(logit_path),
                       "--fit", str(fit_dir / "fit.json"), "--p", "0.3",
                       "--out", str(apply_dir)) == 0
        meta, cols, rows = read_table(apply_dir / "targets.tsv")
        assert json.loads(meta["config"]) == {"p": 0.3}   # apply reads --p only
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

    def test_header_only_logits_give_header_only_targets(self, tmp_path):
        logit_path = tmp_path / "logits.tsv"
        logit_path.write_text("id\tz\tyhat\n")
        (tmp_path / "fit.json").write_text(json.dumps({"fit": GOOD_FIT}))
        assert run_cli("bayesmix", "apply", "--input", str(logit_path),
                       "--fit", str(tmp_path / "fit.json"), "--p", "0.3",
                       "--out", str(tmp_path / "apply")) == 0
        meta, cols, rows = read_table(tmp_path / "apply" / "targets.tsv")
        assert "bayesmix-targets" in meta["schema"]
        assert cols == ["id", "target"] and rows == []

    @pytest.mark.parametrize("p", ["0.5", "0.7", "nan", "-0.1"])
    def test_apply_p_outside_its_range_is_refused(self, tmp_path, capsys, p):
        logit_path = tmp_path / "logits.tsv"
        self._write_logits(logit_path)
        (tmp_path / "fit.json").write_text(json.dumps({"fit": GOOD_FIT}))
        assert run_cli("bayesmix", "apply", "--input", str(logit_path),
                       "--fit", str(tmp_path / "fit.json"), f"--p={p}",
                       "--out", str(tmp_path / "apply")) == 2
        assert "--p" in capsys.readouterr().err
        assert not (tmp_path / "apply" / "targets.tsv").exists()

    @pytest.mark.parametrize("p", ["0.5", "0.7", "nan", "-0.1"])
    def test_demo_p_outside_its_range_is_refused(self, tmp_path, capsys, p):
        assert run_cli("bayesmix", "demo", f"--p={p}", "--n", "100",
                       "--out", str(tmp_path)) == 2
        assert f"--p must lie in [0, 0.5), not {float(p)!r}" in capsys.readouterr().err
        assert not (tmp_path / "demo.tsv").exists()

    def test_demo_without_rounds_is_refused(self, tmp_path, capsys):
        assert run_cli("bayesmix", "demo", "--p", "0.3", "--n", "100", "--rounds", "0",
                       "--out", str(tmp_path)) == 2
        assert "--rounds" in capsys.readouterr().err
        assert not (tmp_path / "demo.tsv").exists()

    @pytest.mark.parametrize("text", ['{"fit": {"mu_plus": 1.0,', '{"schema": "bayesmix-fit v1"}',
                                      '{"fit": {"mu_plus": 1.0}}', '[1, 2]',
                                      json.dumps({"fit": dict(GOOD_FIT, sigma_plus=-1.0)}),
                                      json.dumps({"fit": dict(GOOD_FIT, mu_plus="a")})],
                             ids=["not_json", "no_fit", "fit_fields_missing", "not_an_object",
                                  "negative_sigma", "mean_not_a_number"])
    def test_apply_with_a_bad_fit_file(self, tmp_path, capsys, text):
        logit_path = tmp_path / "logits.tsv"
        self._write_logits(logit_path)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(text)
        assert run_cli("bayesmix", "apply", "--input", str(logit_path), "--fit", str(fit_path),
                       "--p", "0.3", "--out", str(tmp_path / "apply")) == 2
        assert f"--fit {fit_path}" in capsys.readouterr().err
        assert not (tmp_path / "apply" / "targets.tsv").exists()

    @pytest.mark.parametrize("argv", [
        ("fit", "--input", "logits.tsv", "--gamma", "2"),
        ("apply", "--input", "logits.tsv", "--fit", "fit.json", "--p", "0.3", "--em-tol", "1e-6"),
        ("demo", "--p", "0.3", "--n", "200", "--rounds", "1", "--input", "logits.tsv"),
        ("fit",),
        ("apply", "--input", "logits.tsv", "--p", "0.3"),
        ("apply", "--input", "logits.tsv", "--fit", "fit.json"),
        ("fit", "--input", "logits.tsv", "--p", "0.3"),
        ("fit", "--input", "logits.tsv", "--em-tol", "1e-6"),
        ("demo", "--p", "0.3", "--n", "200", "--rounds", "1", "--sigma-floor", "1"),
        ("demo", "--p", "0.3", "--n", "200", "--rounds", "1", "--em-max-iters", "5"),
    ], ids=["fit_gamma", "apply_tolerance", "demo_input", "fit_no_input", "apply_no_fit",
            "apply_no_p", "fit_p", "fit_tolerance", "demo_floor", "demo_iterations"])
    def test_each_action_takes_only_the_flags_it_reads(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self._write_logits(tmp_path / "logits.tsv")
        (tmp_path / "fit.json").write_text(json.dumps({"fit": GOOD_FIT}))
        with pytest.raises(SystemExit) as exc:
            run_cli("bayesmix", *argv, "--out", "out")
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\tz\tyhat\nx\toops\t1\n")
        assert run_cli("bayesmix", "fit", "--input", str(bad),
                       "--out", str(tmp_path / "o")) == 2


class TestErrorsAndEnv:
    def test_missing_required_is_config_error(self, tmp_path):
        assert run_cli("simulate", "--model", "gmm", "--alpha", "0.5",
                       "--p", "0.2", "--out", str(tmp_path)) == 2

    def test_bad_aggregator(self, tmp_path):
        args = ("--gamma", "1.0", "--alpha", "0.5", "--p", "0.2", "--n", "100",
                "--out", str(tmp_path))
        for model in ("gmm", "glm"):
            assert run_cli("simulate", "--model", model, *args, "--aggregator", "bogus") == 2
            assert run_cli("simulate", "--model", model, *args,
                           "--aggregator", "smoothed_ft") == 2   # no --beta
        assert not (tmp_path / "report.tsv").exists()

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMP_RETRAIN_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("crossover", "--gamma", "1.5", "--alpha", "2.0",
                       "--p-list", "0.3") == 0
        assert (tmp_path / "envout" / "crossover.tsv").exists()


class TestInputErrors:
    """Bad input on the command line or in a --config file exits 2 with a
    message naming the flag or field, never a traceback."""

    def run_config(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "o"))
        return code, capsys.readouterr().err

    def test_p_list_not_numbers(self, tmp_path, capsys):
        assert run_cli("crossover", "--gamma", "1.5", "--alpha", "2.0", "--p-list", "0.2,x",
                       "--out", str(tmp_path)) == 2
        assert "--p-list" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, '{"gamma": 1.0,')
        assert code == 2 and "not valid JSON" in err

    def test_config_not_an_object(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, "[1, 2]")
        assert code == 2 and "JSON object" in err

    def test_config_field_of_the_wrong_type(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys,
                                    '{"gamma": "a", "alpha": 0.5, "p": 0.2}')
        assert code == 2 and "gamma" in err
        base = dict(model="gmm", gamma=1.0, alpha=0.5, p=0.2, n=100, iterations=2)
        for field, value in (("n", 1.5), ("n", True), ("model", 1), ("d", "5"), ("beta", "a")):
            for build in (ExperimentConfig.from_dict, lambda kw: ExperimentConfig(**kw)):
                with pytest.raises(ConfigError, match=field):
                    build({**base, field: value})
        # an int is a float, and None is a value of the optional fields
        config = ExperimentConfig.from_dict({"model": "gmm", "gamma": 1, "alpha": 0.5, "p": 0.2,
                                             "n": 100, "iterations": 2, "d": None})
        assert build_params(config).d == 50

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(NOT_UTF8)
        assert run_cli("se", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "--config" in capsys.readouterr().err

    def test_logit_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "logits.tsv"
        path.write_bytes(NOT_UTF8)
        assert run_cli("bayesmix", "fit", "--input", str(path), "--out", str(tmp_path / "o")) == 2
        assert "--input" in capsys.readouterr().err

    def test_fit_file_not_utf8(self, tmp_path, capsys):
        logits, fit = tmp_path / "logits.tsv", tmp_path / "fit.json"
        write_logit_file(logits, ["a", "b"], np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
        fit.write_bytes(NOT_UTF8)
        assert run_cli("bayesmix", "apply", "--input", str(logits), "--fit", str(fit),
                       "--p", "0.2", "--out", str(tmp_path / "o")) == 2
        assert "--fit" in capsys.readouterr().err

    # every command that takes --gamma, by its pytest id, with all but --gamma and --alpha
    SIM = ["--n", "200", "--iterations", "2", "--replications", "1", "--jobs", "1", "--p", "0.2"]
    GAMMA_COMMANDS = {
        "se_gmm": ["se", "--model", "gmm", "--p", "0.2"],
        "se_gmm_ct_limit": ["se", "--model", "gmm", "--variant", "ct_limit", "--p", "0.2"],
        "se_glm_logistic": ["se", "--model", "glm", "--link", "logistic", "--p", "0.2"],
        "se_glm_probit": ["se", "--model", "glm", "--link", "probit", "--p", "0.2"],
        "cobweb_gmm": ["cobweb", "--model", "gmm", "--u1", "0.5", "--p", "0.2"],
        "cobweb_gmm_ft_limit": ["cobweb", "--model", "gmm", "--variant", "ft_limit", "--u1", "0.5",
                                "--p", "0.2"],
        "cobweb_glm_logistic": ["cobweb", "--model", "glm", "--link", "logistic", "--u1", "0.5",
                                "--p", "0.2"],
        "crossover": ["crossover", "--p-list", "0.2"],
        "simulate_gmm": ["simulate", "--model", "gmm", *SIM],
        "simulate_glm": ["simulate", "--model", "glm", *SIM],
        "bayesmix_demo": ["bayesmix", "demo", "--n", "200", "--rounds", "1", "--p", "0.2"],
    }

    def run_gamma(self, tmp_path, command, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_cli(*self.GAMMA_COMMANDS[command], "--gamma", gamma, "--alpha", "0.5",
                           "--out", str(tmp_path / "o"))

    @pytest.mark.parametrize("gamma", ["1e100", "1e200"])
    @pytest.mark.parametrize("command", list(GAMMA_COMMANDS))
    def test_gamma_whose_float32_image_overflows(self, tmp_path, capsys, command, gamma):
        # gamma*sqrt(d) must stay below float32's largest value
        assert self.run_gamma(tmp_path, command, gamma) == 2
        assert "gamma" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.tsv"))

    def test_gamma_inside_the_float32_bound_runs(self, tmp_path):
        assert self.run_gamma(tmp_path, "simulate_glm", "1e15") == 0

    @pytest.mark.parametrize("command", ["simulate_gmm", "bayesmix_demo"])
    def test_gamma_whose_mixture_products_overflow(self, tmp_path, capsys, command):
        # gamma^2*sqrt(n) = 1.4e39: the float32 products X @ w would overflow
        assert self.run_gamma(tmp_path, command, "1e19") == 2
        assert "gamma" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.tsv"))

    @pytest.mark.parametrize("command", ["se_gmm", "se_gmm_ct_limit", "cobweb_gmm",
                                         "cobweb_gmm_ft_limit", "crossover"])
    def test_theory_takes_a_gamma_beyond_the_mixture_sampling_bound(self, tmp_path, command):
        assert self.run_gamma(tmp_path, command, "1e19") == 0

    def test_gamma_just_inside_the_mixture_sampling_bound_runs_finite(self):
        # the bound is gamma^2*sqrt(n) < float32 max / 2; at the float32 max
        # itself opt and smoothed_ft runs at alpha 0.1 diverged at step 2
        # (n 200 and 2000) and a bayesmix demo halted
        n, bound = 200, float(np.finfo(np.float32).max) / 2
        gamma = math.sqrt(bound / math.sqrt(n)) * (1 - 1e-12)
        with pytest.raises(ConfigError, match="gamma"):
            sample_gmm_dataset(GmmParams(gamma=gamma * (1 + 2e-12), alpha=0.5, p=0.2, n=n),
                               RngStream(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for alpha in (0.1, 0.5, 2.0):
                for name in AGGREGATORS:
                    beta = 5.0 if name.startswith("smoothed") else None
                    config = ExperimentConfig(model="gmm", gamma=gamma, alpha=alpha, p=0.2, n=n,
                                              iterations=4, aggregator=name, beta=beta)
                    # the smoothed aggregators' state evolution is refused from
                    # gamma about 3e17, so their schedule is built here
                    schedule = (se_trace(config)[1] if beta is None else
                                (IdentityAggregator(),) + (aggregator_from_name(name, beta),) * 3)
                    for rep in range(2):
                        traj = run_replication(config, rep, schedule)
                        assert traj.diverged_at is None and len(traj.points) == 5, (alpha, name)
                        assert all(math.isfinite(pt.model_norm) for pt in traj.points)
                params = GmmParams(gamma=gamma, alpha=alpha, p=0.2, n=n)
                for seed in (0, 1):
                    demo = bayesmix_retrain_demo(params, 3, RngStream(seed, 0))
                    assert demo.halted_at is None and len(demo.accuracies) == 3, (alpha, seed)

    def test_config_of_version_0_2_0_is_refused(self, tmp_path, capsys):
        # the quadrature order and the link scale left the config in 0.3.0
        stored = {"aggregator": "opt", "alpha": 0.5, "beta": None, "d": None, "gamma": 1.2,
                  "iterations": 2, "link": "sign", "link_scale": 1.0, "master_seed": 3,
                  "model": "gmm", "n": 150, "order": None, "p": 0.2, "pi_plus": 0.5,
                  "replications": 1}
        code, err = self.run_config(tmp_path, capsys, json.dumps(stored))
        assert code == 2 and "link_scale" in err and "order" in err

    @pytest.mark.parametrize("flag", ["--order", "--link-scale"])
    def test_removed_flags(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("se", "--model", "glm", "--gamma", "1.0", "--alpha", "0.5", "--p", "0.2",
                    flag, "10", "--out", str(tmp_path))
        assert exc.value.code == 2


class TestOneList:
    """One aggregator list and one variant list serve every command."""

    @staticmethod
    def variant_choices(command):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        sub = subparsers.choices[command]
        return tuple(next(a for a in sub._actions if a.dest == "variant").choices)

    def test_simulate_flags_are_the_config_fields(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in subparsers.choices["simulate"]._actions} - {"help"}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests == fields | {"config", "jobs", "out"}
        assert "--seed" in subparsers.choices["simulate"]._option_string_actions

    def test_variant_choices(self):
        assert self.variant_choices("se") == VARIANTS
        assert self.variant_choices("cobweb") == VARIANTS
        assert VARIANTS[:len(AGGREGATORS)] == AGGREGATORS

    def test_map_spec_takes_the_variants(self):
        params = GmmParams(gamma=1.5, alpha=2.0, p=0.3, pi_plus=0.3, n=100)
        for variant in VARIANTS:
            beta = 20.0 if variant.startswith("smoothed") else None
            fmap = SeMapSpec(variant, params, beta=beta)
            assert math.isfinite(fmap(0.5)), variant
        for bad in ("bogus", "OPT", "", "smoothed", "limit"):
            with pytest.raises(ConfigError):
                SeMapSpec(bad, params, beta=20.0)

    def test_config_takes_every_aggregator_for_both_models(self):
        for model in ("gmm", "glm"):
            for aggregator in AGGREGATORS:
                config = ExperimentConfig(model=model, gamma=1.0, alpha=0.5, p=0.2, n=100,
                                          iterations=2, aggregator=aggregator, beta=5.0)
                assert len(se_trace(config)[1]) == 2


# every command in a fresh interpreter, then the modules it loaded
FRESH_RUN = """
import json, sys
from amp_retrain.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def fresh_run_modules(tmp_path_factory):
    """The modules a fresh interpreter holds after running every command once,
    simulate on one worker."""
    tmp_path = tmp_path_factory.mktemp("fresh_run")
    gmm = ["--model", "gmm", "--gamma", "1.5", "--alpha", "0.5", "--p", "0.3"]
    glm = ["--model", "glm", "--link", "logistic", "--gamma", "2.0", "--alpha", "0.5",
           "--p", "0.2"]
    small = ["--n", "200", "--d", "100", "--iterations", "2", "--replications", "1",
             "--jobs", "1", "--seed", "1"]
    logits = tmp_path / "logits.tsv"
    gen = RngStream(3).generator()
    z = np.concatenate([gen.normal(-2, 0.8, 100), gen.normal(2, 0.8, 100)])
    write_logit_file(logits, [f"s{i}" for i in range(200)], z, np.sign(z))
    runs = [
        ["se", *gmm, "--iterations", "3"], ["se", *glm, "--iterations", "3"],
        ["cobweb", *gmm, "--u1", "0.5", "--steps", "2"],
        ["cobweb", *glm, "--u1", "0.5", "--steps", "2"],
        ["crossover", "--gamma", "1.5", "--alpha", "2.0", "--p-list", "0.2"],
        ["simulate", *gmm, *small],
        *(["simulate", "--model", "glm", "--link", link, "--gamma", "2.0", "--alpha", "0.5",
           "--p", "0.2", *small] for link in ("sign", "logistic", "probit")),
        # two replications that could run on two workers, asked to run on one
        ["simulate", *gmm, "--n", "200", "--d", "100", "--iterations", "2", "--replications",
         "2", "--jobs", "1", "--seed", "1"],
        ["bayesmix", "demo", "--p", "0.3", "--gamma", "2.0", "--alpha", "0.5", "--n", "200",
         "--d", "100", "--rounds", "2", "--seed", "1"],
        ["bayesmix", "fit", "--input", str(logits)],
        ["bayesmix", "apply", "--input", str(logits), "--fit",
         str(tmp_path / "fit" / "fit.json"), "--p", "0.3"],
    ]
    argvs = [argv + ["--out", str(tmp_path / ("fit" if argv[:2] == ["bayesmix", "fit"] else
                                             f"run{i}"))]
             for i, argv in enumerate(runs)]
    src = str(pathlib.Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(argvs)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_no_command_loads_scipy(fresh_run_modules):
    assert [m for m in fresh_run_modules if m.split(".")[0] == "scipy"] == []


def test_one_worker_loads_no_process_pool(fresh_run_modules):
    # the pool module (with multiprocessing) is imported only where simulate
    # starts a pool
    assert "amp_retrain.cli" in fresh_run_modules
    assert "concurrent.futures.process" not in fresh_run_modules
    assert [m for m in fresh_run_modules if m.split(".")[0] == "multiprocessing"] == []
