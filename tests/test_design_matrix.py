"""The float32 design matrix: its dtype, products that never upcast it, and
tables that do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import amp_retrain
from amp_retrain.bayesmix import bayesmix_retrain_demo
from amp_retrain.cli import main
from amp_retrain.errors import DivergenceError
from amp_retrain.glm import GlmParams, OptimalSign, SignLink, sample_glm_dataset
from amp_retrain.gmm import GmmParams, OptimalGmm, sample_gmm_dataset
from amp_retrain.numerics import RngStream
from amp_retrain.retrain import HARD_RULES, AmpState, amp_step, run_hard_baseline

GMM = GmmParams(gamma=1.5, alpha=0.5, p=0.3, pi_plus=0.3, n=2000, d=1000)
GLM = GlmParams(gamma=1.0, alpha=0.5, p=0.2, link=SignLink(), n=2000, d=1000)


def traced_peak(fn):
    """Peak bytes that fn allocates, by tracemalloc, and fn's result."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def predrawn(monkeypatch, n, d, sd=1.0):
    """Draw the matrix the next sampler call would draw, before tracing, and
    hand that call this copy."""
    X = RngStream(0).gaussian_matrix(n, d, sd)
    monkeypatch.setattr(RngStream, "gaussian_matrix", lambda self, *args, **kwargs: X)
    return X


class TestDtype:
    def test_samplers_draw_float32(self):
        assert sample_gmm_dataset(GMM, RngStream(1)).X.dtype == np.float32
        assert sample_glm_dataset(GLM, RngStream(1)).X.dtype == np.float32

    def test_engine_state_stays_float64(self):
        data = sample_glm_dataset(GLM, RngStream(1))
        state = AmpState(np.zeros(data.d), np.zeros(data.n), 0)
        state = amp_step(state, data.X, data.y_noisy, data.scale, OptimalSign.from_eta(0.5, GLM))
        assert state.w.dtype == np.float64 and state.y_soft.dtype == np.float64


class Overflowing:
    """An aggregator whose g, 1e36 at every row, makes the float32 X w overflow."""

    def value_and_deriv(self, y, yhat):
        return np.full(y.shape, 1e36), np.zeros(y.shape)


@pytest.mark.parametrize("cpus", [1, 2])
def test_overflow_on_a_helper_thread_is_divergence(usable_cpus, split_threads, cpus):
    # n 2049, d 1025: two row blocks, so at 2 CPUs X w runs on two threads;
    # the step ignores overflow in its products and reports divergence, and
    # the suite turns a RuntimeWarning into an error
    X = RngStream(0).gaussian_matrix(2049, 1025)
    usable_cpus(cpus)
    split_threads.clear()
    state = AmpState(np.zeros(1025), np.zeros(2049), 0)
    with pytest.raises(DivergenceError):
        amp_step(state, X, np.ones(2049), 1.0, Overflowing())
    assert split_threads == [cpus, cpus]


@pytest.mark.parametrize("n, d", [(2000, 1000), (2049, 1025)], ids=["inline", "split"])
class TestNoUpcastCopy:
    # a mixed-dtype product X32.T @ g64 makes numpy copy X to float64: twice
    # X.nbytes more; every product with X must stay far below one copy, also
    # at n 2049, d 1025, where X has 2**21 entries or more and the products
    # are split over threads
    LIMIT = 0.1

    def test_amp_step(self, n, d):
        data = sample_gmm_dataset(replace(GMM, n=n, d=d), RngStream(2))
        state = AmpState(np.ones(data.d), np.linspace(-1, 1, data.n), 1)
        agg = OptimalGmm.from_eta(0.5, GMM)
        peak, _ = traced_peak(lambda: amp_step(state, data.X, data.y_noisy, data.scale, agg))
        assert peak < self.LIMIT * data.X.nbytes

    @pytest.mark.parametrize("rule", ["full", "consensus"])
    def test_hard_baseline(self, n, d, rule):
        data = sample_glm_dataset(replace(GLM, n=n, d=d), RngStream(2))
        evaluate = lambda w: (0.0, 0.0)
        peak, traj = traced_peak(
            lambda: run_hard_baseline(data, HARD_RULES[rule], 2, evaluate))
        assert len(traj.points) == 2
        assert peak < self.LIMIT * data.X.nbytes

    def test_glm_margins(self, monkeypatch, n, d):
        X = predrawn(monkeypatch, n, d, sd=1.0 / np.sqrt(n))
        peak, data = traced_peak(
            lambda: sample_glm_dataset(replace(GLM, n=n, d=d), RngStream(2)))
        assert data.X is X
        assert peak < self.LIMIT * X.nbytes

    def test_bayesmix_demo_rounds(self, monkeypatch, n, d):
        X = predrawn(monkeypatch, n, d)
        peak, result = traced_peak(
            lambda: bayesmix_retrain_demo(replace(GMM, n=n, d=d), 3, RngStream(2)))
        assert len(result.accuracies) == 3
        assert peak < self.LIMIT * X.nbytes


# glm sign and mixture runs and a bayesmix demo at n 2000, d 1000, and again
# at an n that is not a multiple of 8: large enough that OpenBLAS splits a
# float32 X^T g over two threads, and where its sgemv for X w would round the
# rows differently on two threads; and a logistic glm run, whose aggregator
# contracts each row of its posterior rule with np.vecdot (a BLAS ddot of 61
# terms, never split over BLAS threads)
ARGS = {
    "glm": ["simulate", "--model", "glm", "--link", "sign", "--gamma", "1.0", "--alpha", "0.5",
            "--p", "0.2", "--iterations", "5", "--replications", "2", "--seed", "3"],
    "logistic": ["simulate", "--model", "glm", "--link", "logistic", "--gamma", "2",
                 "--alpha", "0.5", "--p", "0.2", "--iterations", "5", "--replications", "2",
                 "--seed", "3"],
    "gmm": ["simulate", "--model", "gmm", "--gamma", "1.5", "--alpha", "0.5", "--p", "0.3",
            "--pi-plus", "0.3", "--iterations", "5", "--replications", "2", "--seed", "3"],
    "demo": ["bayesmix", "demo", "--p", "0.45", "--gamma", "2.0", "--alpha", "0.5",
             "--rounds", "5", "--seed", "3"],
}
SIZES = [("glm", 2000, 1000), ("gmm", 2000, 1000), ("demo", 2000, 1000),
         ("glm", 2004, 1002), ("gmm", 2001, 1000), ("demo", 2004, 1002),
         ("logistic", 2001, 1000)]
RUNS = {f"{kind}-{n}": ARGS[kind] + ["--n", str(n), "--d", str(d)] for kind, n, d in SIZES}
TABLES = {"glm": ("report.tsv", "trajectories.tsv"), "gmm": ("report.tsv", "trajectories.tsv"),
          "logistic": ("report.tsv", "trajectories.tsv"), "demo": ("demo.tsv",)}
SRC = str(Path(amp_retrain.__file__).resolve().parents[1])
RUN_ALL = ("import json, sys\n"
           "from amp_retrain.cli import main\n"
           "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")


def run_at_blas_threads(threads, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    runs = [argv + ["--out", str(out / name)] for name, argv in RUNS.items()]
    subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(runs)], env=env, check=True,
                   capture_output=True)


def test_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    run_at_blas_threads(1, tmp_path / "one")
    run_at_blas_threads(2, tmp_path / "two")
    for name in RUNS:
        for table in TABLES[name.split("-")[0]]:
            one = (tmp_path / "one" / name / table).read_bytes()
            assert one == (tmp_path / "two" / name / table).read_bytes(), f"{name}/{table}"


@pytest.mark.parametrize("kind", ["glm", "logistic", "gmm"])
def test_tables_do_not_depend_on_the_usable_cpus(tmp_path, usable_cpus, split_threads, kind):
    # n 2049, d 1025: X has 2**21 entries or more, so the draw and the
    # products split their work over threads, and the logistic posterior has
    # three row blocks, so it splits too
    for cpus in (1, 2):
        usable_cpus(cpus)
        split_threads.clear()
        assert main(ARGS[kind] + ["--n", "2049", "--d", "1025", "--jobs", "1",
                                  "--out", str(tmp_path / str(cpus))]) == 0
        assert max(split_threads) == cpus
        if kind == "logistic":
            assert max(split_threads.by_caller["OptimalGlm._evaluate"]) == cpus
    for table in TABLES[kind]:
        one = (tmp_path / "1" / table).read_bytes()
        assert one == (tmp_path / "2" / table).read_bytes(), table
