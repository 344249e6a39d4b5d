"""Experiment orchestration: replicated retraining runs vs. theory traces.

A single flat :class:`ExperimentConfig` describes either ground-truth model;
`simulate` fans replications out (optionally across processes), assembles a
per-iteration comparison report against the matching state-evolution trace,
and the writer functions emit byte-reproducible tab-separated outputs with
the full resolved configuration embedded.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .errors import ConfigError
from .gmm import (
    GmmParams,
    IdentityAggregator,
    OptimalGmm,
    SmoothedConsensusRT,
    SmoothedFullRT,
    gmm_evaluator,
    sample_gmm_dataset,
)
from .gmm_se import (
    SeMapSpec,
    cobweb_trace,
    eta_map_ct,
    eta_map_ft,
    find_crossover,
    opt_se_trace_gmm,
    se_error_from_eta,
    se_error_gmm,
    se_init_gmm,
    se_step_gmm,
)
from .glm import GlmParams, glm_evaluator, link_from_name, sample_glm_dataset
from .glm_se import (
    opt_se_trace_glm,
    optimal_aggregator_for_state,
    se_error_glm,
    se_init_glm,
    se_step_glm_opt,
)
from .numerics import RngStream
from .retrain import run_retraining

GMM_AGGREGATORS = ("opt", "identity", "smoothed_ft", "smoothed_ct")
GLM_AGGREGATORS = ("opt", "identity")
SE_VARIANTS_GMM = GMM_AGGREGATORS + ("ft_limit", "ct_limit")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str                     # "gmm" | "glm"
    gamma: float
    alpha: float
    p: float
    n: int
    iterations: int
    replications: int = 1
    master_seed: int = 0
    d: Optional[int] = None
    pi_plus: float = 0.5           # gmm only
    link: str = "sign"             # glm only
    link_scale: float = 1.0        # glm only
    aggregator: str = "opt"
    beta: Optional[float] = None   # smoothed aggregators
    order: Optional[int] = None    # quadrature override

    def __post_init__(self):
        if self.model not in ("gmm", "glm"):
            raise ConfigError(f"model must be 'gmm' or 'glm', got {self.model!r}")
        allowed = GMM_AGGREGATORS if self.model == "gmm" else GLM_AGGREGATORS
        if self.aggregator not in allowed:
            raise ConfigError(
                f"aggregator {self.aggregator!r} not available for {self.model} "
                f"(choose from {allowed})"
            )
        if self.aggregator.startswith("smoothed") and not self.beta:
            raise ConfigError("smoothed aggregators need --beta")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**payload)


def build_params(config: ExperimentConfig):
    if config.model == "gmm":
        return GmmParams(gamma=config.gamma, alpha=config.alpha, p=config.p,
                         pi_plus=config.pi_plus, n=config.n, d=config.d)
    link = link_from_name(config.link, config.link_scale)
    return GlmParams(gamma=config.gamma, alpha=config.alpha, p=config.p,
                     link=link, n=config.n, d=config.d)


# --------------------------------------------------------------------------
# theory traces
# --------------------------------------------------------------------------

def _gmm_aggregator(config: ExperimentConfig):
    if config.aggregator == "identity":
        return IdentityAggregator()
    if config.aggregator == "smoothed_ft":
        return SmoothedFullRT(config.beta)
    if config.aggregator == "smoothed_ct":
        return SmoothedConsensusRT(config.beta)
    raise ConfigError(f"no constant aggregator for {config.aggregator!r}")


def se_trace(config: ExperimentConfig) -> Tuple[List[Tuple[int, float, float]], Tuple]:
    """((t, eta_t, predicted error) rows, schedule) for the configured run.

    The schedule is the aggregator tuple of the empirical run: the identity
    at step 1, then at step t + 1 the aggregator for state t (matched to its
    channel for "opt", the configured constant one otherwise).
    """
    params = build_params(config)
    T = config.iterations
    if config.model == "gmm":
        order = config.order or 201
        if config.aggregator == "opt":
            states = opt_se_trace_gmm(params, T, order)
            later = [OptimalGmm.from_se_state(s, params) for s in states[:-1]]
        else:
            agg = _gmm_aggregator(config)
            states = [se_init_gmm(params)]
            for _ in range(T - 1):
                states.append(se_step_gmm(states[-1], agg, params, order))
            later = [agg] * (T - 1)
        rows = [(t + 1, s.eta, se_error_gmm(s, params)) for t, s in enumerate(states)]
    else:
        order = config.order or 41
        if config.aggregator == "opt":
            states = opt_se_trace_glm(params, T, order)
            later = [optimal_aggregator_for_state(s, params) for s in states[:-1]]
        else:
            # identity keeps re-entering the first state
            states = [se_init_glm(params)] * T
            later = [IdentityAggregator()] * (T - 1)
        rows = [(t + 1, s.eta, se_error_glm(s.eta, params)) for t, s in enumerate(states)]
    return rows, (IdentityAggregator(), *later)


def se_limit_trace(config: ExperimentConfig, variant: str) -> List[Tuple[int, float, float]]:
    """Sharp-limit trajectories (full / consensus) iterated from the standard start."""
    if config.model != "gmm":
        raise ConfigError("limit traces are defined for the gmm model")
    params = build_params(config)
    fmap = eta_map_ft if variant == "ft_limit" else eta_map_ct
    u = se_init_gmm(params).eta ** 2
    rows = []
    for t in range(1, config.iterations + 1):
        rows.append((t, np.sqrt(u), se_error_from_eta(np.sqrt(u), params.gamma)))
        u = fmap(u, params)
    return rows


# --------------------------------------------------------------------------
# replications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicationResult:
    rep: int
    rows: List[Tuple[int, float, float, float]]  # (t, error, overlap, norm)
    diverged_at: Optional[int]


def run_replication(config: ExperimentConfig, rep: int, schedule: Tuple) -> ReplicationResult:
    """One full retraining run of the schedule on stream (master_seed, rep).

    Row t=0 is the one-shot baseline X^T y_noisy / scale^2.  The identity
    first step computes w_1 = X^T y_noisy / scale, so the baseline is
    w_1 / scale: it shares step 1's error and overlap (both scale-invariant)
    and its norm is step 1's over the scale.  A run that diverges at step 1
    has no t=0 row.
    """
    params = build_params(config)
    rng = RngStream(config.master_seed, rep)
    if config.model == "gmm":
        data = sample_gmm_dataset(params, rng)
        evaluate = gmm_evaluator(data)
    else:
        data = sample_glm_dataset(params, rng)
        evaluate = glm_evaluator(data, params)
    traj = run_retraining(data, schedule, evaluate)
    rows = [(pt.t, pt.error, pt.overlap, pt.model_norm) for pt in traj.points]
    if rows:
        rows.insert(0, (0, rows[0][1], rows[0][2], rows[0][3] / data.scale))
    return ReplicationResult(rep=rep, rows=rows, diverged_at=traj.diverged_at)


@dataclass(frozen=True)
class SimulationResult:
    config: ExperimentConfig
    se_rows: List[Tuple[int, float, float]]
    report_rows: List[Tuple[int, float, float, float, float, int]]
    replications: List[ReplicationResult]


def simulate(config: ExperimentConfig, jobs: int = 1) -> SimulationResult:
    """Replicated runs plus the matching theory trace and gap report.

    The schedule is built once and handed to every replication (its
    aggregators are frozen dataclasses, so it pickles into pool workers).
    Results are keyed by replication index and merged in order, so the output
    is identical for any job count.
    """
    se_rows, schedule = se_trace(config)
    reps_idx = range(config.replications)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reps = list(pool.map(run_replication, [config] * len(reps_idx), reps_idx,
                                 [schedule] * len(reps_idx)))
    else:
        reps = [run_replication(config, rep, schedule) for rep in reps_idx]

    predicted = {t: err for (t, _eta, err) in se_rows}
    predicted[0] = predicted[1]  # the t=0 baseline shares the first iterate's law
    report = []
    for t in range(0, config.iterations + 1):
        errs = [row[1] for r in reps for row in r.rows if row[0] == t]
        if not errs:
            continue
        mean = float(np.mean(errs))
        std = float(np.std(errs))
        report.append((t, predicted[t], mean, std, abs(predicted[t] - mean), len(errs)))
    return SimulationResult(config=config, se_rows=se_rows,
                            report_rows=report, replications=reps)


# --------------------------------------------------------------------------
# output files
# --------------------------------------------------------------------------

def _meta(config: ExperimentConfig) -> Dict[str, str]:
    return {
        "config": json.dumps(config.to_dict(), sort_keys=True),
        "master_seed": str(config.master_seed),
        "version": __version__,
    }


def write_simulation_outputs(result: SimulationResult, out_dir) -> Dict[str, Path]:
    from .datafiles import write_table

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(result.config)
    paths = {
        "report": out / "report.tsv",
        "trajectories": out / "trajectories.tsv",
        "se": out / "se.tsv",
        "config": out / "config.json",
    }
    write_table(paths["report"], meta,
                ["t", "predicted_error", "empirical_mean", "empirical_std", "abs_gap", "n_reps"],
                result.report_rows)
    traj_rows = []
    for rep in result.replications:
        status = "ok" if rep.diverged_at is None else f"diverged@{rep.diverged_at}"
        for (t, err, ov, nrm) in rep.rows:
            traj_rows.append((rep.rep, status, t, err, ov, nrm))
    write_table(paths["trajectories"], meta,
                ["rep", "status", "t", "error", "overlap", "model_norm"], traj_rows)
    write_table(paths["se"], meta, ["t", "eta", "predicted_error"], result.se_rows)
    paths["config"].write_text(json.dumps(result.config.to_dict(), sort_keys=True, indent=2) + "\n")
    return paths


def cobweb_rows(config: ExperimentConfig, u1: float, steps: int,
                variant: Optional[str] = None) -> List[Tuple[str, float, float]]:
    """(kind, x, y) rows: the sampled map, the diagonal, and the iterate trace."""
    params = build_params(config)
    if config.model == "gmm":
        variant = variant or ("opt" if config.aggregator == "opt" else config.aggregator)
        spec = SeMapSpec(variant=variant, params=params, beta=config.beta,
                         order=config.order or 201)
        fmap = spec.as_function()
    else:
        fmap = lambda u: se_step_glm_opt(np.sqrt(u), params, config.order or 41) ** 2
    trace = cobweb_trace(fmap, u1, steps)
    top = max((u for (u, fu) in trace.points), default=1.0)
    top = max(top, u1, 1.0) * 1.2
    grid = np.linspace(0.0 if config.model == "gmm" else max(1e-6, u1 * 1e-3), top, 200)
    rows = [("map", float(u), float(fmap(float(u)))) for u in grid]
    rows += [("diagonal", float(u), float(u)) for u in grid]
    rows += [("trace", float(u), float(fu)) for (u, fu) in trace.points]
    return rows


def crossover_rows(gamma: float, alpha: float, p_list: List[float],
                   pi_plus: float = 0.5, n: int = 100) -> List[Tuple]:
    """(p, u_star, residual, n_crossings) per noise level; NaN when none found."""
    rows = []
    for p in p_list:
        params = GmmParams(gamma=gamma, alpha=alpha, p=p, pi_plus=pi_plus, n=n)
        roots = find_crossover(params)
        if roots:
            u = roots[0]
            resid = eta_map_ct(u, params) - eta_map_ft(u, params)
            rows.append((p, u, resid, len(roots)))
        else:
            rows.append((p, float("nan"), float("nan"), 0))
    return rows
