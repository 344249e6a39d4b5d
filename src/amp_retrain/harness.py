"""Experiment orchestration: replicated retraining runs vs. theory traces.

A single flat :class:`ExperimentConfig` describes either ground-truth model;
`simulate` fans replications out (across processes when there are spare
cores and memory), assembles a per-iteration comparison report against the
matching state-evolution trace, and the writer functions emit
byte-reproducible tab-separated outputs with the full resolved configuration
embedded.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, get_args, get_type_hints

import numpy as np

from . import __version__
from .datafiles import write_table
from .errors import ConfigError
from .gmm import (
    AGGREGATORS,
    GmmParams,
    IdentityAggregator,
    OptimalGmm,
    aggregator_from_name,
    gmm_evaluator,
    sample_gmm_dataset,
)
from .gmm_se import (
    SeMapSpec,
    cobweb_trace,
    eta_map_ct,
    eta_map_ft,
    find_crossover,
    se_error_gmm,
    se_init_gmm,
    se_step_gmm,
)
from .glm import GlmParams, glm_evaluator, link_from_name, sample_glm_dataset
from .glm_se import (
    optimal_aggregator_for_state,
    se_error_glm,
    se_init_glm,
    se_step_glm_generic,
    se_step_glm_opt,
)
from .numerics import RngStream, _square, _usable_cpus
from .retrain import Trajectory, run_retraining


# the Python types a value of each annotated config type may have
_TYPES = {str: (str,), int: (int,), float: (int, float), type(None): (type(None),)}


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
    aggregator: str = "opt"
    beta: Optional[float] = None   # smoothed aggregators

    def __post_init__(self):
        # each value must have its field's type: an int is a float, None is a
        # value only of the optional fields, and bool is neither int nor float
        for name, kind in get_type_hints(type(self)).items():
            value, kinds = getattr(self, name), get_args(kind) or (kind,)
            accepted = sum(map(_TYPES.get, kinds), ())
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"config field {name} must be {kinds[0].__name__}: {value!r}")
        if self.model not in ("gmm", "glm"):
            raise ConfigError(f"model must be 'gmm' or 'glm', got {self.model!r}")
        aggregator_from_name(self.aggregator, self.beta)
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
    return GlmParams(gamma=config.gamma, alpha=config.alpha, p=config.p,
                     link=link_from_name(config.link), n=config.n, d=config.d)


# --------------------------------------------------------------------------
# theory traces
# --------------------------------------------------------------------------

def se_states(config: ExperimentConfig) -> Tuple[List, Tuple]:
    """(states 1..T, schedule) of the configured run's state evolution.

    State 1 is the model's state after the identity first step.  Step t + 1
    applies the model's SE step with the aggregator for state t: matched to
    its channel for "opt", the configured constant one otherwise.  The
    schedule is the aggregator tuple of the empirical run, identity first.
    """
    params = build_params(config)
    if config.model == "gmm":
        init, step, matched = se_init_gmm, se_step_gmm, OptimalGmm.from_se_state
    else:
        init, step, matched = se_init_glm, se_step_glm_generic, optimal_aggregator_for_state
    constant = aggregator_from_name(config.aggregator, config.beta)
    states = [init(params)]
    schedule = [IdentityAggregator()]
    for _ in range(config.iterations - 1):
        agg = matched(states[-1], params) if constant is None else constant
        states.append(step(states[-1], agg, params))
        schedule.append(agg)
    return states, tuple(schedule)


def se_trace(config: ExperimentConfig) -> Tuple[List[Tuple[int, float, float]], Tuple]:
    """((t, eta_t, predicted error) rows, schedule) of :func:`se_states`."""
    states, schedule = se_states(config)
    params = build_params(config)
    error = se_error_gmm if config.model == "gmm" else se_error_glm
    return [(t, s.eta, error(s.eta, params)) for t, s in enumerate(states, 1)], schedule


def se_rows(config: ExperimentConfig, variant: str) -> List[Tuple[int, float, float]]:
    """(t, eta_t, predicted error) rows of a variant for T steps.

    An aggregator name gives that aggregator's :func:`se_trace`; a sharp-limit
    map (mixture only) is iterated from the state after the first step.
    """
    if variant in AGGREGATORS:
        return se_trace(dataclasses.replace(config, aggregator=variant))[0]
    if config.model != "gmm":
        raise ConfigError(f"the {variant} map is defined for the gmm model")
    params = build_params(config)
    trace = cobweb_trace(SeMapSpec(variant, params), se_init_gmm(params).eta ** 2,
                         config.iterations)
    return [(t, math.sqrt(u), se_error_gmm(math.sqrt(u), params))
            for t, (u, _fu) in enumerate(trace.points, 1)]


# --------------------------------------------------------------------------
# replications
# --------------------------------------------------------------------------

def replication_data(config: ExperimentConfig, rep: int):
    """(dataset, evaluate) of replication rep: the configured model's dataset
    drawn from stream (master_seed, rep) and its model-vector scorer."""
    params = build_params(config)
    rng = RngStream(config.master_seed, rep)
    if config.model == "gmm":
        data = sample_gmm_dataset(params, rng)
        return data, gmm_evaluator(data)
    data = sample_glm_dataset(params, rng)
    return data, glm_evaluator(data, params)


def run_replication(config: ExperimentConfig, rep: int, schedule: Tuple) -> Trajectory:
    """One full retraining run of the schedule on :func:`replication_data`.

    Point t=0 is the one-shot baseline X^T y_noisy / scale^2.  The identity
    first step computes w_1 = X^T y_noisy / scale, so the baseline is
    w_1 / scale: it shares step 1's error and overlap (both scale-invariant)
    and its norm is step 1's over the scale.  A run that diverges at step 1
    has no t=0 point.
    """
    data, evaluate = replication_data(config, rep)
    traj = run_retraining(data, schedule, evaluate)
    baseline = [dataclasses.replace(pt, t=0, model_norm=pt.model_norm / data.scale)
                for pt in traj.points[:1]]
    return dataclasses.replace(traj, points=baseline + traj.points)


@dataclass(frozen=True)
class SimulationResult:
    config: ExperimentConfig
    se_rows: List[Tuple[int, float, float]]
    report_rows: List[Tuple[int, float, float, float, float, int]]
    replications: List[Trajectory]   # indexed by replication


def _free_bytes() -> int:
    """Physical memory not in use (free pages, page cache not counted)."""
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def simulate(config: ExperimentConfig, jobs: Optional[int] = None) -> SimulationResult:
    """Replicated runs plus the matching theory trace and gap report.

    At most ``jobs`` processes run the replications, and never more than
    min(usable CPUs, replications, free memory // (2 * 4*n*d)), at least 1:
    each worker holds one float32 X of 4*n*d bytes, and the factor 2 leaves
    as much again for everything else.  None asks for that bound; one worker
    runs the replications in this process.

    The schedule is built once and handed to every replication (its
    aggregators are frozen dataclasses, so it pickles into pool workers).
    Results are keyed by replication index and merged in order, so the output
    is identical for any job count.
    """
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    params, cpus = build_params(config), _usable_cpus()
    # a pool forks all its workers at start-up, so never more than there is work,
    # cores or memory for
    workers = min(jobs or cpus, cpus, config.replications,
                  max(1, _free_bytes() // (8 * params.n * params.d)))
    se_rows, schedule = se_trace(config)
    reps_idx = range(config.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(run_replication, [config] * len(reps_idx), reps_idx,
                                 [schedule] * len(reps_idx)))
    else:
        reps = [run_replication(config, rep, schedule) for rep in reps_idx]

    predicted = {t: err for (t, _eta, err) in se_rows}
    predicted[0] = predicted[1]  # the t=0 baseline shares the first iterate's law
    report = []
    for t in range(0, config.iterations + 1):
        errs = [pt.error for traj in reps for pt in traj.points if pt.t == t]
        if errs:
            mean = float(np.mean(errs))
            report.append((t, predicted[t], mean, float(np.std(errs)), abs(predicted[t] - mean),
                           len(errs)))
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
    traj_rows = [(rep, "ok" if traj.diverged_at is None else f"diverged@{traj.diverged_at}",
                  pt.t, pt.error, pt.overlap, pt.model_norm)
                 for rep, traj in enumerate(result.replications) for pt in traj.points]
    write_table(paths["trajectories"], meta,
                ["rep", "status", "t", "error", "overlap", "model_norm"], traj_rows)
    write_table(paths["se"], meta, ["t", "eta", "predicted_error"], result.se_rows)
    paths["config"].write_text(json.dumps(result.config.to_dict(), sort_keys=True, indent=2) + "\n")
    return paths


def cobweb_rows(config: ExperimentConfig, u1: float, steps: int,
                variant: str) -> List[Tuple[str, float, float]]:
    """(kind, x, y) rows: the sampled map, the diagonal, and the iterate trace.

    The mixture has the map of every variant (:class:`SeMapSpec`); the GLM
    has the optimal map only.  Both maps take arrays, so the whole grid is one
    map call, and the trace one call per step.
    """
    params = build_params(config)
    if config.model == "gmm":
        fmap = SeMapSpec(variant=variant, params=params, beta=config.beta)
    elif variant == "opt":
        def fmap(u):   # the eta map in u = eta^2, squared as a float is (C pow)
            return _square(se_step_glm_opt(np.sqrt(u), params), "eta")
    else:
        raise ConfigError(f"the glm cobweb has the opt map only, not {variant}")
    trace = cobweb_trace(fmap, u1, steps)
    top = max((u for (u, fu) in trace.points), default=1.0)
    top = max(top, u1, 1.0) * 1.2
    grid = np.linspace(0.0 if config.model == "gmm" else max(1e-6, u1 * 1e-3), top, 200)
    rows = [("map", float(u), float(fu)) for u, fu in zip(grid, fmap(grid))]
    rows += [("diagonal", float(u), float(u)) for u in grid]
    rows += [("trace", float(u), float(fu)) for (u, fu) in trace.points]
    return rows


def crossover_rows(gamma: float, alpha: float, p_list: List[float],
                   pi_plus: float = 0.5) -> List[Tuple]:
    """(p, u_star, residual, n_crossings) per noise level; NaN when none found."""
    rows = []
    for p in p_list:
        params = GmmParams(gamma=gamma, alpha=alpha, p=p, pi_plus=pi_plus)
        roots = find_crossover(params)
        if roots:
            u = roots[0]
            resid = eta_map_ct(u, params) - eta_map_ft(u, params)
            rows.append((p, u, resid, len(roots)))
        else:
            rows.append((p, float("nan"), float("nan"), 0))
    return rows
