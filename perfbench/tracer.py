"""Span tracer for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules (and
the ``value`` method of every aggregator class) with a wrapper that records a
span: name, start, end, parent span, and the pass it belongs to.  A function
is replaced in every ``amp_retrain`` module namespace that holds it, so a
name imported with ``from .gmm import sample_gmm_dataset`` is traced too.
``uninstall`` puts the originals back, so untraced passes run the plain code.

Spans stay in memory.  Forked pool workers leave through ``os._exit`` and
never run ``atexit`` handlers, so a worker appends its spans to a file in
``span_dir`` each time its outermost traced call returns; the parent reads
those files after the pass.  Span ids are ``(pid, counter)`` pairs and times
are ``time.perf_counter_ns`` (CLOCK_MONOTONIC, shared by all processes), so
worker spans nest under the parent's ``harness.simulate`` span.

``pass_metrics`` reduces one pass's spans to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

LAYERS = ("numerics", "gmm", "glm", "gmm_se", "glm_se", "bayesmix", "harness",
          "datafiles", "cli")
AGGREGATOR_MODULES = ("gmm", "glm")

# spans counted under one metric name
GROUPS = {
    "gmm_se.eta_map_opt": "gmm_se.eta_map",
    "gmm_se.eta_map_ft": "gmm_se.eta_map",
    "gmm_se.eta_map_ct": "gmm_se.eta_map",
}

CLI_COMMANDS = ("simulate", "se", "cobweb", "crossover", "bayesmix")


class Span(NamedTuple):
    sid: Tuple[int, int]
    parent: Optional[Tuple[int, int]]
    name: str
    start: int
    end: int
    pass_id: Optional[str]
    info: Optional[dict]


# --------------------------------------------------------------------------
# per-call counts computed from argument and result sizes (never timed)
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _arguments(fn, args, kwargs) -> Dict[str, object]:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dataset_bytes(fn, args, kwargs, result):
    return {"bytes": sum(v.nbytes for v in vars(result).values()
                         if isinstance(v, np.ndarray))}


def _amp_step_glm(fn, args, kwargs, result):
    data = _arguments(fn, args, kwargs)["data"]
    return {"matvec_bytes": 2 * data.X.nbytes}   # X^T g and X beta


def _aggregator_value(fn, args, kwargs, result):
    _self, points, _labels = _arguments(fn, args, kwargs).values()
    return {"elements": int(np.size(points))}


def _posterior_mean_latent(fn, args, kwargs, result):
    arguments = _arguments(fn, args, kwargs)
    # one Hermite rule, or one Legendre rule per piece between jumps
    pieces = len(arguments["link"].discontinuities) + 1
    return {"node_evals": int(np.size(arguments["u"])) * arguments["order"] * pieces}


def _fit_bimodal_em(fn, args, kwargs, result):
    return {"em_iterations": int(result.iterations)}


def _write_table(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_arguments(fn, args, kwargs)["path"])}


def _cli_main(fn, args, kwargs, result):
    argv = _arguments(fn, args, kwargs)["argv"]
    return {"command": (sys.argv[1:] if argv is None else argv)[0]}


EXTRAS: Dict[str, Callable] = {
    "gmm.sample_gmm_dataset": _dataset_bytes,
    "glm.sample_glm_dataset": _dataset_bytes,
    "glm.amp_step_glm": _amp_step_glm,
    "glm.posterior_mean_latent": _posterior_mean_latent,
    "bayesmix.fit_bimodal_em": _fit_bimodal_em,
    "datafiles.write_table": _write_table,
    "cli.main": _cli_main,
}


def _is_traceable(obj, module_name: str) -> bool:
    plain = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return plain and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Records spans around the package's public calls while installed."""

    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[Span] = []
        self.stack: List[Tuple[Tuple[int, int], str]] = []
        self.remote_parent: Optional[Tuple[int, int]] = None
        self.pass_id: Optional[str] = None
        self._counter = 0
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # ---------------------------------------------------------------- spans

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self.pid = os.getpid()
        self.remote_parent = self.stack[-1][0] if self.stack else None
        self.stack = []
        self.spans = []

    def _aggregator_name(self, default_layer: str) -> str:
        # attributed to the model family whose step or SE map is running
        for _sid, name in reversed(self.stack):
            layer = name.split(".", 1)[0]
            if layer in ("gmm", "gmm_se"):
                return "gmm.aggregator.value"
            if layer in ("glm", "glm_se"):
                return "glm.aggregator.value"
        return f"{default_layer}.aggregator.value"

    def _wrap(self, name, fn, info_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(tracer) if callable(name) else name
            parent = tracer.stack[-1][0] if tracer.stack else tracer.remote_parent
            sid = (tracer.pid, tracer._counter)
            tracer._counter += 1
            tracer.stack.append((sid, span_name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(Span(sid, parent, span_name, start,
                                   time.perf_counter_ns(), tracer.pass_id, None))
                raise
            end = time.perf_counter_ns()
            info = info_fn(fn, args, kwargs, result) if info_fn is not None else None
            tracer._close(Span(sid, parent, span_name, start, end, tracer.pass_id, info))
            return result

        return traced

    def _close(self, span: Span) -> None:
        self.stack.pop()
        self.spans.append(span)
        if not self.stack and self.pid != self.main_pid:
            self._hand_back()

    def _hand_back(self) -> None:
        """Worker side: append this process's spans to its span file."""
        with open(self.span_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """Main side: this process's spans plus every worker's, then reset."""
        spans, self.spans = self.spans, []
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                sid, parent, name, start, end, pass_id, info = json.loads(line)
                spans.append(Span(tuple(sid), tuple(parent) if parent else None,
                                  name, start, end, pass_id, info))
            path.unlink()
        return spans

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "amp_retrain" or name.startswith("amp_retrain.")]
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"amp_retrain.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                name = f"{layer}.{attr}"
                replacements[id(obj)] = (obj, self._wrap(name, obj, EXTRAS.get(name)))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._patch(namespace, attr, replacements[id(obj)][1])
        for layer in AGGREGATOR_MODULES:
            module = importlib.import_module(f"amp_retrain.{layer}")
            for obj in vars(module).values():
                if (inspect.isclass(obj) and obj.__module__ == module.__name__
                        and inspect.isfunction(obj.__dict__.get("value"))):
                    namer = functools.partial(Tracer._aggregator_name, default_layer=layer)
                    self._patch(obj, "value",
                                self._wrap(namer, obj.__dict__["value"], _aggregator_value))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# --------------------------------------------------------------------------
# reduction to per-layer metrics
# --------------------------------------------------------------------------

def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(span: Span, children: List[Span]) -> int:
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.end - span.start - _covered([iv for iv in clipped if iv[1] > iv[0]])


def pass_metrics(spans: List[Span], main_pid: int, jobs: int, pass_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``.s`` is busy time: the summed duration of a name's outermost spans
    (a call nested in a call of the same name is not counted twice), summed
    over processes.  ``.self_s`` subtracts the part of each span covered by
    its child spans, in any process.  Counts come from the spans' infos.
    ``trace.accounted_fraction`` is the share of the pass's wall time that
    the layers below ``cli.main`` account for, in the main process or in pool
    workers.
    """
    by_id = {s.sid: s for s in spans}
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)

    def group(name: str) -> str:
        return GROUPS.get(name, name)

    def ancestors(s: Span):
        parent = by_id.get(s.parent)
        while parent is not None:
            yield parent
            parent = by_id.get(parent.parent)

    calls = defaultdict(int)
    busy = defaultdict(int)
    self_ns = defaultdict(int)
    info_sum = defaultdict(int)
    cli_ns = defaultdict(int)
    evals_in_steps = 0
    layer_self = 0   # main-process self time of the layers below the entry point
    for s in spans:
        g = group(s.name)
        calls[g] += 1
        own = _self_time(s, children[s.sid])
        self_ns[g] += own
        if s.sid[0] == main_pid and s.name != "cli.main":
            layer_self += own
        anc = list(ancestors(s))
        if all(group(a.name) != g for a in anc):
            busy[g] += s.end - s.start
        for key, value in (s.info or {}).items():
            if key == "command":
                cli_ns[value] += s.end - s.start
            else:
                info_sum[f"{g}:{key}"] += value
        if g == "glm.aggregator.value" and any(a.name == "glm.amp_step_glm" for a in anc):
            evals_in_steps += 1

    worker_roots = [s for s in spans if s.sid[0] != main_pid
                    and (s.parent is None or s.parent[0] == main_pid)]
    worker_busy = sum(s.end - s.start for s in worker_roots) / 1e9
    pooled = {s.parent for s in worker_roots}
    pool_wall = sum(by_id[p].end - by_id[p].start for p in pooled if p in by_id) / 1e9
    worker_cover = _covered([(max(s.start, by_id[s.parent].start), min(s.end, by_id[s.parent].end))
                             for s in worker_roots if s.parent in by_id])

    def sec(table, name):
        return table.get(name, 0) / 1e9

    m: Dict[str, float] = {}
    for name in ("numerics.find_root_bisect", "numerics.expect_std_normal_split"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = sec(busy, name)
    for family in ("gmm", "glm"):
        sample = f"{family}.sample_{family}_dataset"
        step = f"{family}.amp_step_{family}"
        m[f"{sample}.s"] = sec(busy, sample)
        m[f"{sample}.calls"] = calls[sample]
        m[f"{family}.sample.bytes_computed"] = info_sum[f"{sample}:bytes"]
        m[f"{step}.s"] = sec(busy, step)
        m[f"{step}.self_s"] = sec(self_ns, step)
        m[f"{step}.calls"] = calls[step]
        m[f"{family}.aggregator.value.s"] = sec(busy, f"{family}.aggregator.value")
        m[f"{family}.aggregator.value.calls"] = calls[f"{family}.aggregator.value"]
    m["gmm.onsager_coefficient.s"] = sec(busy, "gmm.onsager_coefficient")
    m["gmm.test_error_gmm.s"] = sec(busy, "gmm.test_error_gmm")
    matvec_bytes = info_sum["glm.amp_step_glm:matvec_bytes"]
    m["glm.matvec.bytes_computed"] = matvec_bytes
    step_self = sec(self_ns, "glm.amp_step_glm")
    m["glm.matvec.gbps_computed"] = matvec_bytes / step_self / 1e9 if step_self else 0.0
    m["glm.aggregator.value.elements"] = info_sum["glm.aggregator.value:elements"]
    steps = calls["glm.amp_step_glm"]
    m["glm.aggregator.evals_per_step"] = evals_in_steps / steps if steps else 0.0
    for name in ("glm.posterior_mean_latent", "glm.onsager_coefficient_glm"):
        m[f"{name}.s"] = sec(busy, name)
        m[f"{name}.calls"] = calls[name]
    m["glm.posterior_mean_latent.node_evals_computed"] = info_sum[
        "glm.posterior_mean_latent:node_evals"]
    m["glm.test_error_glm.s"] = sec(busy, "glm.test_error_glm")
    for name in ("gmm_se.se_step_gmm", "gmm_se.eta_map", "glm_se.se_step_glm_generic",
                 "glm_se.se_step_glm_opt"):
        m[f"{name}.s"] = sec(busy, name)
        m[f"{name}.calls"] = calls[name]
    for name in ("gmm_se.find_fixed_points", "gmm_se.find_crossover", "gmm_se.cobweb_trace",
                 "bayesmix.fit_bimodal_em", "bayesmix.bayesmix_aggregate",
                 "harness.se_trace", "harness.run_replication",
                 "harness.write_simulation_outputs", "datafiles.write_table"):
        m[f"{name}.s"] = sec(busy, name)
    m["bayesmix.em_iterations"] = info_sum["bayesmix.fit_bimodal_em:em_iterations"]
    m["harness.se_trace.calls"] = calls["harness.se_trace"]
    m["harness.run_replication.self_s"] = sec(self_ns, "harness.run_replication")
    m["harness.run_replication.calls"] = calls["harness.run_replication"]
    m["harness.simulate.self_s"] = sec(self_ns, "harness.simulate")
    m["harness.pool.worker_busy_s"] = worker_busy
    m["harness.pool.efficiency"] = worker_busy / (jobs * pool_wall) if pool_wall else 0.0
    m["datafiles.write_table.calls"] = calls["datafiles.write_table"]
    m["datafiles.bytes_written"] = info_sum["datafiles.write_table:bytes"]
    m["cli.main.self_s"] = sec(self_ns, "cli.main")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = sec(cli_ns, command)
    # the rest of the pass is cli.main's own time and time outside any span
    m["trace.accounted_fraction"] = (layer_self + worker_cover) / 1e9 / pass_wall
    return m


def write_spans(path, spans: List[Span]) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": "%d:%d" % s.sid,
                                 "parent": "%d:%d" % s.parent if s.parent else None,
                                 "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                 "pass": s.pass_id, "info": s.info}) + "\n")
