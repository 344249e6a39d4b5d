"""One workload in a fresh process: warm-up, then timed or traced passes.

``run.py`` starts this script from the root of a checkout; it imports the
package from ``src/`` there.  BLAS is pinned to one thread before numpy is
imported.  The result record (JSON) goes to ``<run-dir>/session.json``.

    python3 perfbench/session.py --workload NAME --seed N --seconds S \
        --trace 0|1 --run-dir DIR [--size full|smoke] [--reference]
    python3 perfbench/session.py --probe --workload NAME --seed N --run-dir DIR

``--trace 0`` repeats timed passes until ``--seconds`` have passed
(at least two), timing a speed probe between their operations.
``--trace 1`` alternates an untraced and a traced pass, at least two pairs:
the untraced ones give the process counters and the tracing overhead, the
traced ones the spans.  ``--reference`` runs a single
pass (the tables other workloads must match).  ``--probe`` is one set-up:
in this fresh interpreter it imports ``amp_retrain.cli`` and runs one pass of
the workload at the smoke size, which pays the first-call costs (lazy
imports, quadrature rules, pool start-up), and prints the time both took.
"""

import os

from workloads import BLAS_THREADS, WORKLOADS, fixed_point_spec

os.environ.update(BLAS_THREADS)   # before anything imports numpy

import argparse
import contextlib
import hashlib
import io
import json
import mmap
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 2
SETUP_PROBES = 5
ACCOUNTING_TOLERANCE = 0.05   # at most 5% of a traced pass outside the layers below cli.main
FIXED_POINT_U_MAX = 8.0       # as scripts/se_map_comparison.py scans
# Speed probes: fixed work, independent of the package, timed around each
# set-up and each operation of a timed pass.  The shared host this benchmark
# was tuned on runs 30-40% slower for stretches of a second to minutes, CPU
# time included.  The probe a workload names slows with it as its passes
# do; a time measured while the probe took t seconds is scaled by
# reference / t, the reference being about the probe's time on that machine
# (2-vCPU KVM guest, Xeon).
SPEED_REPEATS = 5             # a probe's median timing ignores a lone interruption


def _median_time(work):
    times = []
    for _ in range(SPEED_REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def python_probe():
    """A pure-Python loop: interpreter speed."""
    def loop():
        total = 0
        for i in range(60_000):
            total += i * i
    return _median_time(loop)


def matvec_probe():
    """Products with a 16-MB matrix, filled untimed.  Its memory is mapped
    here and unmapped after, not taken from the allocator the package uses,
    so the probe leaves that allocator's state and a pass's peak RSS alone."""
    import numpy as np

    rows, cols = 2000, 1000
    with mmap.mmap(-1, rows * cols * 8) as buffer:
        a = np.frombuffer(buffer, dtype=np.float64).reshape(rows, cols)
        a.fill(0.5)
        v = np.full(cols, 0.5)
        seconds = _median_time(lambda: a.T @ (a @ v))
        del a
    return seconds


SPEED_PROBES = {"python": (python_probe, 0.004), "matvec": (matvec_probe, 0.0013)}


def speed_scale(probe, before, after):
    """The factor that brings a time measured between the two probe
    timings to the reference speed."""
    return 2.0 * SPEED_PROBES[probe][1] / (before + after)


def import_cli():
    """Import the CLI from this checkout's src/ and return (module, seconds)."""
    start = time.perf_counter()
    import amp_retrain.cli as cli
    elapsed = time.perf_counter() - start
    source = Path(cli.__file__).resolve()
    if (ROOT / "src").resolve() not in source.parents:
        raise SystemExit(f"amp_retrain imported from {source}, not from {ROOT / 'src'}")
    return cli, elapsed


def usage():
    """(cpu seconds, minor faults, involuntary switches), self plus children."""
    total = [0.0, 0, 0]
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total[0] += ru.ru_utime + ru.ru_stime
        total[1] += ru.ru_minflt
        total[2] += ru.ru_nivcsw
    return total


class Session:
    def __init__(self, workload, seed, size, run_dir):
        self.cli, self.import_s = import_cli()
        from amp_retrain import gmm_se, numerics

        self.gmm_se, self.numerics = gmm_se, numerics
        self.ops = workload.ops(seed, size)
        self.run_dir = run_dir
        self.passes = []

    def run_ops(self, pass_dir, probe=None):
        """The timed region: every operation of one pass, outputs not yet checked.

        With a ``probe`` name, that speed probe also runs before the first
        operation and after each one; ``scale`` maps each operation to the
        factor that brings its time to the reference speed (else 1).  The
        wall time is the operations' summed time, without the probes.
        """
        sink = io.StringIO()
        codes, op_s, scale, fixed = {}, {}, {}, None
        measure = SPEED_PROBES[probe][0] if probe else None
        last = measure() if probe else None
        for op in self.ops:
            t = time.perf_counter()
            try:
                if op.argv is None:
                    fixed = self.gmm_se.find_fixed_points(fixed_point_spec(),
                                                          u_max=FIXED_POINT_U_MAX)
                else:
                    with contextlib.redirect_stdout(sink):
                        codes[op.name] = self.cli.main([*op.argv, "--out",
                                                        str(pass_dir / op.name)])
            except Exception:   # one failed operation must not stop the run
                traceback.print_exc()
                codes[op.name] = None
            op_s[op.name] = time.perf_counter() - t
            scale[op.name] = 1.0
            if probe:
                now = measure()
                scale[op.name] = speed_scale(probe, last, now)
                last = now
        return sum(op_s.values()), op_s, scale, codes, fixed

    def run_pass(self, label, tracer=None, probe=None):
        import checks

        pass_dir = self.run_dir / label
        before = usage()
        if tracer is not None:
            tracer.pass_id = label
            tracer.install()
        try:
            wall, op_s, scale, codes, fixed = self.run_ops(pass_dir, probe)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = usage()
        record = {"label": label, "traced": tracer is not None, "wall_s": wall,
                  "op_s": op_s, "op_scale": scale,
                  "scaled_wall_s": sum(op_s[name] * scale[name] for name in op_s),
                  "cpu_s": after[0] - before[0],
                  "minflt": after[1] - before[1], "nivcsw": after[2] - before[2],
                  "attempted": 0, "failed": 0, "problems": [], "digests": {}}
        for op in self.ops:
            out = pass_dir / op.name
            if op.argv is None:
                check = checks.check_fixed_points(fixed)
                digest = {"fixed_points": hashlib.sha256(repr(fixed).encode()).hexdigest()}
            elif op.replications:
                check = checks.check_simulate(out, codes[op.name], op.replications)
                digest = checks.digests(out) if out.is_dir() else {}
            else:
                check = checks.check_command(op.argv[0], out, codes[op.name])
                digest = checks.digests(out) if out.is_dir() else {}
            first = self.passes[0]["digests"].get(op.name) if self.passes else None
            if first is not None and digest != first:
                check.problems.append(f"{op.name}: tables differ from the first pass")
                check.failed = check.attempted
            record["attempted"] += check.attempted
            record["failed"] += check.failed
            record["problems"] += [f"{label}: {p}" for p in check.problems]
            record["digests"][op.name] = digest
        self.passes.append(record)
        return record

    def rule_cache_misses(self):
        return sum(rule.cache_info().misses
                   for rule in (self.numerics.gauss_hermite, self.numerics.gauss_legendre))


def probe_setup(workload, seed, run_dir):
    """One set-up in a fresh interpreter: import plus a first smoke-size pass."""
    out = subprocess.run([sys.executable, __file__, "--probe", "--workload", workload,
                          "--seed", str(seed), "--run-dir", str(run_dir)], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, check=True, timeout=60).stdout
    return float(out.split()[-1])


def run_timed(session, seconds, workload, seed):
    """Timed passes for ``seconds`` (at least MIN_PASSES), with the set-up
    probes spread over the same interval so they sample the same machine load.

    ``wall_s``, ``setup_s`` and ``reps_per_s`` (record only) are medians of
    times scaled to the reference speed: operations by the workload's speed
    probe, set-ups (an import and a smoke-size pass, interpreter work) by the
    Python probe.  Every sample, raw and scaled, goes to the record.
    """
    start = time.perf_counter()
    timed, setup, raw_setup = [], [], []
    probe_dir = session.run_dir / "probe"

    def set_up():
        before = python_probe()
        raw = probe_setup(workload.name, seed, probe_dir)
        raw_setup.append(raw)
        setup.append(raw * speed_scale("python", before, python_probe()))

    while len(timed) < MIN_PASSES or time.perf_counter() - start < seconds:
        timed.append(session.run_pass(f"timed-{len(timed)}", probe=workload.speed_probe))
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            set_up()
    while len(setup) < SETUP_PROBES:
        set_up()
    sim = next(op for op in session.ops if op.replications)
    walls = [p["scaled_wall_s"] for p in timed]
    sim_s = [p["op_s"][sim.name] * p["op_scale"][sim.name] for p in timed]
    return {
        "wall_s": statistics.median(walls),
        "reps_per_s": sim.replications / statistics.median(sim_s),
        "setup_s": statistics.median(setup),
        "samples": {"wall_s": walls, "setup_s": setup,
                    "raw_wall_s": [p["wall_s"] for p in timed], "raw_setup_s": raw_setup},
    }


def probe(workload, seed, run_dir):
    """The ``--probe`` process: time import plus one smoke-size pass."""
    session = Session(workload, seed, "smoke", run_dir)
    wall, _op_s, _scale, codes, _fixed = session.run_ops(run_dir)
    failed = sorted(name for name, code in codes.items() if code != 0)
    if failed:
        raise SystemExit(f"set-up probe: {failed} failed")
    return session.import_s + wall


def run_traced(session, seconds, jobs):
    import metrics
    from tracer import Tracer, pass_metrics, write_spans

    tracer = Tracer(session.run_dir / "worker-spans")
    start = time.perf_counter()
    plain, traced, per_pass, spans = [], [], [], []
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(session.run_pass(f"untraced-{len(plain)}"))
        traced.append(session.run_pass(f"traced-{len(traced)}", tracer))
        pass_spans = tracer.collect()
        spans += pass_spans
        per_pass.append(pass_metrics(pass_spans, os.getpid(), jobs, traced[-1]["wall_s"]))
    write_spans(session.run_dir / "spans.jsonl", spans)

    problems = []
    layer = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        exact = metrics.PER_LAYER.get(name) in metrics.EXACT_UNITS
        if exact and len(set(values)) != 1:
            problems.append(f"count {name} differs between traced passes: {values}")
        layer[name] = values[0] if exact else statistics.median(values)
    for fraction in (m["trace.accounted_fraction"] for m in per_pass):
        if not 1.0 - ACCOUNTING_TOLERANCE <= fraction <= 1.0 + 1e-9:
            problems.append(f"layer spans below cli.main cover {fraction:.4f} of the traced "
                            f"pass, outside [1 - {ACCOUNTING_TOLERANCE}, 1]")
    layer.update({
        "proc.cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "proc.cpu_util": statistics.median(p["cpu_s"] / p["wall_s"] for p in plain),
        "proc.minflt": statistics.median(p["minflt"] for p in plain),
        "proc.nivcsw": statistics.median(p["nivcsw"] for p in plain),
        # adjacent passes share the machine's load, so pair them
        "trace.overhead_s": statistics.median(t["wall_s"] - p["wall_s"]
                                              for p, t in zip(plain, traced)),
    })
    return {"layer": layer,
            "samples": {"traced_wall_s": [p["wall_s"] for p in traced],
                        "untraced_wall_s": [p["wall_s"] for p in plain]},
            "spans": len(spans), "problems": problems}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.run_dir.mkdir(parents=True, exist_ok=True)
    if args.probe:
        print(repr(probe(workload, args.seed, args.run_dir)))
        return 0

    from machine import library_record

    session = Session(workload, args.seed, args.size, args.run_dir)
    record = {"workload": workload.name, "seed": args.seed, "size": args.size,
              "trace": args.trace, "blas_threads": BLAS_THREADS,
              "import_s": session.import_s, "libraries": library_record(),
              "ops": [list(op.argv) if op.argv else ["find_fixed_points"]
                      for op in session.ops]}
    if args.reference:
        session.run_pass("reference")
    else:
        session.run_pass("warmup")
        record["rule_cache_misses"] = session.rule_cache_misses()
        if args.trace:
            record.update(run_traced(session, args.seconds, workload.jobs))
            record["layer"]["numerics.rule_cache.misses"] = record["rule_cache_misses"]
        else:
            record.update(run_timed(session, args.seconds, workload, args.seed))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = max(self_rss, child_rss) / 1024.0
    record["passes"] = session.passes
    record["attempted"] = sum(p["attempted"] for p in session.passes)
    record["failed"] = sum(p["failed"] for p in session.passes)
    record.setdefault("problems", [])
    record["problems"] += [msg for p in session.passes for msg in p["problems"]]
    (args.run_dir / "session.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
