"""Benchmark of the amp-retrain CLI; run it from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One workload run starts ``perfbench/session.py`` in a fresh process, which
imports the package from ``src/``, makes one untimed warm-up pass and then
timed (``--trace 0``, with fresh-interpreter imports of ``amp_retrain.cli``
spread among them for ``setup_s``, times scaled to a reference machine
speed by a speed probe) or alternating untraced/traced (``--trace 1``)
passes, checking every pass's outputs.  ``sim_sign_j2`` also runs one
``--jobs 1`` pass in another process and requires byte-identical
``report.tsv`` and ``trajectories.tsv``.  The full record (machine, versions, arguments,
digests, problems) goes to ``.perfbench_runs/<workload>-.../record.json``;
the last line printed is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/metrics.py``).  ``--all`` runs every workload and
prints a table; ``--smoke`` runs every workload at a small size in both
modes and checks metric names, units and outputs against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from machine import git_commit, machine_record  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import BLAS_THREADS, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0          # a run must end within 180 s
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
RUNS_DIR = ".perfbench_runs"
IDENTICAL_TABLES = ("report.tsv", "trajectories.tsv")


class RunError(Exception):
    """The run could not produce a result."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _run_child(cmd, root: Path, deadline: float) -> str:
    """Run cmd in its own process group; kill the group if the deadline passes."""
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"{' '.join(cmd[1:])} did not finish before the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return out


def _session(root, deadline, run_dir, *args) -> dict:
    _run_child([sys.executable, str(HERE / "session.py"), "--run-dir", str(run_dir), *args],
               root, deadline)
    return json.loads((run_dir / "session.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str = "full"):
    """One benchmark run; returns (result line, full record)."""
    root = Path.cwd()
    if not (root / "src" / "amp_retrain" / "cli.py").is_file():
        raise RunError(f"no src/amp_retrain/cli.py under {root}: run from a checkout's root")
    workload = WORKLOADS[name]
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = root / RUNS_DIR / f"{name}-{size}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    rec = _session(root, deadline, run_dir / "session", "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--size", size)
    attempted, failed, problems = rec["attempted"], rec["failed"], list(rec["problems"])
    if workload.reference:
        ref = _session(root, deadline, run_dir / "reference", "--workload", workload.reference,
                       "--seed", str(seed), "--size", size, "--reference")
        ref_failed = ref["failed"]
        mine = rec["passes"][0]["digests"]["simulate"]
        theirs = ref["passes"][0]["digests"]["simulate"]
        for table in IDENTICAL_TABLES:
            if table not in mine or mine.get(table) != theirs.get(table):
                problems.append(f"{table} differs from the {workload.reference} tables")
                ref_failed = ref["attempted"]
        attempted += ref["attempted"]
        failed += ref_failed
        problems += ref["problems"]

    if trace:
        values = dict(rec["layer"], fail_ratio=failed / attempted)
        spec = PER_LAYER
    else:
        values = {"setup_s": rec["setup_s"], "wall_s": rec["wall_s"],
                  "peak_rss_mb": rec["peak_rss_mb"], "ok_ratio": 1.0 - failed / attempted}
        spec = END_TO_END
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {m: {"value": values[m], "unit": unit} for m, unit in spec.items()}}
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "commands": rec["ops"], "jobs": workload.jobs,
        "git_commit": git_commit(root), "machine": machine_record(),
        "libraries": rec["libraries"], "blas_threads": rec["blas_threads"],
        "reps_per_s": rec.get("reps_per_s"), "samples": rec["samples"],
        "spans": rec.get("spans"),
        "digests": rec["passes"][0]["digests"], "problems": problems, "result": result,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def _print_result(result, record) -> None:
    samples = record["samples"]
    count = len(samples.get("wall_s") or samples["traced_wall_s"])
    for name, metric in result["metrics"].items():
        n = len(samples["setup_s"]) if name == "setup_s" else count
        print(f"{record['workload']:16s} {name:48s} {metric['value']:14.6g} "
              f"{metric['unit']:10s} n={n}")
    for name, series in samples.items():
        unit = " s" if name.endswith("_s") else ""
        print(f"{record['workload']:16s} {name + ' samples':48s} min={min(series):.4g} "
              f"median={statistics.median(series):.4g} max={max(series):.4g}{unit}")
    for problem in record["problems"]:
        print(f"{record['workload']:16s} PROBLEM {problem}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    ok = True
    for name in WORKLOADS:
        result, record = run_workload(name, seed, seconds, trace)
        _print_result(result, record)
        if not trace:
            if name.startswith("sim_"):
                print(f"{name:16s} {'reps_per_s':48s} {record['reps_per_s']:14.6g} "
                      f"{'1/s':10s} n={len(record['samples']['wall_s'])}")
            fail_ratio = result["failed"] / result["attempted"]
            print(f"{name:16s} {'fail_ratio':48s} {fail_ratio:14.6g} {'ratio':10s} "
                  f"n={result['attempted']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def smoke() -> int:
    """Every workload once at a small size, both modes, against BENCHMARK.json."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = []
    if expected[0] != END_TO_END or expected[1] != PER_LAYER:
        failures.append(("BENCHMARK.json", "metric names or units differ from metrics.py"))
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, 0, 0.0, trace, size="smoke")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            checks = {
                "metric names and units": got == expected[trace],
                "output checks": result["correct"],
                "fail_ratio is 0": result["failed"] == 0,
            }
            for what, passed in checks.items():
                print(f"smoke {name:16s} trace={trace} {what:24s} "
                      f"{'ok' if passed else 'FAILED'}")
                if not passed:
                    failures.append((name, trace, what, record["problems"]))
    for failure in failures:
        print("FAILED", *failure)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="amp-retrain CLI benchmark")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload, print a table")
    mode.add_argument("--smoke", action="store_true", help="small-size self-test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
        if args.smoke:
            return smoke()
        if args.all:
            return run_all(args.seed, args.seconds, args.trace)
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_result(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
