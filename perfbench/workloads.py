"""The benchmark's workloads: which CLI invocations one pass runs.

A pass is a list of operations.  Most are argument vectors for
``amp_retrain.cli.main``; the ``desk`` pass also calls
``find_fixed_points`` directly, the way ``scripts/se_map_comparison.py`` does.
Every argument vector gets the workload seed as ``--seed`` (where the
subcommand takes one) and its own ``--out`` directory; nothing else reaches
the program.

The workload names, sizes and reasons are the interface later changes cite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# every workload process pins BLAS to one thread before numpy is imported
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

GAP_TOLERANCE = 0.02          # acceptance tolerance on |predicted - empirical|
CROSSOVER_EXPECTED = {0.2: 4.32, 0.25: 1.54, 0.3: 0.75}
CROSSOVER_TOLERANCE = 0.05

SIM_SIGN = ["simulate", "--model", "glm", "--link", "sign", "--gamma", "1.0",
            "--alpha", "0.5", "--p", "0.2", "--iterations", "10"]
SIM_LOGISTIC = ["simulate", "--model", "glm", "--link", "logistic", "--gamma", "2.0",
                "--alpha", "0.5", "--p", "0.2", "--iterations", "10"]
GMM_OPT = ["--model", "gmm", "--gamma", "1.5", "--alpha", "2.0", "--p", "0.3",
           "--pi-plus", "0.3"]
GLM_LOGISTIC = ["--model", "glm", "--link", "logistic", "--gamma", "2.0",
                "--alpha", "0.5", "--p", "0.2"]

# (n, d, replications) per size; "smoke" keeps the self-test and the set-up
# probes short.  "desk" is the acc-01 mixture problem; at its 10 replications
# sampling noise alone takes the replication mean past the 0.02 gap check on
# about 3% of seeds, at 30 on none of 200 seeds tried.
SIZES = {
    "full": {"sign": (10000, 5000, 2), "logistic": (4000, 2000, 4), "desk": (1000, 800, 30)},
    "smoke": {"sign": (2000, 1000, 2), "logistic": (2000, 1000, 2), "desk": (1000, 800, 10)},
}


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI call, or the direct fixed-point scan."""

    name: str
    argv: Optional[Tuple[str, ...]] = None   # None: find_fixed_points
    replications: int = 0                    # > 0 for simulate


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int = 1
    reference: Optional[str] = None   # workload whose tables must match byte for byte
    # the speed probe (session.py) whose time tracks this workload's passes
    # as the machine's speed varies: "python" for interpreter-bound work,
    # "matvec" for work bound by large numpy draws and products
    speed_probe: str = "python"

    def ops(self, seed: int, size: str = "full") -> List[Op]:
        seed_args = ("--seed", str(seed))
        if self.name.startswith("sim_"):
            link = "sign" if self.name.startswith("sim_sign") else "logistic"
            n, d, reps = SIZES[size][link]
            base = SIM_SIGN if link == "sign" else SIM_LOGISTIC
            argv = (*base, "--n", str(n), "--d", str(d), "--replications", str(reps),
                    "--jobs", str(self.jobs), *seed_args)
            return [Op("simulate", argv, reps)]
        n, d, reps = SIZES[size]["desk"]
        ops = [
            Op("simulate_gmm", ("simulate", "--model", "gmm", "--gamma", "1.5",
                                "--alpha", "0.8", "--p", "0.4", "--pi-plus", "0.3",
                                "--n", str(n), "--d", str(d), "--iterations", "10",
                                "--replications", str(reps), *seed_args), reps),
            Op("se_gmm", ("se", *GMM_OPT, "--iterations", "12", *seed_args)),
            Op("se_glm", ("se", *GLM_LOGISTIC, "--iterations", "12", *seed_args)),
            Op("cobweb_gmm", ("cobweb", *GMM_OPT, "--u1", "0.04", "--steps", "12",
                              *seed_args)),
            Op("cobweb_gmm_smoothed", ("cobweb", *GMM_OPT, "--variant", "smoothed_ft",
                                       "--beta", "20", "--u1", "0.04", "--steps", "12",
                                       *seed_args)),
            Op("cobweb_glm", ("cobweb", *GLM_LOGISTIC, "--u1", "0.04", "--steps", "12",
                              *seed_args)),
            Op("crossover", ("crossover", "--gamma", "1.5", "--alpha", "2.0",
                             "--pi-plus", "0.3", "--p-list", "0.2,0.25,0.3")),
            Op("bayesmix_demo", ("bayesmix", "demo", "--p", "0.45", "--gamma", "2.0",
                                 "--alpha", "0.1", "--pi-plus", "0.5", "--n", "2000",
                                 "--d", "200", "--rounds", "10", *seed_args)),
            Op("fixed_points"),
        ]
        if size == "smoke":   # the glm cobweb's 200-point grid costs ~1 s at any size
            ops = [op for op in ops if op.name != "cobweb_glm"]
        return ops


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sim_sign_j1",
        "Acceptance-02 GLM sign problem at paper scale, one process: the draw of X "
        "(400 MB, above L3) and the matvecs dominate; quadrature is bypassed.",
        speed_probe="matvec",
    ),
    Workload(
        "sim_sign_j2",
        "Same arguments and seed with --jobs 2: the only user of the process fan-out "
        "(pool start, result pickling, two copies of X, SE trace per worker).",
        jobs=2, reference="sim_sign_j1", speed_probe="matvec",
    ),
    Workload(
        "sim_logistic_j1",
        "Logistic GLM with X in cache: the quadrature posterior mean and the "
        "finite-difference Onsager term dominate, unlike sim_sign_*.",
    ),
    Workload(
        "desk",
        "Desk-scale figure set (mixture simulate, se, cobweb, crossover, bayesmix demo, "
        "fixed points): scalar maps, quadrature, EM and table writing dominate.",
    ),
)}


def fixed_point_spec():
    """The optimal-map spec ``scripts/se_map_comparison.py`` scans (p = 0.2)."""
    from amp_retrain.gmm import GmmParams
    from amp_retrain.gmm_se import SeMapSpec

    return SeMapSpec("opt", GmmParams(gamma=1.5, alpha=2.0, p=0.2, pi_plus=0.3, n=100))
