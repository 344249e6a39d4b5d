"""Sign-link model: replicated optimal retraining vs. the theory trace, plus
the hard retraining baselines run without memory correction.

Usage: python scripts/glm_sign_comparison.py [--n 10000] [--out runs/glm_cmp]
"""

import argparse
from pathlib import Path

import numpy as np

from amp_retrain.datafiles import write_table
from amp_retrain.glm import glm_evaluator, sample_glm_dataset
from amp_retrain.harness import ExperimentConfig, build_params, se_trace
from amp_retrain.numerics import RngStream
from amp_retrain.retrain import run_hard_baseline, run_retraining


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--p", type=float, default=0.2)
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=str, default="runs/glm_comparison")
    args = ap.parse_args()

    config = ExperimentConfig(model="glm", gamma=1.0, alpha=args.alpha, p=args.p,
                              link="sign", n=args.n, iterations=args.iters)
    params = build_params(config)
    se_rows, schedule = se_trace(config)

    opt_runs, ft_runs, ct_runs = [], [], []
    for rep in range(args.reps):
        data = sample_glm_dataset(params, RngStream(args.seed, rep))
        evaluate = glm_evaluator(data, params)
        opt_runs.append(run_retraining(data, schedule, evaluate).errors)
        # the hard rules are not Lipschitz and admit no corrected iteration
        ft_runs.append(run_hard_baseline(data, "full", args.iters, evaluate).errors)
        ct_runs.append(run_hard_baseline(data, "consensus", args.iters, evaluate).errors)
        print(f"replication {rep}: final opt error {opt_runs[-1][-1]:.4f}")

    rows = []
    for t in range(1, args.iters + 1):
        rows.append((
            t,
            se_rows[t - 1][2],
            float(np.mean([r[t - 1] for r in opt_runs])),
            float(np.mean([r[t - 1] for r in ft_runs])),
            float(np.mean([r[t - 1] for r in ct_runs])),
        ))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "comparison.tsv",
                {"alpha": args.alpha, "p": args.p, "n": args.n,
                 "reps": args.reps, "seed": args.seed, "link": "sign"},
                ["t", "theory", "opt", "ft_hard", "ct_hard"], rows)
    for row in rows:
        print(f"t={row[0]:2d}  theory={row[1]:.4f}  opt={row[2]:.4f}  "
              f"ft={row[3]:.4f}  ct={row[4]:.4f}")
    print(f"wrote {out / 'comparison.tsv'}")


if __name__ == "__main__":
    main()
