"""Compare retraining rules on mixture data: optimal aggregation vs. hard
full/consensus retraining (no memory correction) vs. the one-shot baseline,
against the theory curve.  Emits a plot-ready table.

Usage: python scripts/gmm_retraining_comparison.py [--p 0.4] [--gamma 1.5] [--out runs/gmm_cmp]
"""

import argparse
from pathlib import Path

import numpy as np

from amp_retrain.datafiles import write_table
from amp_retrain.gmm import gmm_evaluator, sample_gmm_dataset, test_error_gmm, vanilla_estimator
from amp_retrain.harness import ExperimentConfig, build_params, se_trace
from amp_retrain.numerics import RngStream
from amp_retrain.retrain import run_hard_baseline, run_retraining


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gamma", type=float, default=1.5)
    ap.add_argument("--alpha", type=float, default=0.8)
    ap.add_argument("--p", type=float, default=0.4)
    ap.add_argument("--pi-plus", type=float, default=0.3)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=str, default="runs/gmm_comparison")
    args = ap.parse_args()

    config = ExperimentConfig(model="gmm", gamma=args.gamma, alpha=args.alpha, p=args.p,
                              pi_plus=args.pi_plus, n=args.n, iterations=args.iters)
    params = build_params(config)
    se_rows, schedule = se_trace(config)

    curves = {"opt": [], "ft_hard": [], "ct_hard": [], "vanilla": []}
    for rep in range(args.reps):
        data = sample_gmm_dataset(params, RngStream(args.seed, rep))
        evaluate = gmm_evaluator(data)
        curves["vanilla"].append([test_error_gmm(vanilla_estimator(data), data.mu)] * args.iters)
        curves["opt"].append(run_retraining(data, schedule, evaluate).errors)
        curves["ft_hard"].append(run_hard_baseline(data, "full", args.iters, evaluate).errors)
        curves["ct_hard"].append(
            run_hard_baseline(data, "consensus", args.iters, evaluate).errors)

    rows = []
    for t in range(1, args.iters + 1):
        rows.append((
            t,
            se_rows[t - 1][2],
            float(np.mean([c[t - 1] for c in curves["opt"]])),
            float(np.mean([c[t - 1] for c in curves["ft_hard"]])),
            float(np.mean([c[t - 1] for c in curves["ct_hard"]])),
            float(np.mean([c[t - 1] for c in curves["vanilla"]])),
        ))
        print(f"t={t:2d}  theory={rows[-1][1]:.4f}  opt={rows[-1][2]:.4f}  "
              f"ft={rows[-1][3]:.4f}  ct={rows[-1][4]:.4f}  vanilla={rows[-1][5]:.4f}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "comparison.tsv",
                {"gamma": args.gamma, "alpha": args.alpha, "p": args.p,
                 "pi_plus": args.pi_plus, "n": args.n, "reps": args.reps,
                 "seed": args.seed},
                ["t", "theory", "opt", "ft_hard", "ct_hard", "vanilla"], rows)
    print(f"wrote {out / 'comparison.tsv'}")


if __name__ == "__main__":
    main()
