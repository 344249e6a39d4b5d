"""Compare retraining rules on one configured model: the memory-corrected run of
the configured schedule (`opt`) against its theory curve and the hard full and
consensus baselines run without memory correction.  Emits a plot-ready table.

The config file is the ExperimentConfig JSON that `simulate --config` reads
and every run's config.json holds.  Row t averages each rule's test error at
step t over the replications whose runs all reached t; n_reps counts them.
The one-shot estimator is every rule's t = 1 row (the identity first step).

Usage: python scripts/retraining_comparison.py --config FILE [--out runs/comparison]
"""

import argparse
import json
from pathlib import Path

import numpy as np

from amp_retrain import __version__
from amp_retrain.datafiles import write_table
from amp_retrain.harness import ExperimentConfig, replication_data, se_trace
from amp_retrain.retrain import HARD_RULES, run_hard_baseline, run_retraining


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", type=str, required=True, help="ExperimentConfig JSON file")
    ap.add_argument("--out", type=str, default="runs/comparison")
    args = ap.parse_args()

    config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    se_rows, schedule = se_trace(config)

    curves = []   # per replication: the error curves of opt, then each hard rule
    for rep in range(config.replications):
        data, evaluate = replication_data(config, rep)
        runs = [run_retraining(data, schedule, evaluate)]
        runs += [run_hard_baseline(data, rule, config.iterations, evaluate)
                 for rule in HARD_RULES.values()]
        curves.append([run.errors for run in runs])

    rows = []
    for t, _eta, theory in se_rows:
        reached = [errors for errors in curves if min(map(len, errors)) >= t]
        if reached:
            means = [float(np.mean([errors[k][t - 1] for errors in reached]))
                     for k in range(len(reached[0]))]
            rows.append((t, theory, *means, len(reached)))
            print(f"t={t:2d}  theory={theory:.4f}  opt={means[0]:.4f}  "
                  f"ft={means[1]:.4f}  ct={means[2]:.4f}  n_reps={len(reached)}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "comparison.tsv",
                {"config": json.dumps(config.to_dict(), sort_keys=True),
                 "version": __version__},
                ["t", "theory", "opt", "ft_hard", "ct_hard", "n_reps"], rows)
    print(f"wrote {out / 'comparison.tsv'}")


if __name__ == "__main__":
    main()
