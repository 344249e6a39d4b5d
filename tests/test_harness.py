"""State evolution against the empirical runs, for every (model, aggregator)
the CLI accepts.  Adds to acceptance criteria 01 and 02 (optimal aggregation
at their own problems) and uses their tolerance."""

import pytest

from amp_retrain.gmm import AGGREGATORS
from amp_retrain.harness import ExperimentConfig, simulate

GAP_TOLERANCE = 0.02
MIXTURE = dict(model="gmm", gamma=1.5, alpha=0.8, p=0.4, pi_plus=0.3, n=1000, replications=8)
SIGN = dict(model="glm", link="sign", gamma=1.0, alpha=0.5, p=0.2, n=2000, replications=4)
LOGISTIC = dict(model="glm", link="logistic", gamma=2.0, alpha=0.5, p=0.2, n=2000,
                replications=4)
PROBIT = dict(model="glm", link="probit", gamma=1.0, alpha=0.5, p=0.2, n=2000, replications=4)
CASES = ([("gmm", MIXTURE, agg) for agg in AGGREGATORS]
         + [("glm-sign", SIGN, agg) for agg in AGGREGATORS]
         + [("glm-probit", PROBIT, agg) for agg in AGGREGATORS]
         + [("glm-logistic", LOGISTIC, "smoothed_ct")])


@pytest.mark.parametrize("problem,aggregator", [c[1:] for c in CASES],
                         ids=[f"{c[0]}-{c[2]}" for c in CASES])
def test_se_tracks_the_replication_mean(problem, aggregator):
    config = ExperimentConfig(**problem, aggregator=aggregator, beta=5.0, iterations=6,
                              master_seed=2026)
    result = simulate(config)
    assert all(rep.diverged_at is None for rep in result.replications)
    gaps = [row[4] for row in result.report_rows]
    print(f"\n{aggregator}: largest gap {max(gaps):.4f}")
    assert [row[0] for row in result.report_rows] == list(range(7))
    assert max(gaps) <= GAP_TOLERANCE
