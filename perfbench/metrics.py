"""Metric names and units; ``BENCHMARK.json`` lists the same, and the
self-test (``run.py --smoke``) fails if the two drift apart.

End-to-end metrics come from untraced passes; per-layer metrics from the
traced run.  Span-derived metrics with units ``count``, ``bytes`` and
``evals/step`` are exact counts, which must repeat between two traced passes
(``proc.*`` counts come from the kernel and are medians).  ``*_computed``
values are derived from array sizes, not measured.
"""

END_TO_END = {
    # times are scaled to the reference speed by a speed probe (session.py)
    "setup_s": "s",          # median set-up: fresh import plus a first smoke-size pass
    "wall_s": "s",           # median time of one pass
    "peak_rss_mb": "MB",     # max(peak RSS of the workload process, of its largest child)
    "ok_ratio": "ratio",     # 1 - fail_ratio
}

PER_LAYER = {
    "numerics.find_root_bisect.calls": "count",
    "numerics.find_root_bisect.s": "s",
    "numerics.expect_std_normal_split.calls": "count",
    "numerics.expect_std_normal_split.s": "s",
    "numerics.rule_cache.misses": "count",
    "gmm.sample_gmm_dataset.s": "s",
    "gmm.sample_gmm_dataset.calls": "count",
    "gmm.sample.bytes_computed": "bytes",
    "gmm.amp_step_gmm.s": "s",
    "gmm.amp_step_gmm.self_s": "s",
    "gmm.amp_step_gmm.calls": "count",
    "gmm.aggregator.value.s": "s",
    "gmm.aggregator.value.calls": "count",
    "gmm.onsager_coefficient.s": "s",
    "gmm.test_error_gmm.s": "s",
    "glm.sample_glm_dataset.s": "s",
    "glm.sample_glm_dataset.calls": "count",
    "glm.sample.bytes_computed": "bytes",
    "glm.amp_step_glm.s": "s",
    "glm.amp_step_glm.self_s": "s",
    "glm.amp_step_glm.calls": "count",
    "glm.matvec.bytes_computed": "bytes",
    "glm.matvec.gbps_computed": "GB/s",
    "glm.aggregator.value.s": "s",
    "glm.aggregator.value.calls": "count",
    "glm.aggregator.value.elements": "count",
    "glm.aggregator.evals_per_step": "evals/step",
    "glm.posterior_mean_latent.s": "s",
    "glm.posterior_mean_latent.calls": "count",
    "glm.posterior_mean_latent.node_evals_computed": "count",
    "glm.onsager_coefficient_glm.s": "s",
    "glm.onsager_coefficient_glm.calls": "count",
    "glm.test_error_glm.s": "s",
    "gmm_se.se_step_gmm.s": "s",
    "gmm_se.se_step_gmm.calls": "count",
    "gmm_se.eta_map.calls": "count",
    "gmm_se.eta_map.s": "s",
    "gmm_se.find_fixed_points.s": "s",
    "gmm_se.find_crossover.s": "s",
    "gmm_se.cobweb_trace.s": "s",
    "glm_se.se_step_glm_generic.s": "s",
    "glm_se.se_step_glm_generic.calls": "count",
    "glm_se.se_step_glm_opt.s": "s",
    "glm_se.se_step_glm_opt.calls": "count",
    "bayesmix.fit_bimodal_em.s": "s",
    "bayesmix.em_iterations": "count",
    "bayesmix.bayesmix_aggregate.s": "s",
    "harness.se_trace.calls": "count",
    "harness.se_trace.s": "s",
    "harness.run_replication.s": "s",
    "harness.run_replication.self_s": "s",
    "harness.run_replication.calls": "count",
    "harness.simulate.self_s": "s",
    "harness.pool.worker_busy_s": "s",
    "harness.pool.efficiency": "ratio",
    "harness.write_simulation_outputs.s": "s",
    "datafiles.write_table.s": "s",
    "datafiles.write_table.calls": "count",
    "datafiles.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "cli.simulate.s": "s",
    "cli.se.s": "s",
    "cli.cobweb.s": "s",
    "cli.crossover.s": "s",
    "cli.bayesmix.s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "proc.minflt": "count",
    "proc.nivcsw": "count",
    "trace.overhead_s": "s",
    "trace.accounted_fraction": "ratio",
    "fail_ratio": "ratio",
}

EXACT_UNITS = ("count", "bytes", "evals/step")
