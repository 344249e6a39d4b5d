"""Iterative model retraining under label noise.

One memory-corrected retraining engine for Gaussian-mixture and
generalized-linear ground truths, the deterministic state-evolution recursions
that predict their test error, Bayes-optimal label aggregation, and the
practical bimodal-mixture soft-label recipe.

Names are imported from their modules (``from amp_retrain.gmm import
OptimalGmm``); the package root holds only ``__version__``.
"""

__version__ = "0.23.0"
