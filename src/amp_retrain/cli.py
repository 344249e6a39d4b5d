"""Command-line front end.

Subcommands: simulate (replicated runs vs. theory), se (pure theory trace),
cobweb (map iterates for staircase plots), crossover (full-vs-consensus map
crossing points), bayesmix (fit / apply / demo for the soft-label recipe).

Exit codes: 0 success, 2 configuration or input errors, 3 numerical
divergence (all replications failed), 4 I/O failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import List, Optional

from . import __version__
from .bayesmix import BimodalFit, bayesmix_aggregate, fit_bimodal_em
from .datafiles import read_logit_file, write_table, write_targets_file
from .errors import (
    AmpRetrainError,
    ConfigError,
    DegenerateFitError,
    DivergenceError,
    ParseError,
)
from .gmm_se import VARIANTS
from .harness import (
    ExperimentConfig,
    bayesmix_retrain_demo,
    cobweb_rows,
    crossover_rows,
    se_rows,
    simulate,
    write_simulation_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


# the largest start of a cobweb: its grid reaches 1.2*u1, and the maps are
# tested up to u = 1e16
_U1_MAX = 1e16 / 1.2


def _default_out() -> str:
    return os.environ.get("AMP_RETRAIN_OUTDIR", "amp_runs")


def _add_model_args(sub: argparse.ArgumentParser, include_reps: bool = False) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="JSON experiment config; explicit flags override its fields")
    sub.add_argument("--model", choices=("gmm", "glm"), default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--pi-plus", dest="pi_plus", type=float, default=None)
    sub.add_argument("--link", choices=("sign", "logistic", "probit"), default=None,
                     help="glm label link; a steeper link is a larger --gamma")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--aggregator", type=str, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--iterations", "-T", type=int, default=None)
    sub.add_argument("--seed", dest="master_seed", type=int, default=None)
    if include_reps:
        sub.add_argument("--replications", type=int, default=None)
        sub.add_argument("--jobs", type=int, default=None,
                         help="most worker processes; never more than min(usable CPUs, "
                              "replications, free memory / (8*n*d bytes)), the default")
    sub.add_argument("--out", type=str, default=None)


_CONFIG_FIELDS = tuple(field.name for field in fields(ExperimentConfig))

# the values the CLI supplies where the config has no default
_DEFAULTS = {"model": "gmm", "iterations": 10, "n": 1000}


def _read_json_object(path: str, flag: str, what: str) -> dict:
    """The JSON object in the file a flag names; anything else is a ConfigError."""
    try:
        stored = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:   # JSON text is UTF-8
        raise ConfigError(f"{flag} {path} is not valid JSON: {exc}") from None
    if not isinstance(stored, dict):
        raise ConfigError(f"{flag} {path} must hold a JSON object of {what}")
    return stored


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    payload = {}
    if args.config:
        payload.update(_read_json_object(args.config, "--config", "config fields"))
    for field in _CONFIG_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            payload[field] = value
    for field, default in _DEFAULTS.items():
        payload.setdefault(field, default)
    for field in ("gamma", "alpha", "p"):
        if field not in payload:
            raise ConfigError(f"missing required parameter --{field}")
    return ExperimentConfig.from_dict(payload)


def _config_and_variant(args: argparse.Namespace):
    """The config and the variant a theory table (se, cobweb) computes:
    --variant, else the configured aggregator.  The table's header keeps the
    config as given and names the variant."""
    config = _config_from_args(args)
    return config, args.variant or config.aggregator


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out else _default_out())
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {args.jobs}")
    config = _config_from_args(args)
    result = simulate(config, jobs=args.jobs)
    out = _out_dir(args)
    paths = write_simulation_outputs(result, out)
    failed = [rep for rep, traj in enumerate(result.replications) if traj.diverged_at is not None]
    for t, pred, mean, std, gap, n_ok in result.report_rows:
        print(f"t={t:3d}  predicted={pred:.6f}  empirical={mean:.6f} "
              f"(+-{std:.6f}, n={n_ok})  gap={gap:.6f}")
    if failed:
        print(f"diverged replications: {failed}", file=sys.stderr)
    print(f"wrote {paths['report']}")
    return EXIT_DIVERGED if len(failed) == config.replications else EXIT_OK


def _cmd_se(args: argparse.Namespace) -> int:
    config, variant = _config_and_variant(args)
    rows = se_rows(config, variant)
    out = _out_dir(args)
    path = out / "se.tsv"
    meta = {"config": json.dumps(config.to_dict(), sort_keys=True),
            "variant": variant,
            "master_seed": str(config.master_seed), "version": __version__}
    write_table(path, meta, ["t", "eta", "predicted_error"], rows)
    for t, eta, err in rows:
        print(f"t={t:3d}  eta={eta:.6f}  predicted_error={err:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_cobweb(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, not {args.steps}")
    if not math.isfinite(args.u1):
        raise ConfigError(f"--u1 must be finite, not {args.u1!r}")
    config, variant = _config_and_variant(args)
    if config.model == "glm" and not args.u1 > 0.0:
        raise ConfigError(f"--u1 must be positive for the glm map, whose domain is u > 0, "
                          f"not {args.u1!r}")
    if args.u1 > _U1_MAX:
        raise ConfigError(f"--u1 must be at most {_U1_MAX:.6g}: the cobweb grid reaches "
                          f"1.2*u1, and the maps are tested up to u = 1e16; not {args.u1!r}")
    rows = cobweb_rows(config, args.u1, args.steps, variant)
    out = _out_dir(args)
    path = out / "cobweb.tsv"
    meta = {"config": json.dumps(config.to_dict(), sort_keys=True),
            "u1": repr(args.u1), "steps": str(args.steps),
            "variant": variant, "version": __version__}
    write_table(path, meta, ["kind", "u", "value"], rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    try:
        p_list = [float(tok) for tok in args.p_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--p-list must be comma-separated numbers: {args.p_list!r}") from None
    if not p_list:
        raise ConfigError("--p-list must contain at least one value")
    rows = crossover_rows(args.gamma, args.alpha, p_list, pi_plus=args.pi_plus)
    found = [(p, u) for (p, u, _r, k) in rows if k > 0]
    ordered = sorted(found, key=lambda pu: pu[0])
    trend = all(u1 > u2 for (_, u1), (_, u2) in zip(ordered[:-1], ordered[1:]))
    out = _out_dir(args)
    path = out / "crossover.tsv"
    meta = {"gamma": repr(args.gamma), "alpha": repr(args.alpha),
            "pi_plus": repr(args.pi_plus),
            "u_star_increases_as_p_decreases": str(trend), "version": __version__}
    write_table(path, meta, ["p", "u_star", "residual", "n_crossings"], rows)
    for p, u, resid, k in rows:
        tag = "" if k else "  (no crossover)"
        print(f"p={p:.3f}  u*={u:.4f}  residual={resid:.2e}{tag}")
    print(f"wrote {path}")
    return EXIT_OK


def _read_logits(path: str):
    """read_logit_file of the --input file; a ParseError names the flag."""
    try:
        return read_logit_file(path)
    except ParseError as exc:
        raise ConfigError(f"--input {path}: {exc}") from None


def _cmd_bayesmix_fit(args: argparse.Namespace) -> int:
    _ids, z, _yhat = _read_logits(args.input)
    fit = fit_bimodal_em(z)
    path = _out_dir(args) / "fit.json"
    path.write_text(json.dumps({"schema": "bayesmix-fit v1", "version": __version__,
                                "fit": asdict(fit)}, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def _check_flip_rate(p: float) -> None:
    if not 0.0 <= p < 0.5:
        raise ConfigError(f"--p must lie in [0, 0.5), not {p!r}")


def _cmd_bayesmix_apply(args: argparse.Namespace) -> int:
    _check_flip_rate(args.p)
    ids, z, yhat = _read_logits(args.input)
    stored = _read_json_object(args.fit, "--fit", "a fit run's fit.json").get("fit")
    try:
        fit = BimodalFit(**stored)
    except TypeError:
        raise ConfigError(f'--fit {args.fit} lacks the "fit" object of a fit.json') from None
    except DegenerateFitError as exc:
        raise ConfigError(f"--fit {args.fit}: {exc}") from None
    path = _out_dir(args) / "targets.tsv"
    write_targets_file(path, ids, bayesmix_aggregate(z, yhat, fit, args.p),
                       meta={"config": json.dumps({"p": args.p}),
                             "fit": json.dumps(stored, sort_keys=True)})
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_bayesmix_demo(args: argparse.Namespace) -> int:
    _check_flip_rate(args.p)
    if args.rounds < 1:
        raise ConfigError(f"--rounds must be at least 1, not {args.rounds}")
    traj = bayesmix_retrain_demo(ExperimentConfig(
        model="gmm", gamma=args.gamma, alpha=args.alpha, p=args.p, pi_plus=args.pi_plus,
        n=args.n, d=args.d, iterations=args.rounds, master_seed=args.master_seed))
    accuracies = [1.0 - e for e in traj.errors.tolist()]
    path = _out_dir(args) / "demo.tsv"
    # d as given, null when omitted, as simulate's config.json records it
    shown = ("gamma", "alpha", "p", "pi_plus", "n", "d", "rounds", "master_seed")
    config = {key: getattr(args, key) for key in shown}
    meta = {"config": json.dumps(config, sort_keys=True),
            "master_seed": str(args.master_seed), "version": __version__}
    if traj.diverged_at is not None:
        # the fit of round k fails in step k + 2
        meta["halted_at_round"] = str(traj.diverged_at - 2)
    write_table(path, meta, ["round", "accuracy"], list(enumerate(accuracies)))
    for rnd, acc in enumerate(accuracies):
        print(f"round={rnd:3d}  accuracy={acc:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amp-retrain",
        description="Iterative retraining under label noise: runs, theory traces, aggregation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="replicated runs vs. the theory trace")
    _add_model_args(sim, include_reps=True)
    sim.set_defaults(func=_cmd_simulate)

    se = subs.add_parser("se", help="pure theory trajectory")
    _add_model_args(se)
    se.add_argument("--variant", choices=VARIANTS, default=None,
                    help="trace of this aggregator, or a sharp-limit map (gmm); "
                         "default: --aggregator")
    se.set_defaults(func=_cmd_se)

    cob = subs.add_parser("cobweb", help="map iterates and samples for staircase plots")
    _add_model_args(cob)
    cob.add_argument("--u1", type=float, required=True)
    cob.add_argument("--steps", type=int, default=12)
    cob.add_argument("--variant", choices=VARIANTS, default=None,
                     help="map of this aggregator, or a sharp-limit map (the glm "
                          "has the opt map only); default: --aggregator")
    cob.set_defaults(func=_cmd_cobweb)

    cross = subs.add_parser("crossover", help="full-vs-consensus map crossing points")
    cross.add_argument("--gamma", type=float, required=True)
    cross.add_argument("--alpha", type=float, required=True)
    cross.add_argument("--pi-plus", dest="pi_plus", type=float, default=0.5)
    cross.add_argument("--p-list", type=str, required=True,
                       help="comma-separated flip probabilities")
    cross.add_argument("--out", type=str, default=None)
    cross.set_defaults(func=_cmd_crossover)

    # each bayesmix action takes only the flags it reads
    bm = subs.add_parser("bayesmix", help="soft-label recipe: fit / apply / demo")
    actions = bm.add_subparsers(dest="action", required=True)
    fit = actions.add_parser("fit")
    apply = actions.add_parser("apply")
    demo = actions.add_parser("demo")
    for action in (fit, apply):
        action.add_argument("--input", type=str, required=True, help="logit file (id, z, yhat)")
    apply.add_argument("--fit", type=str, required=True, help="fit.json from a fit run")
    for action in (apply, demo):
        action.add_argument("--p", type=float, required=True)
    demo.add_argument("--gamma", type=float, default=2.0)
    demo.add_argument("--alpha", type=float, default=0.1)
    demo.add_argument("--pi-plus", dest="pi_plus", type=float, default=0.5)
    demo.add_argument("--n", type=int, default=2000)
    demo.add_argument("--d", type=int, default=None)
    demo.add_argument("--rounds", type=int, default=10)
    demo.add_argument("--seed", dest="master_seed", type=int, default=0)
    for action, func in ((fit, _cmd_bayesmix_fit), (apply, _cmd_bayesmix_apply),
                         (demo, _cmd_bayesmix_demo)):
        action.add_argument("--out", type=str, default=None)
        action.set_defaults(func=func)
    return parser


_parser = functools.cache(build_parser)   # one per process: a build costs about 2 ms


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AmpRetrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
