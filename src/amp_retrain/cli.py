"""Command-line front end.

Subcommands: simulate (replicated runs vs. theory), se (pure theory trace),
cobweb (map iterates for staircase plots), crossover (full-vs-consensus map
crossing points), bayesmix (fit / apply / demo for the soft-label recipe).

Exit codes: 0 success, 2 configuration or input errors, 3 numerical
divergence (all replications failed), 4 I/O failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import List, Optional

from . import __version__
from .bayesmix import (
    BayesMixConfig,
    BimodalFit,
    bayesmix_retrain_demo,
    emit_targets,
    fit_bimodal_em,
)
from .errors import AmpRetrainError, ConfigError, DivergenceError, ParseError
from .gmm import GmmParams
from .gmm_se import VARIANTS
from .harness import (
    ExperimentConfig,
    cobweb_rows,
    crossover_rows,
    se_rows,
    simulate,
    write_simulation_outputs,
)
from .numerics import RngStream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


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
    sub.add_argument("--link", choices=("sign", "logistic", "probit"), default=None)
    sub.add_argument("--link-scale", dest="link_scale", type=float, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--aggregator", type=str, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--iterations", "-T", type=int, default=None)
    sub.add_argument("--order", type=int, default=None)
    sub.add_argument("--seed", dest="master_seed", type=int, default=None)
    if include_reps:
        sub.add_argument("--replications", type=int, default=None)
        sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--out", type=str, default=None)


_CONFIG_FIELDS = tuple(field.name for field in fields(ExperimentConfig))

# the values the CLI supplies where the config has no default
_DEFAULTS = {"model": "gmm", "iterations": 10, "n": 1000}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    payload = {}
    if args.config:
        payload.update(json.loads(Path(args.config).read_text()))
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
    config = _config_from_args(args)
    result = simulate(config, jobs=max(1, args.jobs))
    out = _out_dir(args)
    paths = write_simulation_outputs(result, out)
    failed = [r.rep for r in result.replications if r.diverged_at is not None]
    for t, pred, mean, std, gap, n_ok in result.report_rows:
        print(f"t={t:3d}  predicted={pred:.6f}  empirical={mean:.6f} "
              f"(+-{std:.6f}, n={n_ok})  gap={gap:.6f}")
    if failed:
        print(f"diverged replications: {failed}", file=sys.stderr)
    print(f"wrote {paths['report']}")
    if len(failed) == config.replications:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_se(args: argparse.Namespace) -> int:
    from .datafiles import write_table

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
    from .datafiles import write_table

    config, variant = _config_and_variant(args)
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
    from .datafiles import write_table

    p_list = [float(tok) for tok in args.p_list.split(",") if tok.strip()]
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


def _cmd_bayesmix(args: argparse.Namespace) -> int:
    from .datafiles import read_logit_file, write_table, write_targets_file

    out = _out_dir(args)
    cfg = BayesMixConfig(p=args.p, em_max_iters=args.em_max_iters,
                         em_tol=args.em_tol, sigma_floor=args.sigma_floor)
    if args.action == "fit":
        records = read_logit_file(args.input)
        fit = fit_bimodal_em([r.z for r in records], cfg)
        path = out / "fit.json"
        path.write_text(json.dumps({"schema": "bayesmix-fit v1",
                                    "config": asdict(cfg), "fit": asdict(fit)},
                                   sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
        return EXIT_OK
    if args.action == "apply":
        records = read_logit_file(args.input)
        payload = json.loads(Path(args.fit).read_text())
        fit = BimodalFit(**payload["fit"])
        targets = emit_targets(records, fit, cfg)
        path = out / "targets.tsv"
        write_targets_file(path, targets,
                           meta={"config": json.dumps(asdict(cfg), sort_keys=True),
                                 "fit": json.dumps(payload["fit"], sort_keys=True)})
        print(f"wrote {path}")
        return EXIT_OK
    # demo
    params = GmmParams(gamma=args.gamma, alpha=args.alpha, p=args.p,
                       pi_plus=args.pi_plus, n=args.n, d=args.d)
    result = bayesmix_retrain_demo(params, cfg, args.rounds,
                                   RngStream(args.master_seed, 0))
    path = out / "demo.tsv"
    meta = {"config": json.dumps({"gamma": args.gamma, "alpha": args.alpha,
                                  "p": args.p, "pi_plus": args.pi_plus,
                                  "n": args.n, "rounds": args.rounds,
                                  "master_seed": args.master_seed,
                                  **asdict(cfg)}, sort_keys=True),
            "master_seed": str(args.master_seed), "version": __version__}
    if result.halted_at is not None:
        meta["halted_at_round"] = str(result.halted_at)
    write_table(path, meta, ["round", "accuracy"],
                list(enumerate(result.accuracies)))
    for rnd, acc in enumerate(result.accuracies):
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

    bm = subs.add_parser("bayesmix", help="soft-label recipe: fit / apply / demo")
    bm.add_argument("action", choices=("fit", "apply", "demo"))
    bm.add_argument("--input", type=str, default=None, help="logit file (id, z, yhat)")
    bm.add_argument("--fit", type=str, default=None, help="fit.json from a fit run")
    bm.add_argument("--p", type=float, required=True)
    bm.add_argument("--em-max-iters", type=int, default=200)
    bm.add_argument("--em-tol", type=float, default=1e-8)
    bm.add_argument("--sigma-floor", type=float, default=None)
    bm.add_argument("--gamma", type=float, default=2.0)
    bm.add_argument("--alpha", type=float, default=0.1)
    bm.add_argument("--pi-plus", dest="pi_plus", type=float, default=0.5)
    bm.add_argument("--n", type=int, default=2000)
    bm.add_argument("--d", type=int, default=None)
    bm.add_argument("--rounds", type=int, default=10)
    bm.add_argument("--seed", dest="master_seed", type=int, default=0)
    bm.add_argument("--out", type=str, default=None)
    bm.set_defaults(func=_cmd_bayesmix)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bayesmix":
            if args.action in ("fit", "apply") and not args.input:
                raise ConfigError(f"bayesmix {args.action} needs --input")
            if args.action == "apply" and not args.fit:
                raise ConfigError("bayesmix apply needs --fit")
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
