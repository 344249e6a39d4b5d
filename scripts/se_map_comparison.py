"""Sample the one-dimensional update maps (optimal / full / consensus limits)
over a grid for several noise levels, report crossover points, and emit a
cobweb trace for the optimal map.

Usage: python scripts/se_map_comparison.py [--out runs/maps]
"""

import argparse
from pathlib import Path

import numpy as np

from amp_retrain.datafiles import write_table
from amp_retrain.gmm import GmmParams
from amp_retrain.gmm_se import (
    SeMapSpec,
    cobweb_trace,
    eta_map_ct,
    eta_map_ft,
    eta_map_opt,
    find_crossover,
    find_fixed_points,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gamma", type=float, default=1.5)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--pi-plus", type=float, default=0.3)
    ap.add_argument("--p-list", type=str, default="0.2,0.25,0.3")
    ap.add_argument("--u-max", type=float, default=8.0)
    ap.add_argument("--grid", type=int, default=160)
    ap.add_argument("--out", type=str, default="runs/maps")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    us = np.linspace(0.0, args.u_max, args.grid + 1)

    for p in (float(tok) for tok in args.p_list.split(",")):
        params = GmmParams(gamma=args.gamma, alpha=args.alpha, p=p,
                           pi_plus=args.pi_plus, n=100)
        rows = zip(us.tolist(), eta_map_opt(us, params).tolist(),
                   eta_map_ft(us, params).tolist(), eta_map_ct(us, params).tolist())
        crossings = find_crossover(params)
        tag = f"p{p:.2f}".replace(".", "_")
        write_table(out / f"maps_{tag}.tsv",
                    {"gamma": args.gamma, "alpha": args.alpha, "p": p,
                     "pi_plus": args.pi_plus,
                     "crossover": ", ".join(repr(c) for c in crossings)},
                    ["u", "F_opt", "F_ft", "F_ct"], rows)
        msg = f"p={p}: crossover at u={crossings[0]:.3f}" if crossings else f"p={p}: no crossover"
        print(msg + f"  -> {out / f'maps_{tag}.tsv'}")

    # cobweb for the first noise level, from both sides of the fixed point
    p0 = float(args.p_list.split(",")[0])
    params = GmmParams(gamma=args.gamma, alpha=args.alpha, p=p0,
                       pi_plus=args.pi_plus, n=100)
    spec = SeMapSpec(variant="opt", params=params)
    stars = find_fixed_points(spec, u_max=args.u_max)
    rows = []
    for label, u1 in (("low", 0.04), ("high", 1.0)):
        for step, (u, fu) in enumerate(cobweb_trace(spec, u1, 12).points, 1):
            rows.append((label, step, u, fu))
    write_table(out / "cobweb_opt.tsv",
                {"gamma": args.gamma, "alpha": args.alpha, "p": p0,
                 "pi_plus": args.pi_plus,
                 "fixed_points": ", ".join(repr(s) for s in stars)},
                ["start", "step", "u", "F_u"], rows)
    print(f"fixed points: {stars}  -> {out / 'cobweb_opt.tsv'}")


if __name__ == "__main__":
    main()
