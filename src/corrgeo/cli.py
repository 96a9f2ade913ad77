"""Command line interface.

Subcommands: datagen, train, eval, gradcheck, bench, hyperplane.
Exit codes: 0 success, 1 usage/config error, 2 numerical failure, 3 I/O error.
"""

import argparse
import csv
import sys

import numpy as np

from . import data as datamod
from . import train as trainmod
from .config import load_config
from .errors import (
    ConfigError,
    CorrGeoError,
    DampingFailure,
    InfeasibleSeparation,
    IoError,
    NoConvergence,
    NonFiniteLoss,
)
from .geometry import METRICS


def _build_parser():
    parser = argparse.ArgumentParser(prog="corrgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a labeled synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--spread", type=float, default=0.3)
    p.add_argument("--sep", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a correlation network")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("gradcheck", help="compare analytic gradients with finite differences")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("bench", help="time single forward passes per metric")
    p.add_argument("--dims", default="30,50,100")
    p.add_argument("--metrics", default="all")
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("hyperplane", help="sample a decision surface over the 3x3 elliptope")
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--z", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def cmd_datagen(args):
    samples, labels = datamod.generate(
        args.classes, args.per_class, args.dim, args.channels,
        args.spread, args.sep, args.seed,
    )
    datamod.save_dataset(args.out, samples, labels)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config)
    trainmod.train(cfg, args.data, args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args):
    cfg, net = trainmod.load_checkpoint_network(args.ckpt)
    samples, labels = datamod.load_dataset(args.data)
    acc, confusion = trainmod.evaluate(net, samples, labels)
    print(f"accuracy {acc:.6f}")
    print("confusion (rows true, cols predicted):")
    for row in confusion:
        print("  " + " ".join(f"{v:5d}" for v in row))
    return 0


def cmd_gradcheck(args):
    cfg = load_config(args.config)
    worst = trainmod.gradcheck(cfg, seed=args.seed)
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    if bad:
        print(f"FAIL: blocks over 1e-4: {bad}")
        return 2
    print("all parameter blocks within 1e-4")
    return 0


def cmd_bench(args):
    dims = [int(d) for d in args.dims.split(",") if d]
    if any(d < 4 for d in dims):
        raise ConfigError("bench dims must be >= 4")
    metrics = list(METRICS) if args.metrics == "all" else [
        m.strip() for m in args.metrics.split(",") if m.strip()
    ]
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r}")
    rng = np.random.default_rng(0)
    rows = []
    print(f"{'dim':>5} " + " ".join(f"{m:>10}" for m in metrics))
    for n in dims:
        times = [trainmod.bench_forward(m, n, args.repeats, rng) for m in metrics]
        rows.append((n, dict(zip(metrics, times))))
        print(f"{n:>5} " + " ".join(f"{t:10.6f}" for t in times))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dim"] + metrics)
            for n, per in rows:
                writer.writerow([n] + [f"{per[m]:.9f}" for m in metrics])
    return 0


def cmd_hyperplane(args):
    rows = trainmod.hyperplane_grid(args.metric, args.z, args.gamma, args.grid)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r21", "r31", "r32", "v"])
        for row in rows:
            writer.writerow([f"{v:.10g}" for v in row])
    print(f"wrote {len(rows)} grid rows to {args.out}")
    return 0


_COMMANDS = {
    "datagen": cmd_datagen,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
    "hyperplane": cmd_hyperplane,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InfeasibleSeparation) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NoConvergence, DampingFailure, NonFiniteLoss) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except IoError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except CorrGeoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
