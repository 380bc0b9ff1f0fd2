"""Command-line entry points.

``nfa run`` executes a full experiment from a JSON config, ``nfa oracle``
prints the brute-force scheme ranking, ``nfa compare`` diffs two exported
architecture decisions, and ``nfa pretrain`` just pretrains the upstream
stages and saves a checkpoint. Set ``NFA_OUTPUT_ROOT`` to redirect all
outputs under a common root.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import autodiff as ad
from . import harness
from .config import ConfigError, load_config


def _integer(least, words):
    """An option parser that takes an integer of at least ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected a {words} integer, got {text!r}")
        return value
    return parse


_seed = _integer(0, "nonnegative")  # as np.random.SeedSequence needs
_cap = _integer(1, "positive")


def _add_config_arg(p):
    p.add_argument("--config", required=True, help="path to the experiment JSON config")
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")


def cmd_run(args):
    cfg = load_config(args.config)
    result = harness.run_experiment(cfg, seed=args.seed, out_dir=args.out)
    totals = result.decision.totals
    print(f"run complete: {result.out_dir}")
    for c in result.decision.cells:
        print(f"  cell {c.index} ({c.module}): {c.choice}")
    print(f"  total={totals['total_params']} train={totals['train_params']} "
          f"selected={totals['selected_params']}")
    print(f"  final val task loss: {result.final_val_loss:.6f}")
    return 0


def cmd_oracle(args):
    cfg = load_config(args.config)
    entries = harness.enumerate_oracle(cfg, seed=args.seed, cap=args.cap)
    print(f"{'rank':>4}  {'val_loss':>10}  scheme")
    for i, e in enumerate(entries, start=1):
        print(f"{i:>4}  {e.val_loss:>10.6f}  {' | '.join(e.scheme)}")
    return 0


def cmd_compare(args):
    a = harness.import_architecture(args.runs[0])
    b = harness.import_architecture(args.runs[1])
    rows = harness.diff_decisions(a, b)
    n_diff = sum(not r["same"] for r in rows)
    print(f"{'cell':>4}  {'module':<16} {'a':<14} {'b':<14} same")
    for r in rows:
        print(f"{r['index']:>4}  {r['module']:<16} {r['a']:<14} {r['b']:<14} {r['same']}")
    print(f"totals a: {a.totals}")
    print(f"totals b: {b.totals}")
    print(f"{n_diff} of {len(rows)} cells differ")
    return 0


def cmd_pretrain(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.search.seed
    model = harness.pretrained_cascade(cfg, seed)
    out = harness.resolve_out_dir(cfg, args.out, seed=seed)
    named = {}
    for m in model.modules:
        for name, t in m.pretrained_params.items():
            named[f"{m.name}.{name}"] = t.value
    bin_path, manifest_path = harness.save_checkpoint(named, out / "pretrained")
    print(f"pretrained checkpoint: {bin_path} (+ {manifest_path.name})")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="nfa", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full search experiment")
    _add_config_arg(run)
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.set_defaults(func=cmd_run)

    oracle = sub.add_parser("oracle", help="enumerate and rank all discrete schemes")
    _add_config_arg(oracle)
    oracle.add_argument("--cap", type=_cap, default=harness.DEFAULT_ORACLE_CAP,
                        help="refuse scheme spaces larger than this")
    oracle.set_defaults(func=cmd_oracle)

    compare = sub.add_parser("compare", help="diff two exported architecture decisions")
    compare.add_argument("--runs", nargs=2, required=True, metavar=("A", "B"),
                         help="two architecture.json files")
    compare.set_defaults(func=cmd_compare)

    pretrain = sub.add_parser("pretrain", help="pretrain upstream stages and save a checkpoint")
    _add_config_arg(pretrain)
    pretrain.add_argument("--out", default=None, help="output directory (overrides config)")
    pretrain.set_defaults(func=cmd_pretrain)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # the checks report every non-finite value
            return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError, OSError, ad.NonFiniteError) as e:
        print(f"nfa: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
