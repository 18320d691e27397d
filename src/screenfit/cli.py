"""Command-line front end.

Subcommands:
  synth     -- materialize the configured synthetic dataset
               (data.csv, schema.json, ground_truth.json)
  pipeline  -- run the full screen/fit/evaluate pipeline and write all
               report artifacts plus a manifest
  score     -- score a CSV with a saved model file

Exit codes: 0 on success, 2 on configuration or validation problems,
1 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import load_config
from .errors import ScreenfitError, ValidationError
from .pipeline import run_pipeline, score_table_file, write_synthetic_dataset


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screenfit",
        description=(
            "Staged feature screening, logistic scorecard fitting, and "
            "decile-based evaluation for wide binary-outcome tables."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config file")
    common.add_argument("--out", help="output directory (default: config out_dir)")
    common.add_argument(
        "--seed",
        type=int,
        help=(
            "master seed override: generator = seed, split = seed + 1; the "
            "out-of-sample table is sample index 1 of the same generator"
        ),
    )
    sub.add_parser("synth", parents=[common], help="write the configured synthetic dataset")
    sub.add_parser("pipeline", parents=[common], help="run the full modeling pipeline")

    scorer = sub.add_parser("score", help="score a CSV with a saved model")
    scorer.add_argument("--model", required=True, help="model.json from a pipeline run")
    scorer.add_argument(
        "--data",
        required=True,
        help=(
            "CSV to score; its header and row widths are checked, but only "
            "the model's columns and the target are parsed and validated"
        ),
    )
    scorer.add_argument("--schema", required=True, help="schema sidecar for the CSV")
    scorer.add_argument("--out", required=True, help="output CSV path")
    return parser


def _config_and_out_dir(args):
    """The config with --seed applied, and --out or else the config's out_dir."""
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config, args.out or config.out_dir


def _cmd_synth(args) -> int:
    config, out_dir = _config_and_out_dir(args)
    files = write_synthetic_dataset(config, out_dir)
    print(f"wrote {', '.join(files)} to {out_dir}")
    return 0


def _cmd_pipeline(args) -> int:
    config, out_dir = _config_and_out_dir(args)
    result = run_pipeline(config, out_dir)
    terms = result.model.term_names()
    print(f"wrote {len(result.manifest['artifacts'])} artifacts to {out_dir}")
    print(f"final model: {len(terms)} terms ({', '.join(terms) if terms else 'intercept only'})")
    for name, report in result.confusion.items():
        acc = report["accuracy"]
        print(f"{name}: accuracy {acc:.4f}" if acc is not None else f"{name}: accuracy undefined")
    return 0


def _cmd_score(args) -> int:
    n = score_table_file(args.model, args.data, args.schema, args.out)
    print(f"scored {n} records -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": _cmd_synth, "pipeline": _cmd_pipeline, "score": _cmd_score}
    try:
        return handlers[args.command](args)
    except ScreenfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 1


if __name__ == "__main__":
    sys.exit(main())
