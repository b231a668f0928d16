"""Command line front end.

Subcommands:
  granite run  --config FILE                         full experiment
  granite mine REPO --tags GLOB [--out FILE]         change histories only
  granite eval --predictions FILE --k LIST           effort ratios for external scores

GRANITE_LOG sets the log level (DEBUG, INFO, WARNING, ERROR).  A bad config,
repository, predictions file or output path ends the command with one line on
stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import math
import os
import sys
from typing import List, Optional

from granite import __version__
from granite.evaluation import (
    ChangeSizes,
    PredictionScore,
    change_sizes,
    rank_by_score,
    top_k_change_ratio,
    top_k_cutoff,
)
from granite.experiment import DEFAULT_K, load_config, run_experiment
from granite.gitrepo import GitRepo, RepositoryError
from granite.javaparse import parse_module_id
from granite.tracking import HistoryScanner, module_loc


def _setup_logging() -> None:
    level = os.environ.get("GRANITE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _open_out(path: Optional[str]):
    """The --out file to write, or stdout (left open on exit) when none is given."""
    return open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout)


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        return _usage_error(f"granite: {exc}")
    try:
        return run_experiment(config)
    except OSError as exc:  # the output directory cannot be made or written
        return _usage_error(f"granite: {exc}")


def _cmd_mine(args) -> int:
    try:
        repo = GitRepo(args.repo)
    except RepositoryError as exc:
        return _usage_error(f"granite: {exc}")
    with repo:
        try:
            out = _open_out(args.out)
        except OSError as exc:
            return _usage_error(f"granite: {exc}")
        with out as fp:
            scanner = HistoryScanner(repo)
            pairs = repo.release_pairs(args.tags)
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(
                ["release_pair", "granularity", "module_id", "loc",
                 "changes", "total_churn", "delta_release", "delta_commit"]
            )
            for pair in pairs:
                scan = scanner.change_histories(pair.commits)
                for module in scan.alive_at_start():
                    sizes = change_sizes(scan, module)
                    writer.writerow(
                        [pair.label, module.kind, str(module), module_loc(scan.start_defs[module]),
                         len(scan.histories[module].events), sizes.delta_commit,
                         sizes.delta_release, sizes.delta_commit]
                    )
    return 0


def _cmd_eval(args) -> int:
    try:
        k_values = [int(k) for k in args.k.split(",") if k.strip()]
    except ValueError:
        k_values = []
    if not k_values or k_values != sorted(set(k_values)) or k_values[0] <= 0:
        return _usage_error("--k must be a strictly increasing list of positive integers")

    scored: List[PredictionScore] = []
    locs = {}
    sizes = {}
    try:
        fp = open(args.predictions, encoding="utf-8", newline="")
    except OSError as exc:
        return _usage_error(f"granite: {exc}")
    with fp:
        reader = csv.DictReader(fp, restval="")  # a short row's missing fields read as empty
        for row in reader:
            try:
                module = parse_module_id(row["module_id"])
                score, loc = float(row["score"]), int(row["loc"])
                delta_release, delta_commit = int(row["delta_release"]), int(row["delta_commit"])
            except KeyError as exc:
                problem = f"no column {exc.args[0]}"
            except ValueError as exc:
                problem = str(exc)
            else:
                problem = (
                    f"module_id {row['module_id']} appears twice" if module in locs
                    else "score is NaN" if math.isnan(score)
                    else f"loc must be a positive integer, got {loc}" if loc < 1
                    else None
                )
            if problem:
                return _usage_error(f"{args.predictions}:{reader.line_num}: {problem}")
            scored.append(PredictionScore(module, score))
            locs[module] = loc
            sizes[module] = ChangeSizes(module, delta_release, delta_commit)
    ranking = rank_by_score(scored, locs)
    try:
        out = _open_out(args.out)
    except OSError as exc:
        return _usage_error(f"granite: {exc}")
    with out as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["kind", "k", "cutoff", "ratio"])
        for kind in ("release", "commit"):
            for k in k_values:
                ratio = top_k_change_ratio(ranking, k, sizes, kind)
                writer.writerow([kind, k, top_k_cutoff(ranking, k),
                                 "" if ratio is None else repr(float(ratio))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="granite", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"granite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.set_defaults(func=_cmd_run)

    p_mine = sub.add_parser("mine", help="emit per-module change histories")
    p_mine.add_argument("repo", help="path to a local Git repository")
    p_mine.add_argument("--tags", default="*", help="release tag glob (default '*')")
    p_mine.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_mine.set_defaults(func=_cmd_mine)

    p_eval = sub.add_parser("eval", help="effort-aware evaluation of external scores")
    p_eval.add_argument("--predictions", required=True,
                        help="CSV with module_id, score, loc, delta_release, delta_commit")
    p_eval.add_argument("--k", default=",".join(str(k) for k in DEFAULT_K),
                        help="comma-separated LOC budgets")
    p_eval.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
