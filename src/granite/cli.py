"""Command line front end.

Subcommands:
  granite run  --config FILE [--seed S]              full experiment
  granite mine REPO --tags GLOB [--out FILE]         change histories only
  granite eval --predictions FILE --k LIST           effort ratios for external scores

GRANITE_LOG sets the log level (DEBUG, INFO, WARNING, ERROR).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import os
import sys
from typing import List, Optional

from granite import __version__
from granite.evaluation import ChangeSizes, change_sizes, rank_by_score, top_k_change_ratio, top_k_cutoff
from granite.experiment import DEFAULT_K, load_config, run_experiment
from granite.forest import PredictionScore
from granite.gitrepo import GitRepo
from granite.javaparse import parse_module_id
from granite.tracking import HistoryScanner, count_changes_between, dump_modules_jsonl, module_loc


def _setup_logging() -> None:
    level = os.environ.get("GRANITE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return run_experiment(config)


def _cmd_mine(args) -> int:
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    dump = open(args.dump_modules, "w", encoding="utf-8") if args.dump_modules else None
    try:
        with GitRepo(args.repo) as repo:
            scanner = HistoryScanner(repo)
            pairs = repo.release_pairs(args.tags)
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(
                ["release_pair", "granularity", "module_id", "loc",
                 "changes", "total_churn", "delta_release", "delta_commit"]
            )
            for pair in pairs:
                scan = scanner.change_histories(pair.commits)
                if dump is not None:
                    dump_modules_jsonl(scan.start_defs.values(), dump)
                for module in scan.alive_at_start():
                    history = scan.histories[module]
                    end = scan.end_defs.get(module)
                    sizes = change_sizes(
                        module, history, scan.start_defs[module].body,
                        end.body if end is not None else (),
                    )
                    writer.writerow(
                        [pair.label, module.kind, str(module),
                         module_loc(scan.start_defs[module]),
                         count_changes_between(history),
                         sum(e.churn for e in history.events),
                         sizes.delta_release, sizes.delta_commit]
                    )
    finally:
        if out is not sys.stdout:
            out.close()
        if dump is not None:
            dump.close()
    return 0


def _cmd_eval(args) -> int:
    k_values = [int(k) for k in args.k.split(",") if k.strip()]
    if not k_values or k_values != sorted(set(k_values)) or k_values[0] <= 0:
        print("--k must be a strictly increasing list of positive integers", file=sys.stderr)
        return 2

    scored: List[PredictionScore] = []
    locs = {}
    sizes = {}
    with open(args.predictions, encoding="utf-8", newline="") as fp:
        reader = csv.DictReader(fp)
        for row in reader:
            module = parse_module_id(row["module_id"])
            score, loc = float(row["score"]), int(row["loc"])
            problem = (
                f"module_id {row['module_id']} appears twice" if module in locs
                else "score is NaN" if math.isnan(score)
                else f"loc must be a positive integer, got {loc}" if loc < 1
                else None
            )
            if problem:
                print(f"{args.predictions}:{reader.line_num}: {problem}", file=sys.stderr)
                return 2
            scored.append(PredictionScore(module, score))
            locs[module] = loc
            sizes[module] = ChangeSizes(
                module, int(row["delta_release"]), int(row["delta_commit"])
            )
    ranking = rank_by_score(scored, locs)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "k", "cutoff", "ratio"])
        for kind in ("release", "commit"):
            for k in k_values:
                ratio = top_k_change_ratio(ranking, k, sizes, kind)
                writer.writerow([kind, k, top_k_cutoff(ranking, k),
                                 "" if ratio is None else repr(float(ratio))])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="granite", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"granite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_mine = sub.add_parser("mine", help="emit per-module change histories")
    p_mine.add_argument("repo", help="path to a local Git repository")
    p_mine.add_argument("--tags", default="*", help="release tag glob (default '*')")
    p_mine.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_mine.add_argument("--dump-modules", default=None, help="JSONL dump of extracted modules")
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
