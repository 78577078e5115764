"""Command line interface.

Subcommands: ``validate`` (parse a universe file and report problems),
``retrieve`` (find one task tree and emit it as annotation text, DOT, or
JSON metrics), ``compare`` (run every algorithm and print a metrics table).

Conventions: products of a run (task tree text, DOT, JSON, the comparison
table) go to stdout or to files named by flags and are byte-identical across
runs on the same inputs; status and diagnostics go to stderr.  Wall-clock
timings are only emitted under ``--timings``.  Exit codes: 0 success, 1 no
task tree found, 2 unreadable or invalid input (including an unknown goal
and a universe whose chains are too deep for the resolver), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NoReturn

from .errors import (
    EmptyUniverseError,
    MissingMotionRateError,
    ParseError,
    UnknownGoalError,
)
from .evaluate import compare_algorithms, tree_metrics
from .graph import FoonGraph, build_graph
from .io import (
    ERROR,
    export_dot,
    parse_foon,
    parse_goal,
    parse_kitchen,
    parse_motion_profile,
    serialize_foon,
)
from .search import (
    ALGORITHMS,
    GBFS_SUCCESS,
    RetrievalConfig,
    TaskTreeNotFound,
    retrieve,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_BAD_INPUT = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 3, not 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bounded(
    convert: Callable[[str], float], low: float, high: float, expected: str
) -> Callable[[str], float]:
    """An argparse ``type`` that converts and range-checks a flag value."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:  # NaN fails the range check
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_max_depth = _bounded(int, 1, math.inf, "a positive integer")
_rate = _bounded(float, 0.0, 1.0, "a rate in [0, 1]")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="foon",
        description="Parse FOON-style universes and retrieve task trees for a goal.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    validate = subparsers.add_parser(
        "validate", help="parse a universe file and report size and problems"
    )
    validate.add_argument("foon", help="universe annotation file")
    validate.set_defaults(handler=cmd_validate)

    retrieve_cmd = subparsers.add_parser(
        "retrieve", help="retrieve one task tree for a goal"
    )
    retrieve_cmd.add_argument("--foon", required=True, help="universe annotation file")
    retrieve_cmd.add_argument("--kitchen", required=True, help="available-objects file")
    retrieve_cmd.add_argument("--goal", required=True, help="goal object file")
    retrieve_cmd.add_argument(
        "--algorithm", required=True, choices=list(ALGORITHMS), help="search algorithm"
    )
    retrieve_cmd.add_argument(
        "--motions", help="motion success rate file (required by gbfs-success)"
    )
    retrieve_cmd.add_argument(
        "--max-depth", type=_max_depth, default=50, help="depth limit for ids (default 50)"
    )
    retrieve_cmd.add_argument(
        "--default-rate",
        type=_rate,
        default=None,
        help="success rate for motions missing from the profile",
    )
    retrieve_cmd.add_argument(
        "--strict-motions",
        action="store_true",
        help="fail on motions missing from the profile; ignores --default-rate",
    )
    retrieve_cmd.add_argument(
        "--no-backtrack",
        action="store_true",
        help="greedy search commits to its first choice instead of retrying",
    )
    retrieve_cmd.add_argument("--out", help="write the task tree text here instead of stdout")
    retrieve_cmd.add_argument("--dot", help="also write the task tree as Graphviz DOT")
    retrieve_cmd.add_argument("--json", help="also write metrics and stats as JSON")
    retrieve_cmd.set_defaults(handler=cmd_retrieve)

    compare = subparsers.add_parser(
        "compare", help="run every algorithm and print a metrics table"
    )
    compare.add_argument("--foon", required=True, help="universe annotation file")
    compare.add_argument("--kitchen", required=True, help="available-objects file")
    compare.add_argument("--goal", required=True, help="goal object file")
    compare.add_argument("--motions", required=True, help="motion success rate file")
    compare.add_argument(
        "--max-depth", type=_max_depth, default=50, help="depth limit for ids (default 50)"
    )
    compare.add_argument("--json", help="also write the report as JSON")
    compare.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (makes output nondeterministic)",
    )
    compare.set_defaults(handler=cmd_compare)
    return parser


def _count(number: int, noun: str) -> str:
    return f"{number} {noun}" + ("" if number == 1 else "s")


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> FoonGraph:
    """Parse and index a universe file, printing diagnostics to stderr.

    Raises ParseError when any error-severity diagnostic was reported.
    """
    units, diagnostics = parse_foon(Path(path).read_bytes())
    failed = False
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)
        failed = failed or diagnostic.severity == ERROR
    if failed:
        raise ParseError(f"cannot parse {path}")
    graph = build_graph(units)
    if graph.duplicates_dropped:
        print(
            f"warning: dropped {_count(graph.duplicates_dropped, 'duplicate unit')}",
            file=sys.stderr,
        )
    return graph


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        graph = _load_graph(args.foon)
    except ParseError:
        return EXIT_BAD_INPUT  # the diagnostics are already on stderr
    nodes = {node.key for unit in graph.units for node in (*unit.inputs, *unit.outputs)}
    print(f"{_count(len(graph.units), 'unit')}, {_count(len(nodes), 'object node')}")
    return EXIT_OK


def cmd_retrieve(args: argparse.Namespace) -> int:
    default_rate = None if args.strict_motions else args.default_rate
    if args.algorithm == GBFS_SUCCESS and args.motions is None and default_rate is None:
        ignored = ""
        if args.default_rate is not None:
            ignored = " (--strict-motions ignores --default-rate)"
        print(
            "foon retrieve: error: --algorithm gbfs-success requires --motions"
            f" or --default-rate{ignored}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    graph = _load_graph(args.foon)
    kitchen = parse_kitchen(_read_text(args.kitchen))
    goal = parse_goal(_read_text(args.goal))
    profile = None
    if args.motions is not None or args.default_rate is not None:
        text = "" if args.motions is None else _read_text(args.motions)
        profile = parse_motion_profile(text, default_rate)
    config = RetrievalConfig(
        algorithm=args.algorithm,
        max_depth=args.max_depth,
        motion_profile=profile,
        backtrack=not args.no_backtrack,
    )
    tree, stats = retrieve(graph, goal, kitchen, config)
    # Every product is built before any is written, so a run that fails
    # (a motion without a rate, say) leaves no partial output behind.
    tree_text = serialize_foon(tree.steps)
    dot_text = export_dot(tree) if args.dot else ""
    metrics = tree_metrics(tree, profile, kitchen=kitchen) if args.json else None
    if args.out:
        Path(args.out).write_text(tree_text, encoding="utf-8")
    else:
        sys.stdout.write(tree_text)
    if args.dot:
        Path(args.dot).write_text(dot_text, encoding="utf-8")
    if args.json:
        _write_json(
            args.json,
            {
                "algorithm": tree.algorithm_tag,
                "goal": tree.goal_key,
                "outcome": "found",
                "metrics": asdict(metrics),
                "stats": asdict(stats),
            },
        )
    if tree.steps:
        print(
            f"retrieved a task tree with {_count(len(tree.steps), 'step')}"
            f" via {tree.algorithm_tag}",
            file=sys.stderr,
        )
    else:
        print("goal already satisfied by the kitchen", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.foon)
    kitchen = parse_kitchen(_read_text(args.kitchen))
    goal = parse_goal(_read_text(args.goal))
    profile = parse_motion_profile(_read_text(args.motions))
    report = compare_algorithms(
        graph,
        goal,
        kitchen,
        profile,
        max_depth=args.max_depth,
        fixture=Path(args.foon).name,
    )
    sys.stdout.write(report.to_table(include_timings=args.timings))
    if args.json:
        _write_json(args.json, report.to_json_dict(include_timings=args.timings))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits for usage errors and --help
        return exit_.code if isinstance(exit_.code, int) else EXIT_OK
    try:
        return args.handler(args)
    except TaskTreeNotFound as miss:
        print(f"no task tree found: {miss.reason}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (
        ParseError,
        EmptyUniverseError,
        UnknownGoalError,
        MissingMotionRateError,
        OSError,
        UnicodeDecodeError,
        RecursionError,
    ) as problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
