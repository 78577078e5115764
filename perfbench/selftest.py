"""Self-test of the benchmark: its reference, its tree checker, and a tiny
smoke run of every workload.

    python3 perfbench/selftest.py [--seeds N]

1. On N small random universes (the style of the test suite's
   ``random_universe``), the fixpoint reference must agree with
   ``foon.enumerate_all_task_trees``: the goal is reachable exactly when the
   oracle lists a tree, and the reference level is the smallest chain depth
   over the oracle's trees.  Every oracle tree must pass ``check_tree``, and
   two broken variants of it must fail.
2. The text the benchmark maps CLI output back to units with must be the
   package's own canonical text: ``serialize_foon(parse_foon(text)) == text``.
3. ``run.py --size tiny`` on every workload, untraced and traced, must print
   a correct result whose metric names are exactly those that
   BENCHMARK.json lists for that mode.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import foon  # noqa: E402

import universe as gen  # noqa: E402
import workloads  # noqa: E402


def check_reference(seed: int) -> list[str]:
    rng = random.Random(seed)
    universe, kitchen, goal = gen.random_small(rng)
    units, _diagnostics = foon.parse_foon(universe.foon_text())
    graph = foon.build_graph(units)
    trees = foon.enumerate_all_task_trees(
        graph,
        foon.parse_goal(universe.goal_text(goal)),
        foon.parse_kitchen(universe.kitchen_text(kitchen)),
    )
    level = gen.min_levels(universe, kitchen).get(goal)
    problems = []
    if (level is not None) != bool(trees):
        problems.append(f"seed {seed}: reference level {level}, oracle has {len(trees)} trees")
    depths = []
    for tree in trees:
        steps = [unit.source_index for unit in tree.steps]
        ok, depth, problem = gen.check_tree(universe, steps, kitchen, goal)
        if not ok:
            problems.append(f"seed {seed}: oracle tree rejected: {problem}")
        depths.append(depth)
        if steps:
            other = next((i for i, u in enumerate(universe.units) if goal not in u[2]), None)
            broken = [steps + steps[-1:]] + ([steps + [other]] if other is not None else [])
            for variant in broken:
                if gen.check_tree(universe, variant, kitchen, goal)[0]:
                    problems.append(f"seed {seed}: broken tree {variant} accepted")
    if trees and level is not None and min(depths) != level:
        problems.append(f"seed {seed}: reference level {level}, oracle minimum {min(depths)}")
    return problems


def check_round_trip() -> list[str]:
    for name in workloads.WORKLOADS:
        text = workloads.build(name, 0, "tiny").universe.foon_text()
        units, _diagnostics = foon.parse_foon(text)
        if foon.serialize_foon(units) != text:
            return [f"{name}: serialize_foon(parse_foon(text)) differs from the generated text"]
    return []


def check_smoke_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170,
            )
            if done.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(result)}")
            elif not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {result['attempted']} attempted, not correct")
            else:
                names = set(result["metrics"])
                if names != expected[trace]:
                    problems.append(
                        f"{name} trace {trace}: metric names differ from BENCHMARK.json:"
                        f" {sorted(names ^ expected[trace])}"
                    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2000, help="random universes to check")
    args = parser.parse_args()
    problems = []
    for seed in range(args.seeds):
        problems += check_reference(seed)
    problems += check_round_trip()
    problems += check_smoke_runs()
    for problem in problems:
        print(problem)
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
