"""Benchmark of the foon package: end-to-end metrics per workload, and a
traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run it from anywhere inside a checkout; it imports ``foon`` from ``src/``
of that checkout and writes only under ``.perfbench_work/`` there.
``--workload all`` runs every workload and prints one result line each.

Workloads (``workloads.py``): ``warm_found`` and ``warm_unreachable``, in
each of which one worker process loads a universe and then answers
``foon.retrieve`` queries.  One client, closed loop: an operation starts
when the previous one has ended.  Everything runs one process at a time;
a traced run adds a few ``python -m foon`` processes, one at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see ``README.md``), with the units that ``BENCHMARK.json`` gives them.
Every answer is checked here against the reference in ``universe.py``.  ``failed`` counts every operation whose status is not
``ok``.  ``correct`` is false when an answer is wrong: a wrong verdict, an
invalid tree, an unexpected exception or exit code.  Three kinds of failure
are counted but leave ``correct`` true, because the package already has
them: a valid ``ids`` tree deeper than the reference minimum, a
RecursionError on a deep chain, and an operation past its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import ALGORITHM_KEYS, layer_metrics  # noqa: E402
from universe import motions_text  # noqa: E402

SETUP_SAMPLES = 11  # fresh processes per run; setup_s is their median
CLI_LIMIT_S = 30.0  # a CLI operation still running after this is a failure
FAILURE_KINDS = ("wrong", "deeper")  # answers that fail the check


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    return env


def write_inputs(workload: workloads.Workload, work: Path) -> None:
    universe = workload.universe
    (work / "universe.txt").write_text(universe.foon_text(), encoding="utf-8")
    (work / "motions.txt").write_text(motions_text(), encoding="utf-8")
    for index, kitchen in enumerate(workload.kitchens):
        (work / f"kitchen{index}.txt").write_text(universe.kitchen_text(kitchen), encoding="utf-8")
    for query in workload.probe:
        (work / f"goal{query.goal}.txt").write_text(universe.goal_text(query.goal), encoding="utf-8")
    spec = {
        "kitchens": [universe.kitchen_text(kitchen) for kitchen in workload.kitchens],
        "motions": motions_text(),
        "queries": [[q.algorithm, q.kitchen, universe.goal_text(q.goal)]
                    for q in workload.queries],
        "min_ops": workload.min_ops,
        "trace_ops": workload.trace_ops,
    }
    (work / "queries.json").write_text(json.dumps(spec), encoding="utf-8")


def setup_sample(work: Path, env) -> float:
    """One fresh worker process's first parse_foon + build_graph, in s."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "setup", "universe.txt"],
        cwd=work, env=env, capture_output=True, text=True, timeout=30, check=True,
    )
    return json.loads(done.stdout)["setup_s"]


def cli_argv(query: workloads.Query) -> list[str]:
    files = ["--foon", "universe.txt", "--kitchen", f"kitchen{query.kitchen}.txt",
             "--goal", f"goal{query.goal}.txt", "--motions", "motions.txt"]
    if query.algorithm == "compare":
        return ["compare", *files, "--json", "out.json"]
    return ["retrieve", *files, "--algorithm", query.algorithm,
            "--out", "tree.txt", "--dot", "tree.dot", "--json", "out.json"]


def check_compare(workload, query, work: Path) -> tuple[str, str, list[str]]:
    report = json.loads((work / "out.json").read_text(encoding="utf-8"))["algorithms"]
    problems: dict[str, tuple[str, str]] = {}
    for algorithm in workloads.ALGORITHMS:
        entry = report[algorithm]
        expected = workloads.expects_tree(workloads.Query(algorithm, 0, 0, query.level))
        if (entry["outcome"] == "found") != expected:
            problems[algorithm] = ("wrong", f"{algorithm} outcome {entry['outcome']}")
        elif expected:
            depth = entry["metrics"]["max_chain_depth"]
            if depth < query.level:
                problems[algorithm] = ("wrong", f"{algorithm} depth {depth} below the minimum")
            elif algorithm == "ids" and depth > query.level:
                problems[algorithm] = ("deeper", f"ids depth {depth}, minimum {query.level}")
    for kind in FAILURE_KINDS:
        blamed = [a for a, (k, _) in problems.items() if k == kind]
        if blamed:
            return kind, "; ".join(d for _, d in problems.values()), blamed
    return "ok", "", []


def check_cli(workload, query, work: Path, done) -> tuple[str, str, list[str]]:
    """Status, detail and blamed algorithms of one CLI operation."""
    operation = query.algorithm
    if done.returncode != 0:
        if "RecursionError" in done.stderr:
            return "recursion", "RecursionError", []
        if done.returncode == 1 and operation != "compare" and "no task tree found" in done.stderr:
            status, detail = workloads.verdict(workload, query, None, None)
            return status, detail, [operation]
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return "wrong", f"exit code {done.returncode}: {tail[0]}", []
    try:
        if operation == "compare":
            return check_compare(workload, query, work)
        return check_retrieve(workload, query, work)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed products
        return "wrong", f"unreadable output: {exc!r}", []


def check_retrieve(workload, query, work: Path) -> tuple[str, str, list[str]]:
    operation = query.algorithm
    blocks = (work / "tree.txt").read_text(encoding="utf-8").split("//\n")
    text_ids = workload.universe.text_ids
    if blocks[-1] or any(block not in text_ids for block in blocks[:-1]):
        return "wrong", "tree text holds a unit that is not in the universe", [operation]
    steps = [text_ids[block] for block in blocks[:-1]]
    status, detail = workloads.verdict(workload, query, steps, None)
    report = json.loads((work / "out.json").read_text(encoding="utf-8"))
    if status in ("ok", "deeper") and (
        report["outcome"] != "found" or report["metrics"]["unit_count"] != len(steps)
    ):
        status, detail = "wrong", "JSON report disagrees with the tree text"
    if status in ("ok", "deeper") and not (work / "tree.dot").read_text().startswith("digraph"):
        status, detail = "wrong", "DOT output is not a digraph"
    return status, detail, [operation] if status != "ok" else []


def cli_op(workload, query, work: Path, env, spans_file: str | None = None):
    """One CLI process; returns (record, spans payload or None)."""
    for name in ("tree.txt", "tree.dot", "out.json", "spans.json"):
        (work / name).unlink(missing_ok=True)
    started = time.perf_counter()
    if spans_file is None:
        command = [sys.executable, "-m", "foon", *cli_argv(query)]
    else:
        command = [sys.executable, str(HERE / "cli_child.py"), repr(started), spans_file,
                   *cli_argv(query)]
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True,
                              timeout=CLI_LIMIT_S)
    except subprocess.TimeoutExpired:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return [query.algorithm, elapsed_ms, "timeout", "", []], None
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    status, detail, blame = check_cli(workload, query, work, done)
    payload = None
    if spans_file is not None and (work / spans_file).exists():
        payload = json.loads((work / spans_file).read_text(encoding="utf-8"))
    return [query.algorithm, elapsed_ms, status, detail, blame], payload


def absorb(spans: list[dict], payload, op: str) -> None:
    """Append a child's spans, re-basing parent indexes and tagging ``op``."""
    offset = len(spans)
    for span in payload["spans"]:
        if span["parent"] is not None:
            span["parent"] += offset
        span["op"] = op
        spans.append(span)


def warm_worker(workload, seconds: float, trace: bool, work, env) -> dict:
    """Run the warm worker, then check its answers; records become
    ``[algorithm, ms, status, detail, blamed algorithms]``."""
    result_file = work / "worker.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "warm", "universe.txt", "queries.json",
         str(seconds), "1" if trace else "0", str(result_file)],
        cwd=work, env=env, check=True, timeout=170,
    )
    result: dict = {"records": [], "indexes": []}
    with result_file.open(encoding="utf-8") as lines:
        for line in lines:
            entry = json.loads(line)
            if isinstance(entry, dict):  # the traced run's spans
                result.update(entry)
                continue
            index, elapsed_ms, steps, error = entry
            query = workload.queries[index]
            status, detail = workloads.verdict(workload, query, steps, error)
            blame = [query.algorithm] if status in FAILURE_KINDS else []
            result["records"].append([query.algorithm, elapsed_ms, status, detail, blame])
            result["indexes"].append(index)
    return result


def best_per_query(records: list, indexes: list[int]) -> list[float]:
    """Each query's shortest latency over the passes of the run, in ms."""
    best: dict[int, float] = {}
    for record, index in zip(records, indexes):
        best[index] = min(best.get(index, record[1]), record[1])
    return list(best.values())


def end_to_end(workload, seconds, work, env) -> tuple[list, dict]:
    """End-to-end metrics.  Half the set-up samples are taken before the
    worker and half after it, so that their median does not hang on how
    fast the machine was in one moment.

    The latencies are each query's best over the passes of the run.  The
    shared host runs the same code up to half again as slow for stretches
    of seconds to minutes; a query's best of many passes, some seconds
    apart, is far less sensitive to that than any one execution."""
    setup = [setup_sample(work, env) for _ in range(SETUP_SAMPLES // 2)]
    result = warm_worker(workload, seconds, False, work, env)
    records = result["records"]
    latencies = best_per_query(records, result["indexes"])
    setup += [setup_sample(work, env) for _ in range(SETUP_SAMPLES - len(setup))]
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1],
        "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "ok_share": sum(record[2] == "ok" for record in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return records, values


def traced(workload, seconds, work, env) -> tuple[list, dict]:
    """Per-layer metrics.  The records returned include the CLI probe; the
    ``check.*`` metrics leave it out."""
    starts: list[float] = []
    result = warm_worker(workload, seconds, True, work, env)
    records, spans, overhead_ms = result["records"], result["spans"], result["overhead_ms"]
    probes = []
    for index, query in enumerate(workload.probe):
        record, payload = cli_op(workload, query, work, env, "spans.json")
        probes.append(record)
        if payload is not None:
            absorb(spans, payload, f"probe/{index}")
            starts.append(payload["process_start_ms"])
    first_pass = {f"0/{index}" for index in range(len(workload.queries[: workload.trace_ops]))}
    values = layer_metrics(spans, first_pass)
    values["graph.keys"] = len({n for i, _, o in workload.universe.units for n in (*i, *o)})
    for algorithm, key in ALGORITHM_KEYS.items():
        values[f"check.{key}.wrong"] = sum(
            record[2] in FAILURE_KINDS and algorithm in record[4] for record in records
        )
    values["check.fail_share"] = sum(r[2] != "ok" for r in records) / len(records)
    values["cli.process_start_ms"] = statistics.median(starts) if starts else 0.0
    values["trace.overhead_ms"] = overhead_ms
    return records + probes, values


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    units = metric_units()
    workload = workloads.build(name, seed, size)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_inputs(workload, work)
    env = child_env()
    measure = traced if trace else end_to_end
    records, values = measure(workload, seconds, work, env)
    (work / "records.json").write_text(json.dumps(records), encoding="utf-8")
    failures: dict[str, int] = {}
    for record in records:
        if record[2] != "ok":
            failures[record[2]] = failures.get(record[2], 0) + 1
    print(f"{name} seed {seed}: {len(records)} operations, failures {failures}", file=sys.stderr)
    for record in [r for r in records if r[2] == "wrong"][:5]:
        print(f"  wrong: {record[0]}: {record[3]}", file=sys.stderr)
    return {
        "correct": "wrong" not in failures,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: a few-second smoke run on small universes")
    args = parser.parse_args()
    if not (ROOT / "src" / "foon" / "__init__.py").is_file():
        print(f"no foon package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":  # one process per workload keeps peak_rss_mb apart
        for name in workloads.WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--size", args.size]
            last = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
            print(json.dumps({"workload": name, **json.loads(last.stdout.splitlines()[-1])}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
