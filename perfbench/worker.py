"""Worker processes: the set-up probe and the warm closed loop.

    python3 perfbench/worker.py setup UNIVERSE_FILE
        Parse and index the universe once in this fresh process and print
        ``{"setup_s": ...}``: the first parse_foon + build_graph, before the
        process-global node-key cache has seen any node.

    python3 perfbench/worker.py warm UNIVERSE_FILE QUERIES_FILE SECONDS TRACE RESULT_FILE
        Load the universe, then run the queries of QUERIES_FILE one at a
        time, each as parse kitchen + goal + motions and one
        ``foon.retrieve``; only that is timed.  With TRACE=1 the loop
        alternates an untraced and a traced pass over the first
        ``trace_ops`` queries.  RESULT_FILE gets one JSON line per
        operation, ``[query index, ms, unit ids of the tree or null, [error
        type, message] or null]``, written as the loop goes so that the
        answers do not pile up in memory, then, when traced, a last line
        ``{"spans": ..., "overhead_ms": ...}``.  ``run.py`` checks the
        answers.

QUERIES_FILE is JSON: ``kitchens`` (kitchen texts), ``motions`` (motion
profile text), ``queries`` (``[algorithm, kitchen index, goal text]``),
``min_ops`` and ``trace_ops``.  The worker holds nothing else beside the
package's own objects, so its max RSS is the package's.  Both modes expect
``foon`` on the import path; ``run.py`` starts them that way.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import foon

from spans import Tracer

OP_LIMIT_S = 20.0  # an operation still running after this is a failure
LOOP_DEADLINE_S = 120.0  # stop early rather than overrun a run's time limit


class OpTimeout(Exception):
    """Raised by SIGALRM when an operation runs past OP_LIMIT_S."""


def _alarm(_signum, _frame):
    raise OpTimeout()


def keep_running(started: float, done: int, seconds: float, min_ops: int) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed < LOOP_DEADLINE_S and (elapsed < seconds or done < min_ops)


def passes(count: int, seconds: float, min_ops: int):
    """Yield query indexes ``0 .. count-1`` in whole passes until
    ``keep_running`` says stop; only past LOOP_DEADLINE_S does a pass end
    early.  Whole passes keep the mix of queries the same however fast the
    machine is."""
    started, done = time.perf_counter(), 0
    while done == 0 or keep_running(started, done, seconds, min_ops):
        for index in range(count):
            if time.perf_counter() - started > LOOP_DEADLINE_S:
                return
            yield index
            done += 1


def setup(path: str) -> None:
    data = Path(path).read_bytes()
    started = time.perf_counter()
    units, diagnostics = foon.parse_foon(data)
    foon.build_graph(units)
    elapsed = time.perf_counter() - started
    if any(d.severity == "error" for d in diagnostics):
        sys.exit(f"universe did not parse: {diagnostics[:3]}")
    print(json.dumps({"setup_s": elapsed}))


def run_query(graph, spec: dict, index: int) -> list:
    """Time query ``index``; returns its record."""
    algorithm, kitchen_index, goal_text = spec["queries"][index]
    kitchen_text, motions = spec["kitchens"][kitchen_index], spec["motions"]
    steps = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    started = time.perf_counter()
    try:
        kitchen = foon.parse_kitchen(kitchen_text)
        goal = foon.parse_goal(goal_text)
        profile = foon.parse_motion_profile(motions)
        config = foon.RetrievalConfig(algorithm=algorithm, motion_profile=profile)
        tree, _stats = foon.retrieve(graph, goal, kitchen, config)
        steps = [unit.source_index for unit in tree.steps]
    except foon.TaskTreeNotFound:
        pass
    except Exception as exc:  # every other outcome is checked by run.py
        error = [type(exc).__name__, str(exc)[:200]]
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return [index, elapsed_ms, steps, error]


def warm(path, queries_path, seconds, traced, result_path) -> None:
    signal.signal(signal.SIGALRM, _alarm)
    spec = json.loads(Path(queries_path).read_text(encoding="utf-8"))
    data = Path(path).read_bytes()
    tracer = Tracer()
    if traced:
        tracer.op = "setup"
        tracer.install()
    units, _diagnostics = foon.parse_foon(data)
    graph = foon.build_graph(units)
    tracer.uninstall()
    loop_start, seconds = time.perf_counter(), float(seconds)
    with open(result_path, "w", encoding="utf-8") as out:

        def emit(record) -> None:
            out.write(json.dumps(record) + "\n")

        if not traced:
            for index in passes(len(spec["queries"]), seconds, spec["min_ops"]):
                emit(run_query(graph, spec, index))
            return
        prefix = range(min(spec["trace_ops"], len(spec["queries"])))
        extra_ms = []
        rounds = 0
        while rounds == 0 or keep_running(loop_start, rounds * len(prefix), seconds,
                                          spec["min_ops"]):
            untraced = [run_query(graph, spec, index)[1] for index in prefix]
            tracer.install()
            for index in prefix:
                tracer.op = f"{rounds}/{index}"
                record = run_query(graph, spec, index)
                extra_ms.append(record[1] - untraced[index])
                if rounds == 0:
                    emit(record)
            tracer.uninstall()
            rounds += 1
        emit({"spans": tracer.spans, "overhead_ms": statistics.median(extra_ms)})


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        path, queries_path, seconds, traced, result_path = sys.argv[2:7]
        warm(path, queries_path, seconds, traced == "1", result_path)
