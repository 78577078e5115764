"""Print one digest of what ``retrieve`` answers on a fixed sweep.

The sweep is ``random_universe`` seeds 0-1499, each with every algorithm,
backtracking on and off, and ``max_depth`` 50 and 2: 18,000 retrievals.  The
digest covers each tree (steps by ``source_index``, goal key and tag), its
stats, each not-found reason and every choice record of the trace, so two
versions of the package that print the same digest answer the sweep alike.

    PYTHONPATH=src python tests/retrieval_digest.py

Point ``PYTHONPATH`` at another checkout's ``src`` to digest that version
with this sweep.  The file is not a test module, so pytest does not collect
it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict

import foon

from helpers import random_universe

SEEDS = range(1500)
MAX_DEPTHS = (50, 2)


def _outcome(graph, goal, kitchen, config) -> str:
    trace: list = []
    try:
        tree, stats = foon.retrieve(graph, goal, kitchen, config, trace=trace)
        answer = [[unit.source_index for unit in tree.steps], tree.goal_key, tree.algorithm_tag]
    except foon.TaskTreeNotFound as miss:
        answer, stats = miss.reason, miss.stats
    records = [
        [r.key, [[unit.source_index, score] for unit, score in r.candidates], r.accepted]
        for r in trace
    ]
    return repr((answer, asdict(stats), records))


def digest() -> tuple[str, int]:
    """The sweep's SHA-256 and its number of retrievals."""
    sha, count = hashlib.sha256(), 0
    for seed in SEEDS:
        graph, goal, kitchen, profile = random_universe(random.Random(seed))
        for algorithm in foon.ALGORITHMS:
            for backtrack in (True, False):
                for max_depth in MAX_DEPTHS:
                    config = foon.RetrievalConfig(
                        algorithm=algorithm,
                        max_depth=max_depth,
                        motion_profile=profile,
                        backtrack=backtrack,
                    )
                    sha.update(_outcome(graph, goal, kitchen, config).encode())
                    sha.update(b"\n")
                    count += 1
    return sha.hexdigest(), count


if __name__ == "__main__":
    value, count = digest()
    print(f"{value}  {count} retrievals")
