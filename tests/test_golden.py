"""Golden CLI snapshots: every fixture's products, compared byte for byte.

Each case runs ``foon.cli.main`` in-process on one fixture and records its
exit code, stdout, stderr and every file it writes.  The stored copies live
in ``fixtures/golden/<fixture>/<case>/``; the test diffs a fresh run against
them, so a change to any tree, DOT or JSON byte, message or exit code shows
up here.  Regenerate them only after an intended change to the products:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest

from foon.cli import main

from helpers import FIXTURE_DIR, FIXTURE_NAMES, fixture_path

GOLDEN_DIR = FIXTURE_DIR / "golden"
CASES = [
    "validate",
    "retrieve-ids",
    "retrieve-gbfs-success",
    "retrieve-gbfs-inputs",
    "compare",
]


def _argv(fixture: str, case: str, workdir: Path) -> list[str]:
    if case == "validate":
        return ["validate", str(fixture_path(fixture, "foon"))]
    inputs = []
    for kind in ("foon", "kitchen", "goal", "motions"):
        inputs += [f"--{kind}", str(fixture_path(fixture, kind))]
    if case == "compare":
        return ["compare", *inputs, "--json", str(workdir / "report.json")]
    return [
        "retrieve", *inputs,
        "--algorithm", case.removeprefix("retrieve-"),
        "--out", str(workdir / "tree.txt"),
        "--dot", str(workdir / "tree.dot"),
        "--json", str(workdir / "tree.json"),
    ]


def run_case(fixture: str, case: str, workdir: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and the product files of one CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(_argv(fixture, case, workdir))
    products = {
        "exit_code": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
    }
    for path in sorted(workdir.iterdir()):
        products[path.name] = path.read_bytes()
    return products


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_cli_matches_golden_snapshot(fixture, case, tmp_path):
    fresh = run_case(fixture, case, tmp_path)
    stored_dir = GOLDEN_DIR / fixture / case
    stored = {path.name: path.read_bytes() for path in stored_dir.iterdir()}
    assert sorted(fresh) == sorted(stored)
    for name, content in stored.items():
        assert fresh[name] == content, f"{fixture}/{case}/{name} differs"


if __name__ == "__main__":
    for fixture in FIXTURE_NAMES:
        for case in CASES:
            target = GOLDEN_DIR / fixture / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            with tempfile.TemporaryDirectory() as scratch:
                for name, content in run_case(fixture, case, Path(scratch)).items():
                    (target / name).write_bytes(content)
            print(f"wrote {target.relative_to(FIXTURE_DIR)}")
