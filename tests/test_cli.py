"""Command line behavior: exit codes, outputs, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from foon import FunctionalUnit, Motion, ObjectNode, parse_foon, serialize_foon
from foon.cli import main

from helpers import fixture_path, load_universe


def _paths(name):
    return {
        "foon": str(fixture_path(name, "foon")),
        "kitchen": str(fixture_path(name, "kitchen")),
        "goal": str(fixture_path(name, "goal")),
        "motions": str(fixture_path(name, "motions")),
    }


def _retrieve_args(name, algorithm, **extra):
    p = _paths(name)
    args = [
        "retrieve",
        "--foon", p["foon"],
        "--kitchen", p["kitchen"],
        "--goal", p["goal"],
        "--algorithm", algorithm,
    ]
    for flag, value in extra.items():
        args.append(f"--{flag.replace('_', '-')}")
        if value is not True:
            args.append(str(value))
    return args


# --- validate ----------------------------------------------------------------


def test_validate_reports_counts(capsys):
    assert main(["validate", str(fixture_path("chop_onion", "foon"))]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1 unit, 6 object nodes\n"
    assert captured.err == ""


def test_validate_counts_units_after_dedup(capsys):
    assert main(["validate", str(fixture_path("ice_cup", "foon"))]) == 0
    assert capsys.readouterr().out.startswith("2 units,")


def test_validate_reports_errors_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("S\twhole\nO\ta\t0\n")
    assert main(["validate", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "line 1" in captured.err
    assert "error" in captured.err


def test_validate_missing_file_exits_2(capsys):
    assert main(["validate", "/no/such/file.txt"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "copies, warning", [(2, "1 duplicate unit\n"), (3, "2 duplicate units\n")]
)
def test_validate_warns_of_duplicate_units_and_counts_one(copies, warning, tmp_path, capsys):
    universe = tmp_path / "universe.txt"
    universe.write_text("O\tonion\t0\nM\tchop\nO\tonion\t0\nS\tchopped\n//\n" * copies)
    assert main(["validate", str(universe)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1 unit, 2 object nodes\n"
    assert captured.err == f"warning: dropped {warning}"


def _run_every_command(paths, out_dir, capsys):
    """Exit code, stdout, stderr and products of each command on one fixture's files."""
    results = []
    commands = [["validate", paths["foon"]]]
    for algorithm in ("ids", "gbfs-success", "gbfs-inputs"):
        commands.append([
            "retrieve", "--foon", paths["foon"], "--kitchen", paths["kitchen"],
            "--goal", paths["goal"], "--motions", paths["motions"], "--algorithm", algorithm,
            "--out", str(out_dir / f"{algorithm}.txt"), "--dot", str(out_dir / f"{algorithm}.dot"),
            "--json", str(out_dir / f"{algorithm}.json"),
        ])
    commands.append([
        "compare", "--foon", paths["foon"], "--kitchen", paths["kitchen"], "--goal",
        paths["goal"], "--motions", paths["motions"], "--json", str(out_dir / "compare.json"),
    ])
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    products = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return results, products


def test_files_that_start_with_a_byte_order_mark_read_as_without_it(tmp_path, capsys):
    inputs, plain, marked = tmp_path / "inputs", tmp_path / "plain", tmp_path / "marked"
    for folder in (inputs, plain, marked):
        folder.mkdir()
    copies = {}
    for kind, path in _paths("ice_cup").items():
        copy = inputs / Path(path).name
        copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        copies[kind] = str(copy)
    results, products = _run_every_command(_paths("ice_cup"), plain, capsys)
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 0]
    assert len(products) == 10
    assert _run_every_command(copies, marked, capsys) == (results, products)


# --- retrieve ------------------------------------------------------------------


def test_retrieve_writes_expected_tree_file(tmp_path, capsys):
    out = tmp_path / "tree.txt"
    code = main(_retrieve_args("ice_cup", "gbfs-inputs", out=out))
    assert code == 0
    units, _ = parse_foon(fixture_path("ice_cup", "foon").read_text())
    assert out.read_text() == serialize_foon([units[0]])  # the two-input pour unit
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1 step" in captured.err


def test_retrieve_stdout_when_no_out_flag(capsys):
    code = main(_retrieve_args("cold_water", "ids"))
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.count("//\n") == 2
    assert "2 steps via ids" in captured.err


def test_retrieve_satisfied_goal_writes_empty_tree(tmp_path, capsys):
    goal = tmp_path / "goal.txt"
    goal.write_text("O\tcup\t0\nS\tempty\n")
    p = _paths("ice_cup")
    out = tmp_path / "tree.txt"
    code = main([
        "retrieve", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", str(goal), "--algorithm", "ids", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == ""
    assert "goal already satisfied" in capsys.readouterr().err


def test_retrieve_not_found_exits_1(capsys):
    code = main(_retrieve_args("freeze_thaw", "ids"))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no task tree found" in captured.err


def test_retrieve_matches_states_exactly_despite_reserved_characters(tmp_path, capsys):
    # One state "dry+sifted" is not the two states "dry" and "sifted".
    universe = tmp_path / "universe.txt"
    universe.write_text("O\tflour\t0\nS\tdry+sifted\nM\tmix\nO\tbatter\t0\n//\n")
    kitchen = tmp_path / "kitchen.txt"
    kitchen.write_text("O\tflour\t0\nS\tsifted\nS\tdry\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("O\tbatter\t0\n")
    code = main([
        "retrieve", "--foon", str(universe), "--kitchen", str(kitchen),
        "--goal", str(goal), "--algorithm", "ids",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "no task tree found" in captured.err


def test_retrieve_ids_not_found_work_does_not_grow_with_max_depth(capsys):
    reasons = []
    for max_depth in (50, 5000):
        assert main(_retrieve_args("freeze_thaw", "ids", max_depth=max_depth)) == 1
        reasons.append(capsys.readouterr().err)
    assert reasons[0] == reasons[1]
    assert reasons[0].endswith("no task tree at any depth after 3 unit expansions\n")


def test_retrieve_unknown_goal_exits_2(tmp_path, capsys):
    goal = tmp_path / "goal.txt"
    goal.write_text("O\tteapot\t0\n")
    p = _paths("ice_cup")
    code = main([
        "retrieve", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", str(goal), "--algorithm", "ids",
    ])
    assert code == 2
    assert "neither produced" in capsys.readouterr().err


def test_retrieve_with_gbfs_success_needs_rates(capsys):
    code = main(_retrieve_args("ice_cup", "gbfs-success"))
    assert code == 3
    assert "--motions" in capsys.readouterr().err


def test_retrieve_with_gbfs_success_accepts_default_rate(capsys):
    code = main(_retrieve_args("ice_cup", "gbfs-success", default_rate=0.5))
    assert code == 0
    capsys.readouterr()


def test_retrieve_with_gbfs_success_strict_default_rate_only_exits_3(capsys):
    # Strict mode drops the default rate, which leaves gbfs-success no rates.
    code = main(
        _retrieve_args("ice_cup", "gbfs-success", default_rate=0.5, strict_motions=True)
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--strict-motions ignores --default-rate" in captured.err


def test_retrieve_with_motions_uses_heuristic(tmp_path, capsys):
    p = _paths("ice_cup")
    out = tmp_path / "tree.txt"
    code = main(_retrieve_args("ice_cup", "gbfs-success", motions=p["motions"], out=out))
    assert code == 0
    assert "scoop" in out.read_text()
    capsys.readouterr()


def test_retrieve_strict_motions_fails_on_gap(tmp_path, capsys):
    rates = tmp_path / "rates.txt"
    rates.write_text("pour\t0.5\n")  # no rate for scoop
    code = main(
        _retrieve_args("ice_cup", "gbfs-success", motions=rates, strict_motions=True)
    )
    assert code == 2
    assert "no success rate" in capsys.readouterr().err


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("algorithm", ["gbfs-success", "ids"])
def test_strict_motions_ignores_default_rate(algorithm, strict, tmp_path, capsys):
    # gbfs-success rates pour to rank it; ids rates it for the --json metrics.
    rates = tmp_path / "rates.txt"
    rates.write_text("scoop\t0.9\n")  # no rate for pour
    flags = {
        "motions": rates,
        "default_rate": 0.5,
        "out": tmp_path / "tree.txt",
        "json": tmp_path / "metrics.json",
    }
    if strict:
        flags["strict_motions"] = True
    assert main(_retrieve_args("ice_cup", algorithm, **flags)) == (2 if strict else 0)
    err = capsys.readouterr().err
    assert ("no success rate for motion 'pour'" in err) == strict


def test_retrieve_missing_motion_rate_writes_no_product_file(tmp_path, capsys):
    rates = tmp_path / "rates.txt"
    rates.write_text("chill\t0.9\n")  # no rate for pour, which the ids tree uses
    out, dot, metrics = tmp_path / "tree.txt", tmp_path / "tree.dot", tmp_path / "o.json"
    code = main(_retrieve_args("ice_cup", "ids", motions=rates, out=out, dot=dot, json=metrics))
    assert code == 2
    assert "no success rate for motion 'pour'" in capsys.readouterr().err
    assert not out.exists() and not dot.exists() and not metrics.exists()


def test_retrieve_strict_default_rate_only_writes_nothing_to_stdout(tmp_path, capsys):
    metrics = tmp_path / "o.json"
    code = main(
        _retrieve_args("ice_cup", "ids", strict_motions=True, default_rate=0.5, json=metrics)
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no success rate for motion 'pour'" in captured.err
    assert not metrics.exists()


def test_retrieve_failed_product_write_leaves_no_product_file(tmp_path, capsys):
    out, dot = tmp_path / "tree.txt", tmp_path / "missing_dir" / "tree.dot"
    assert main(_retrieve_args("diamond", "ids", out=out, dot=dot)) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no product and no temporary file


def test_retrieve_failed_product_write_prints_no_tree(tmp_path, capsys):
    dot = tmp_path / "missing_dir" / "tree.dot"
    assert main(_retrieve_args("diamond", "ids", dot=dot)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err


def test_retrieve_failed_rename_removes_the_products_already_in_place(tmp_path, capsys):
    # Every file is written; renaming the JSON onto a directory then fails.
    out, dot, taken = tmp_path / "tree.txt", tmp_path / "tree.dot", tmp_path / "taken"
    taken.mkdir()
    p = _paths("cold_water")
    code = main(
        _retrieve_args("cold_water", "ids", motions=p["motions"], out=out, dot=dot, json=taken)
    )
    assert code == 2
    assert capsys.readouterr().out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["taken"]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize(
    "products, flags",
    [
        ({"out": "x", "json": "x"}, "--out and --json"),
        ({"dot": "y", "out": "./y"}, "--out and --dot"),
    ],
    ids=["out-json", "dot-out"],
)
def test_retrieve_two_products_naming_one_file_exit_3(
    products, flags, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    args = _retrieve_args("diamond", "ids", motions=_paths("diamond")["motions"], **products)
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"foon retrieve: error: {flags} name the same file\n"
    assert list(tmp_path.iterdir()) == []


def test_retrieve_rejects_one_file_named_twice_before_reading_any_input(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    argv = [
        "retrieve",
        "--foon", str(tmp_path / "missing.foon.txt"),
        "--kitchen", "k",
        "--goal", "g",
        "--algorithm", "ids",
        "--dot", str(tmp_path / "d" / "t"),
        "--json", str(tmp_path / "d" / ".." / "d" / "t"),
    ]
    assert main(argv) == 3  # a missing universe file would exit 2
    assert "--dot and --json name the same file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, products, flag",
    [
        ("retrieve", {"out": "", "json": ""}, "--out"),
        ("retrieve", {"dot": ""}, "--dot"),
        ("compare", {"json": ""}, "--json"),
    ],
    ids=["retrieve-out-json", "retrieve-dot", "compare-json"],
)
def test_an_empty_product_path_exits_3(command, products, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    p = _paths("diamond")
    argv = [command, "--foon", p["foon"], "--kitchen", p["kitchen"], "--goal", p["goal"],
            "--motions", p["motions"]]
    if command == "retrieve":
        argv += ["--algorithm", "ids"]
    for name, path in products.items():
        argv += [f"--{name}", path]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a file path, got ''" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_retrieve_a_symlink_product_and_its_target_are_two_files(tmp_path, capsys):
    target, link = tmp_path / "tree.dot", tmp_path / "link"
    target.write_text("old")
    link.symlink_to(target)
    assert main(_retrieve_args("diamond", "ids", out=link, dot=target)) == 0
    capsys.readouterr()
    assert not link.is_symlink()
    assert target.read_text().startswith("digraph")
    assert main(_retrieve_args("diamond", "ids")) == 0
    assert link.read_text() == capsys.readouterr().out


def test_compare_failed_json_write_prints_no_table(tmp_path, capsys):
    p = _paths("ice_cup")
    report = tmp_path / "missing_dir" / "report.json"
    argv = ["compare", "--foon", p["foon"], "--kitchen", p["kitchen"], "--goal", p["goal"]]
    assert main(argv + ["--motions", p["motions"], "--json", str(report)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["retrieve", "compare"])
def test_deep_chain_exits_0_with_every_step(command, tmp_path, capsys):
    nodes = [ObjectNode(f"n{i}") for i in range(601)]
    units = [FunctionalUnit((nodes[i],), Motion("step"), (nodes[i + 1],)) for i in range(600)]
    files = {
        "foon": serialize_foon(units),
        "kitchen": "O\tn0\t0\n",
        "goal": "O\tn600\t0\n",
        "motions": "step\t0.5\n",
    }
    args = [command]
    for kind, text in files.items():
        path = tmp_path / f"chain.{kind}.txt"
        path.write_text(text)
        args += [f"--{kind}", str(path)]
    out = tmp_path / "out.json"
    args += ["--json", str(out), "--max-depth", "600"]
    if command == "retrieve":
        args += ["--algorithm", "gbfs-inputs"]
    assert main(args) == 0
    payload = json.loads(out.read_text())
    if command == "retrieve":
        assert payload["metrics"]["unit_count"] == 600
        assert "retrieved a task tree with 600 steps" in capsys.readouterr().err
    else:
        runs = payload["algorithms"].values()
        assert [run["metrics"]["unit_count"] for run in runs] == [600, 600, 600]


def test_retrieve_no_backtrack_gives_up(capsys):
    p = _paths("dead_end")
    code = main(
        _retrieve_args("dead_end", "gbfs-success", motions=p["motions"], no_backtrack=True)
    )
    assert code == 1
    assert "backtracking disabled" in capsys.readouterr().err


def test_retrieve_emits_dot_and_json(tmp_path, capsys):
    p = _paths("cold_water")
    out, dot, metrics = tmp_path / "t.txt", tmp_path / "t.dot", tmp_path / "t.json"
    code = main(
        _retrieve_args(
            "cold_water", "ids", motions=p["motions"], out=out, dot=dot, json=metrics
        )
    )
    assert code == 0
    assert dot.read_text().startswith("digraph foon {")
    assert "mediumpurple" in dot.read_text()
    payload = json.loads(metrics.read_text())
    assert payload["algorithm"] == "ids"
    assert payload["metrics"]["unit_count"] == 2
    assert abs(payload["metrics"]["success_product"] - 0.76) < 1e-12
    assert payload["stats"]["depth_reached"] == 2
    capsys.readouterr()


def test_retrieve_malformed_universe_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("O\ta\t7\nM\tmix\nO\tb\t0\n//\n")
    p = _paths("ice_cup")
    code = main([
        "retrieve", "--foon", str(bad), "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--algorithm", "ids",
    ])
    assert code == 2
    assert "flag" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-1", "two", "1.5"])
def test_retrieve_bad_max_depth_exits_3(depth, capsys):
    code = main(_retrieve_args("ice_cup", "ids", max_depth=depth))
    assert code == 3
    assert "--max-depth" in capsys.readouterr().err


@pytest.mark.parametrize("with_motions", [False, True])
@pytest.mark.parametrize("rate", ["2", "-0.5", "nan", "inf", "half"])
def test_retrieve_bad_default_rate_exits_3(rate, with_motions, capsys):
    extra = {"default_rate": rate}
    if with_motions:
        extra["motions"] = _paths("diamond")["motions"]
    code = main(_retrieve_args("diamond", "gbfs-success", **extra))
    assert code == 3
    assert "--default-rate" in capsys.readouterr().err


# --- compare -------------------------------------------------------------------


def test_compare_prints_table(capsys):
    p = _paths("ice_cup")
    code = main([
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"],
    ])
    assert code == 0
    table = capsys.readouterr().out
    for column in ("ids", "gbfs-success", "gbfs-inputs"):
        assert column in table
    assert "success product" in table
    assert "wall ms" not in table


def test_compare_timings_flag_adds_wall_clock(capsys):
    p = _paths("ice_cup")
    code = main([
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"], "--timings",
    ])
    assert code == 0
    assert "wall ms" in capsys.readouterr().out


def test_compare_timings_json_holds_the_tables_wall_ms(tmp_path, capsys):
    p = _paths("ice_cup")
    report = tmp_path / "report.json"
    code = main([
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"], "--timings", "--json", str(report),
    ])
    assert code == 0
    header, *rows = capsys.readouterr().out.splitlines()
    cells = next(row for row in rows if row.startswith("wall ms")).split()[2:]
    printed = dict(zip(header.split(), cells))
    written = json.loads(report.read_text())["algorithms"]
    assert set(printed) == set(written) == {"ids", "gbfs-success", "gbfs-inputs"}
    for algorithm, entry in written.items():
        assert entry["wall_ms"] >= 0.0
        assert printed[algorithm] == f"{entry['wall_ms']:.3f}"


def test_compare_handles_not_found(capsys):
    p = _paths("freeze_thaw")
    code = main([
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"],
    ])
    assert code == 0
    assert "not-found" in capsys.readouterr().out


def test_compare_bad_max_depth_exits_3(capsys):
    p = _paths("ice_cup")
    code = main([
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"], "--max-depth", "0",
    ])
    assert code == 3
    assert "--max-depth" in capsys.readouterr().err


def test_compare_writes_json(tmp_path, capsys):
    p = _paths("diamond")
    report = tmp_path / "report.json"
    code = main([
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"], "--json", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["fixture"] == "diamond.foon.txt"
    assert payload["algorithms"]["ids"]["metrics"]["max_chain_depth"] == 2
    capsys.readouterr()


# --- usage errors ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["retrieve"],  # missing required flags
        ["retrieve", "--foon", "x", "--kitchen", "y", "--goal", "z",
         "--algorithm", "a-star"],
        ["compare", "--foon", "x"],
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    assert main(argv) == 3
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


# --- determinism -----------------------------------------------------------------


def test_retrieve_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    p = _paths("diamond")
    snapshots = []
    for round_ in ("first", "second"):
        out = tmp_path / f"{round_}.txt"
        dot = tmp_path / f"{round_}.dot"
        blob = tmp_path / f"{round_}.json"
        code = main(
            _retrieve_args(
                "diamond", "gbfs-success", motions=p["motions"],
                out=out, dot=dot, json=blob,
            )
        )
        assert code == 0
        snapshots.append((out.read_bytes(), dot.read_bytes(), blob.read_bytes()))
    assert snapshots[0] == snapshots[1]
    capsys.readouterr()


def test_compare_stdout_is_byte_identical_across_runs(capsys):
    p = _paths("cold_water")
    argv = [
        "compare", "--foon", p["foon"], "--kitchen", p["kitchen"],
        "--goal", p["goal"], "--motions", p["motions"],
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "foon", "validate", str(fixture_path("chop_onion", "foon"))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "1 unit, 6 object nodes\n"
