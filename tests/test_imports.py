"""Each subcommand loads only the package modules it runs.

``import xresp`` resolves its public names on first access, and every CLI
handler imports its modules inside its body.  These checks run in a fresh
interpreter, because the test process has already imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import DEMO_PROGRAM, README_CONSTRAINTS, REPO_ROOT, WEATHER_CSV
from xresp import serialize_model

ENTITY = "rain,high,normal,weak"

# Runs its argv through the CLI, checks the status (a refused or help command
# line exits), then prints every loaded module.
PROBE = """
import contextlib, io, json, sys
argv, status = json.loads(sys.argv[1])
if argv:
    from xresp.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            got = main(argv)
        except SystemExit as stop:
            got = stop.code
    assert got == status, got
else:
    import xresp
print(json.dumps(sorted(sys.modules)))
"""


def child_env():
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def every_loaded_module(*argv, flags=(), status=0):
    result = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, json.dumps([list(argv), status])],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    return set(json.loads(result.stdout))


def loaded_modules(*argv, status=0):
    """The xresp submodules loaded, without the package prefix."""
    return {m[6:] for m in every_loaded_module(*argv, status=status)
            if m.startswith("xresp.")}


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules() == set()


def test_solve_asp_loads_only_the_kernel():
    loaded = loaded_modules("solve-asp", str(DEMO_PROGRAM))
    assert "asp" in loaded
    assert not loaded & {"engine", "queries", "dlv_emit", "naive_bayes", "constraints"}


def test_emit_dlv_skips_the_search_the_queries_and_the_kernel():
    loaded = loaded_modules(
        "emit-dlv", "--data", str(WEATHER_CSV), "--entity", ENTITY
    )
    assert "dlv_emit" in loaded
    assert not loaded & {"engine", "queries", "asp"}


@pytest.mark.parametrize("argv", [
    ["explain", "--data", str(WEATHER_CSV), "--entity", ENTITY],
    ["counterfactuals", "--data", str(WEATHER_CSV), "--entity", ENTITY],
    ["train", "--data", str(WEATHER_CSV)],
], ids=["explain", "counterfactuals", "train"])
def test_search_subcommands_skip_the_queries_the_emitter_and_the_kernel(argv):
    loaded = loaded_modules(*argv)
    assert "naive_bayes" in loaded
    assert not loaded & {"queries", "dlv_emit", "asp"}


def subcommand_argv(command, tmp_path):
    instance = ["--data", str(WEATHER_CSV), "--entity", ENTITY]
    if command == "query":
        queries = tmp_path / "queries.txt"
        queries.write_text("invResp(E,U,R)?\n", encoding="utf-8")
        return ["query", *instance, "--queries", str(queries), "--brave"]
    return {
        "train": ["train", "--data", str(WEATHER_CSV)],
        "solve-asp": ["solve-asp", str(DEMO_PROGRAM)],
    }.get(command, [command, *instance])


# dataclasses would bring in inspect, ast, dis, tokenize and copy at start-up,
# and argparse its gettext, whose first lookup imports locale
@pytest.mark.parametrize("command", [
    "train", "classify", "counterfactuals", "explain", "query", "emit-dlv", "solve-asp",
])
def test_no_subcommand_loads_dataclasses_or_inspect(command, tmp_path):
    loaded = every_loaded_module(*subcommand_argv(command, tmp_path))
    assert "xresp.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext", "locale"}


# typing would bring in re, collections, functools and contextlib: the package
# names it only in annotations, behind a TYPE_CHECKING of its own.  Run
# without site (-S), whose .pth files may import typing in every interpreter
@pytest.mark.parametrize("command", [
    "train", "classify", "counterfactuals", "explain", "query", "emit-dlv", "solve-asp",
])
def test_no_subcommand_loads_typing(command, tmp_path):
    argv = subcommand_argv(command, tmp_path)
    if command in ("counterfactuals", "explain", "query", "emit-dlv"):
        path = tmp_path / "weather.constraints"
        path.write_text(README_CONSTRAINTS, encoding="utf-8")
        argv += ["--constraints", str(path)]
    loaded = every_loaded_module(*argv, flags=["-S"])
    assert "xresp.cli" in loaded
    assert "typing" not in loaded


@pytest.mark.parametrize("with_file", [False, True], ids=["without", "with"])
@pytest.mark.parametrize("command", ["counterfactuals", "explain", "query", "emit-dlv"])
def test_constraints_load_exactly_with_a_constraints_file(command, with_file, tmp_path):
    argv = subcommand_argv(command, tmp_path)
    if with_file:
        path = tmp_path / "weather.constraints"
        path.write_text(README_CONSTRAINTS, encoding="utf-8")
        argv += ["--constraints", str(path)]
    assert ("constraints" in loaded_modules(*argv)) == with_file


@pytest.mark.parametrize("command", ["explain", "query", "counterfactuals", "emit-dlv"])
def test_a_model_file_spares_the_csv_reader(command, weather_model, tmp_path):
    model = tmp_path / "weather.model"
    model.write_text(serialize_model(weather_model), encoding="utf-8")
    argv = subcommand_argv(command, tmp_path)
    argv[argv.index("--data"):argv.index("--data") + 2] = ["--model", str(model)]
    assert "csv" not in every_loaded_module(*argv)


def test_train_reads_its_csv_with_the_csv_reader():
    assert "csv" in every_loaded_module("train", "--data", str(WEATHER_CSV))


# a leading byte-order mark is skipped by hand, not by the ``utf-8-sig`` codec
@pytest.mark.parametrize("argv", [
    ["train", "--data", str(WEATHER_CSV)],
    ["explain", "--data", str(WEATHER_CSV), "--entity", ENTITY],
], ids=["train", "explain"])
def test_reading_a_dataset_loads_no_byte_order_mark_codec(argv):
    assert "encodings.utf_8_sig" not in every_loaded_module(*argv)


# The three modules behind first-use imports: the breadth-first search with
# parents and the on-demand scorer, training and model writing, and the
# usage, help and refusal text.
DEFERRED = {"_bfs", "_training", "_usage"}


@pytest.fixture
def on_model_file(weather_model, tmp_path):
    """An argv's --data replaced by a model file trained on the same data."""
    model = tmp_path / "weather.model"
    model.write_text(serialize_model(weather_model), encoding="utf-8")

    def replace(argv):
        at = argv.index("--data")
        return [*argv[:at], "--model", str(model), *argv[at + 2:]]

    return replace


def constraints_file(tmp_path):
    path = tmp_path / "weather.constraints"
    path.write_text(README_CONSTRAINTS, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("constrained", [False, True], ids=["plain", "constrained"])
def test_explain_on_a_model_file_loads_only_the_level_bitmap_path(
    constrained, on_model_file, tmp_path
):
    argv = on_model_file(subcommand_argv("explain", tmp_path))
    if constrained:  # README_CONSTRAINTS holds a depend line
        argv += ["--constraints", constraints_file(tmp_path)]
    loaded = loaded_modules(*argv)
    assert "engine" in loaded
    assert not loaded & DEFERRED


@pytest.mark.parametrize("argv", [
    ["counterfactuals"], ["query", "cls(E,O,T,H,W,L)?"], ["counterfactuals", "--min-change"],
    ["query", "invResp(E,U,R)?", "--min-change"],
], ids=["counterfactuals", "query-chains", "counterfactuals-min-change", "query-min-change"])
def test_reading_cells_or_fewest_changes_loads_the_search(argv, on_model_file, tmp_path):
    command, *rest = argv
    full = on_model_file(subcommand_argv(command, tmp_path))
    if command == "query":
        # subcommand_argv's query reads explanation atoms alone: no chain
        assert "_bfs" not in loaded_modules(*full)
        (tmp_path / "queries.txt").write_text(rest.pop(0) + "\n", encoding="utf-8")
    loaded = loaded_modules(*full, *rest)
    assert "_bfs" in loaded
    assert not loaded & {"_training", "_usage"}


def test_a_cautious_cls_query_over_versions_sharing_no_feature_loads_no_search(
    on_model_file, tmp_path
):
    # one weather version changes humidity alone and another outlook and
    # wind: no feature is changed in every version, so the original alone is
    # on every chain and no parent is read
    argv = on_model_file(subcommand_argv("query", tmp_path))
    argv[argv.index("--brave")] = "--cautious"
    (tmp_path / "queries.txt").write_text("cls(E,O,T,H,W,L)?\n", encoding="utf-8")
    loaded = loaded_modules(*argv)
    assert "queries" in loaded and "_bfs" not in loaded


@pytest.mark.parametrize("command", [
    "train", "classify", "counterfactuals", "explain", "query", "emit-dlv",
])
def test_training_loads_exactly_with_train_or_data(command, on_model_file, tmp_path):
    argv = subcommand_argv(command, tmp_path)
    assert "_training" in loaded_modules(*argv)
    if command != "train":
        assert "_training" not in loaded_modules(*on_model_file(argv))


@pytest.mark.parametrize("command", [
    "train", "classify", "counterfactuals", "explain", "query", "emit-dlv", "solve-asp",
])
def test_an_accepted_command_line_loads_no_usage_text(command, tmp_path):
    assert "_usage" not in loaded_modules(*subcommand_argv(command, tmp_path))


REFUSED_AND_HELP = [
    (["--help"], 0), (["explain", "-h"], 0), ([], 2), (["nosuch"], 2),
    (["explain", "--data", str(WEATHER_CSV)], 2), (["explain", "--bogus"], 2),
]
REFUSED_AND_HELP_IDS = ["help", "command-help", "no-command", "unknown-command",
                        "missing-entity", "unknown-option"]


@pytest.mark.parametrize("argv, status", REFUSED_AND_HELP, ids=REFUSED_AND_HELP_IDS)
def test_a_refused_or_help_command_line_loads_the_usage_text(argv, status):
    # an empty argv is refused too: the probe's [] means "import xresp" only
    loaded = loaded_modules(*(argv or ["--"]), status=status)
    assert "_usage" in loaded
    assert not loaded & {"_bfs", "_training", "engine", "naive_bayes"}


@pytest.mark.parametrize("argv, status", REFUSED_AND_HELP, ids=REFUSED_AND_HELP_IDS)
def test_under_python_m_the_usage_text_never_imports_the_cli_again(argv, status):
    """Run as ``python -m xresp.cli``, the CLI is ``__main__``: the usage
    module is given the option table, and never imports ``xresp.cli``."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "xresp.cli", *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == status, result.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "xresp._usage" in imported
    assert "xresp.cli" not in imported
