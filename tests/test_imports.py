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

# Runs its argv through the CLI, then prints every loaded module.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from xresp.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
else:
    import xresp
print(json.dumps(sorted(sys.modules)))
"""


def every_loaded_module(*argv, flags=()):
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, json.dumps(list(argv))],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(result.stdout))


def loaded_modules(*argv):
    """The xresp submodules loaded, without the package prefix."""
    return {m[6:] for m in every_loaded_module(*argv) if m.startswith("xresp.")}


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
