"""The benchmark's traced runner renders output exactly as the CLI does.

``perfbench/traced.py`` calls the public API itself and reports the
sha256 of the text it renders; the benchmark checks that digest against
the CLI's recorded stdout, so the two must agree byte for byte.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from xresp.cli import main

from conftest import README_CONSTRAINTS, REPO_ROOT, WEATHER_CSV

QUERIES = (
    "fullExpl(E,U,R,S), R < 3?\n"
    "invResp(e,outlook,R)?\n"
    "cause(E,U), cont(E,U,S)?\n"
    "cls(E,O,T,H,W,L)?\n"
    "ent(e,_,_,_,Wp,s), ent(e,_,_,_,W,o), W = Wp?\n"
)
# the exact backend's models carry no staged-probability atoms
PB_NUM_QUERY = "pb_num(e,O,T,H,W,yes,F)?\n"


def traced_and_cli_stdout(tmp_path, capsys, command, flags, queries=None):
    """The CLI's stdout and the traced runner's report for one invocation."""
    model = tmp_path / "weather.model"
    assert main(["train", "--data", str(WEATHER_CSV), "--out", str(model)]) == 0
    argv = [command, "--model", str(model), "--entity", "rain,high,normal,weak", *flags]
    if queries is not None:
        path = tmp_path / "weather.q"
        path.write_text(queries, encoding="utf-8")
        argv += ["--queries", str(path)]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout

    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "traced.py"), *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(result.stdout)
    assert report["stdout_sha256"] == hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return stdout, report


@pytest.mark.parametrize("semantics", ["--brave", "--cautious"])
def test_traced_query_digest_matches_the_cli(tmp_path, capsys, semantics):
    stdout, report = traced_and_cli_stdout(
        tmp_path, capsys, "query", [semantics], QUERIES + PB_NUM_QUERY
    )
    assert report["counts"]["rows"] == len([line for line in stdout.splitlines() if line])


@pytest.mark.parametrize("command, flags, queries", [
    ("counterfactuals", ["--min-change"], None),
    ("query", ["--min-change", "--brave"], QUERIES),
], ids=["counterfactuals", "query"])
def test_traced_min_change_digest_matches_the_cli(tmp_path, capsys, command, flags,
                                                  queries):
    # the runner searches in full and then filters; the CLI stops the search early
    traced_and_cli_stdout(
        tmp_path, capsys, command, ["--classifier", "exact", *flags], queries
    )


@pytest.mark.parametrize("constraints", [None, README_CONSTRAINTS],
                         ids=["plain", "constrained"])
def test_traced_explain_digest_matches_the_cli(tmp_path, capsys, constraints):
    flags = []
    if constraints is not None:
        # one forbid, one depend and one immutable line
        path = tmp_path / "weather.constraints"
        path.write_text(constraints, encoding="utf-8")
        flags = ["--constraints", str(path)]
    stdout, report = traced_and_cli_stdout(tmp_path, capsys, "explain", flags)
    # one x-resp line per feature, then one line per explanation
    assert report["counts"]["explanations"] == len(stdout.splitlines()) - 4 > 0
