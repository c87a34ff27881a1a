"""End-to-end tests of the command-line interface (in-process, except where
a run could hang)."""

import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys

import pytest

from xresp import (
    DEFAULT_MAXINT,
    enumerate_counterfactuals,
    load_dataset,
    min_change_versions,
    model_atom_sets,
    parse_entity,
    to_percent,
    train,
)
from xresp import cli, engine
from xresp.cli import _COMMANDS, _parse, main
from xresp.constraints import parse_constraints
from xresp.queries import answer, load_queries
from xresp.schema import render_row

from conftest import (
    DEMO_PROGRAM,
    README_CONSTRAINTS,
    REPO_ROOT,
    TEST_DATA,
    TWO_DEPTH_DEPEND,
    WEATHER_CSV,
)
from helpers import readme_walkthrough
from oracles import _build_parser

DATA = str(WEATHER_CSV)
ENTITY = "rain,high,normal,weak"

EXPECTED_COUNTERFACTUALS = """\
ent(e,rain,high,high,weak,s)
ent(e,rain,high,high,strong,s)
ent(e,sunny,high,high,weak,s)
ent(e,sunny,high,normal,strong,s)
ent(e,rain,low,high,strong,s)
ent(e,rain,medium,high,strong,s)
ent(e,sunny,low,high,weak,s)
ent(e,sunny,medium,high,weak,s)
ent(e,sunny,low,high,strong,s)
ent(e,sunny,medium,high,strong,s)
"""

EXPECTED_EXPLAIN = """\
x-resp outlook = 1/2
x-resp temperature = 1/3
x-resp humidity = 1
x-resp wind = 1/2
e, humidity, 1, {}
e, humidity, 2, {outlook}
e, humidity, 2, {wind}
e, humidity, 3, {outlook,temperature}
e, humidity, 3, {temperature,wind}
e, humidity, 4, {outlook,temperature,wind}
e, outlook, 2, {humidity}
e, outlook, 2, {wind}
e, outlook, 3, {humidity,temperature}
e, outlook, 4, {humidity,temperature,wind}
e, temperature, 3, {humidity,outlook}
e, temperature, 3, {humidity,wind}
e, temperature, 4, {humidity,outlook,wind}
e, wind, 2, {humidity}
e, wind, 2, {outlook}
e, wind, 3, {humidity,temperature}
e, wind, 4, {humidity,outlook,temperature}
"""


@pytest.fixture
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

MODEL_AND_ENTITY = {"--data", "--model", "--entity", "--eid"}
BACKEND = {"--classifier", "--maxint"}
ENGINE = {"--constraints", "--strict"}

EXPECTED_OPTIONS = {
    "train": {"--data", "--positive-label", "--out"},
    "classify": MODEL_AND_ENTITY | BACKEND,
    "counterfactuals": MODEL_AND_ENTITY | BACKEND | ENGINE | {"--min-change"},
    "explain": MODEL_AND_ENTITY | BACKEND | ENGINE,
    "query": MODEL_AND_ENTITY | BACKEND | ENGINE
    | {"--queries", "--brave", "--cautious", "--min-change"},
    "emit-dlv": MODEL_AND_ENTITY | {"--constraints", "--weak", "--maxint", "--out"},
    "solve-asp": set(),
}


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


def test_cli_options_are_pinned(capsys):
    # a switch is added to or removed from the CLI on purpose
    commands = re.findall(r"^  ([\w-]+) ", help_text(capsys), re.M)
    options = {
        command: set(re.findall(r"^  (--[\w-]+)", help_text(capsys, command), re.M))
        for command in commands
    }
    assert options == EXPECTED_OPTIONS


# ---------------------------------------------------------------------------
# train / classify
# ---------------------------------------------------------------------------


def test_train_writes_model_to_stdout(run_cli):
    code, out, err = run_cli("train", "--data", DATA)
    assert code == 0 and err == ""
    assert "labels: yes,no" in out
    assert "class-column: Play" in out
    assert "prior: yes 9/14" in out


def test_train_refuses_a_model_file_it_could_not_load(run_cli, tmp_path):
    # the value is refused when the dataset is loaded, before any model exists
    data = tmp_path / "weather.csv"
    data.write_text(
        WEATHER_CSV.read_text(encoding="utf-8").replace("weak", '"x,1"'),
        encoding="utf-8",
    )
    model_path = tmp_path / "model.txt"
    code, out, err = run_cli("train", "--data", str(data), "--out", str(model_path))
    assert code == 1 and out == ""
    assert err == (
        "xresp: DataError: value of Wind 'x,1' is not a DLV constant "
        "(a lowercase-initial identifier or a run of digits)\n"
    )
    assert not model_path.exists()


def test_train_classify_round_trip(run_cli, tmp_path):
    model_path = str(tmp_path / "model.txt")
    code, _, _ = run_cli("train", "--data", DATA, "--out", model_path)
    assert code == 0

    code, from_model, _ = run_cli(
        "classify", "--model", model_path, "--entity", ENTITY
    )
    assert code == 0
    code, from_data, _ = run_cli("classify", "--data", DATA, "--entity", ENTITY)
    assert code == 0
    assert from_model == from_data == "label: yes\nyes: 20665\nno: 4608\n"


def test_classify_exact_prints_rationals(run_cli):
    code, out, err = run_cli(
        "classify", "--data", DATA, "--entity", ENTITY, "--classifier", "exact"
    )
    assert code == 0 and err == ""
    assert out == "label: yes\nyes: 4/189\nno: 4/875\n"


@pytest.mark.parametrize("classifier", ["exact", "staged"])
def test_a_model_with_two_equal_labels_is_refused(run_cli, tmp_path, classifier):
    # exact used to print "yes: 1/8" twice, staged a percent-prior error
    model = tmp_path / "twice.model"
    model.write_text("labels: yes,yes\nprior: yes 1/2\nA,x,yes,1/2\nA,y,yes,1/2\n",
                     encoding="utf-8")
    code, out, err = run_cli("classify", "--model", str(model), "--entity", "x",
                             "--classifier", classifier)
    assert (code, out) == (1, "")
    assert err == "xresp: ModelFormatError: the two labels must differ, not both yes\n"


def test_train_with_flipped_positive_label(run_cli):
    code, out, _ = run_cli("train", "--data", DATA, "--positive-label", "no")
    assert code == 0
    assert "labels: no,yes" in out
    code, _, err = run_cli("train", "--data", DATA, "--positive-label", "maybe")
    assert code == 1
    assert err.startswith("xresp: ModelFormatError:")


# ---------------------------------------------------------------------------
# counterfactuals / explain
# ---------------------------------------------------------------------------


def test_counterfactuals_lists_all_ten(run_cli):
    code, out, err = run_cli("counterfactuals", "--data", DATA, "--entity", ENTITY)
    assert code == 0 and err == ""
    assert out == EXPECTED_COUNTERFACTUALS


@pytest.mark.parametrize("min_change", [False, True])
def test_counterfactuals_print_version_cells_and_decode_no_chain(run_cli, monkeypatch,
                                                                 min_change):
    decoded, built = [], []
    decode, version = engine._Grid.decode, engine.CounterfactualVersion

    def counting_decode(grid, code):
        decoded.append(code)
        return decode(grid, code)

    def counting_version(*args):
        built.append(args)
        return version(*args)

    monkeypatch.setattr(engine._Grid, "decode", counting_decode)
    monkeypatch.setattr(engine, "CounterfactualVersion", counting_version)
    argv = ["counterfactuals", "--data", DATA, "--entity", ENTITY]
    code, out, _ = run_cli(*argv, *["--min-change"] * min_change)
    assert code == 0
    lines = EXPECTED_COUNTERFACTUALS.splitlines(keepends=True)
    assert out == "".join(lines[:1] if min_change else lines)
    assert not built
    if not min_change:  # a search scored on demand decodes the cells it classifies
        # each version's cell is decoded once, and no other cell
        assert len(decoded) == len(set(decoded)) == out.count("\n")


def test_counterfactuals_min_change_is_a_single_line(run_cli):
    code, out, _ = run_cli(
        "counterfactuals", "--data", DATA, "--entity", ENTITY, "--min-change"
    )
    assert code == 0
    assert out == "ent(e,rain,high,high,weak,s)\n"


def test_counterfactuals_respect_eid_and_constraints(run_cli, tmp_path):
    knowledge = tmp_path / "knowledge.txt"
    knowledge.write_text("immutable Outlook\n", encoding="utf-8")
    code, out, _ = run_cli(
        "counterfactuals",
        "--data", DATA,
        "--entity", ENTITY,
        "--eid", "x",
        "--constraints", str(knowledge),
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("ent(x,rain,") for line in lines)


@pytest.mark.parametrize("command", ["counterfactuals", "emit-dlv"])
def test_two_dependencies_with_one_target_are_refused(tmp_path, command):
    # propagation between the two would set Humidity back and forth without
    # end, so the CLI runs in a subprocess that a timeout can stop
    knowledge = tmp_path / "knowledge.txt"
    knowledge.write_text(
        "depend Outlook -> Humidity: sunny->high, overcast->normal, rain->high\n"
        "depend Wind -> Humidity: weak->normal, strong->high\n",
        encoding="utf-8",
    )
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-m", "xresp.cli", command, "--data", DATA,
         "--entity", ENTITY, "--constraints", str(knowledge)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "xresp: ConstraintError: Humidity is the target of two dependencies\n"
    )


def test_strict_silences_negative_originals(run_cli):
    code, out, err = run_cli(
        "counterfactuals",
        "--data", DATA,
        "--entity", "rain,high,high,weak",  # classified no
        "--strict",
    )
    assert (code, out, err) == (0, "", "")


def test_explain_output(run_cli):
    code, out, err = run_cli("explain", "--data", DATA, "--entity", ENTITY)
    assert code == 0 and err == ""
    assert out == EXPECTED_EXPLAIN
    assert "e, humidity, 1, {}\n" in out


def test_explain_exact_classifier_agrees(run_cli):
    code, out, _ = run_cli(
        "explain", "--data", DATA, "--entity", ENTITY, "--classifier", "exact"
    )
    assert code == 0
    assert out == EXPECTED_EXPLAIN


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def write_queries(tmp_path, *lines):
    path = tmp_path / "queries.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_query_brave_blocks(run_cli, tmp_path):
    queries = write_queries(
        tmp_path, "invResp(e,outlook,R)?", "fullExpl(E,U,R,S), R<3?"
    )
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries, "--brave"
    )
    assert code == 0 and err == ""
    assert out == (
        "2\n3\n4\n"
        "\n"
        "e, humidity, 1, {}\n"
        "e, humidity, 2, {outlook}\n"
        "e, humidity, 2, {wind}\n"
        "e, outlook, 2, {humidity}\n"
        "e, outlook, 2, {wind}\n"
        "e, wind, 2, {humidity}\n"
        "e, wind, 2, {outlook}\n"
    )


def test_query_cautious_can_print_nothing(run_cli, tmp_path):
    queries = write_queries(
        tmp_path, "ent(e,_,_,_,Wp,s), ent(e,_,_,_,W,o), W = Wp?"
    )
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries,
        "--cautious",
    )
    assert (code, out, err) == (0, "", "")


def test_query_min_change_restricts_the_models(run_cli, tmp_path):
    queries = write_queries(tmp_path, "ent(e,O,T,H,W,s)?")
    code, out, _ = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries,
        "--brave", "--min-change",
    )
    assert code == 0
    assert out == "rain, high, high, weak\n"


@pytest.mark.parametrize("entity", ["sunny,high,high,weak", ENTITY])
@pytest.mark.parametrize(
    "query, error",
    [
        ("foo(X)?", "unknown predicate: foo"),
        ("invResp(E)?",
         "arity mismatch for invResp: query has 1 arguments, models have [3]"),
    ],
)
def test_query_is_checked_before_the_search(run_cli, tmp_path, entity, query, error):
    # the sunny entity has no strict versions; the query is refused all the same
    queries = write_queries(tmp_path, query)
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", entity, "--strict", "--brave",
        "--queries", queries,
    )
    assert (code, out, err) == (1, "", f"xresp: QueryError: {error}\n")


@pytest.mark.parametrize("query", ["cause(E,_U)?", "cont(E,U,{Humidity})?"])
def test_query_terms_outside_the_constant_policy_are_refused(run_cli, tmp_path, query):
    # both used to parse as constants that no value matches, printing nothing
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--brave",
        "--queries", write_queries(tmp_path, query),
    )
    assert (code, out) == (1, "")
    assert err.startswith("xresp: QueryError: line 1: bad term") and err.count("\n") == 1


def test_exact_query_has_no_pb_num(run_cli, tmp_path):
    queries = write_queries(tmp_path, "pb_num(e,O,T,H,W,yes,F)?")
    code, out, _ = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries, "--brave"
    )
    assert code == 0 and out  # staged scores are queryable
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries,
        "--brave", "--classifier", "exact",
    )
    assert (code, out) == (1, "")
    assert err == "xresp: QueryError: unknown predicate: pb_num\n"


def test_query_with_a_dependency_materialises_propagated_states(run_cli, tmp_path):
    # the depend line from the README's domain-knowledge example
    knowledge = tmp_path / "knowledge.txt"
    knowledge.write_text(
        "depend Temperature -> Humidity: high->normal, medium->high, low->high\n",
        encoding="utf-8",
    )
    queries = write_queries(
        tmp_path, "ent(e,O,T,H,W,tr)?", "ent(e,O,T,H,W,do)?", "ent(e,O,T,H,W,s)?"
    )
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries,
        "--brave", "--constraints", str(knowledge),
    )
    assert code == 0 and err == ""
    tr_block, do_block, s_block = out.rstrip("\n").split("\n\n")
    # brave rows are the union over all models, so this covers every model
    mapping = {"high": "normal", "medium": "high", "low": "high"}
    for block in (tr_block, do_block):
        rows = [line.split(", ") for line in block.splitlines()]
        assert rows
        for _, temperature, humidity, _ in rows:
            assert humidity == mapping[temperature]
    assert len(s_block.splitlines()) == 5


@pytest.mark.parametrize("classifier", ["staged", "exact"])
def test_min_change_with_a_dependency_prints_the_filtered_full_search(
    run_cli, tmp_path, classifier
):
    knowledge = tmp_path / "knowledge.txt"
    knowledge.write_text(TWO_DEPTH_DEPEND + "\n", encoding="utf-8")
    base = train(load_dataset(DATA))
    model = to_percent(base) if classifier == "staged" else base
    entity = parse_entity(ENTITY, model.schema)
    constraints = parse_constraints(TWO_DEPTH_DEPEND, model.schema)
    versions = min_change_versions(
        enumerate_counterfactuals(model, entity, constraints)
    )
    assert len({len(v.states) for v in versions}) == 2
    flags = ["--data", DATA, "--entity", ENTITY, "--classifier", classifier,
             "--constraints", str(knowledge), "--min-change"]

    code, out, err = run_cli("counterfactuals", *flags)
    assert (code, err) == (0, "")
    assert out == "".join(f"ent(e,{','.join(v.final)},s)\n" for v in versions)

    lines = ("ent(e,O,T,H,W,tr)?", "fullExpl(E,U,R,S)?", "cls(E,O,T,H,W,L)?")
    atom_sets = model_atom_sets(versions, model, entity)
    expected = "\n\n".join(
        "\n".join(render_row(row) for row in answer(query, atom_sets, "brave"))
        for query in load_queries("\n".join(lines))
    )
    code, out, err = run_cli(
        "query", *flags, "--queries", write_queries(tmp_path, *lines), "--brave"
    )
    assert (code, err) == (0, "")
    assert out == expected + "\n"


def test_integer_constants_match_entity_values(run_cli, tmp_path):
    # entity values are strings: a constant written 1 must still match them
    data = tmp_path / "ints.csv"
    data.write_text(
        "a,b,c,label\n1,x,p,yes\n2,y,q,no\n1,y,p,yes\n2,x,q,no\n1,x,q,yes\n",
        encoding="utf-8",
    )
    queries = write_queries(
        tmp_path, "ent(e,1,B,C,o)?", "ent(e,A,B,C,o)?", "ent(e,A,B,C,o), A = 1?"
    )
    code, out, err = run_cli(
        "query", "--data", str(data), "--entity", "1,x,p", "--queries", queries,
        "--brave",
    )
    assert (code, err) == (0, "")
    assert out == "x, p\n\n1, x, p\n\n1, x, p\n"


def test_integer_constants_still_match_integer_values(run_cli, tmp_path):
    queries = write_queries(tmp_path, "invResp(E,U,1)?")
    code, out, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries, "--brave"
    )
    assert (code, out, err) == (0, "e, humidity\n", "")


def test_query_prints_each_row_as_render_row_does(run_cli, tmp_path):
    # rows of strings alone print as they stand and sort as strings do: the
    # digit string 10 before 9, aZ before ab; fullExpl rows hold integers
    # and sets, which still render one value at a time
    data = tmp_path / "strings.csv"
    data.write_text(
        "n,w,label\n9,ab,yes\n10,aZ,no\n100,b,yes\n9,aZ,no\n10,b,no\n100,ab,yes\n"
        "9,ab,yes\n",
        encoding="utf-8",
    )
    lines = ("ent(E,N,W,S)?", "cls(E,N,W,L)?", "fullExpl(E,U,R,S)?")
    code, out, err = run_cli(
        "query", "--data", str(data), "--entity", "9,ab",
        "--queries", write_queries(tmp_path, *lines), "--brave",
    )
    assert (code, err) == (0, "")
    model = to_percent(train(load_dataset(str(data))))
    entity = parse_entity("9,ab", model.schema)
    atom_sets = model_atom_sets(enumerate_counterfactuals(model, entity), model, entity)
    assert out == "\n\n".join(
        "\n".join(render_row(row) for row in answer(query, atom_sets, "brave"))
        for query in load_queries("\n".join(lines))
    ) + "\n"
    assert out == (
        "e, 10, aZ, do\ne, 10, aZ, s\ne, 10, aZ, tr\ne, 10, ab, do\ne, 10, ab, tr\n"
        "e, 10, b, do\ne, 10, b, s\ne, 10, b, tr\ne, 9, aZ, do\ne, 9, aZ, s\n"
        "e, 9, aZ, tr\ne, 9, ab, o\ne, 9, ab, tr\n"
        "\n"
        "e, 10, aZ, no\ne, 10, ab, yes\ne, 10, b, no\ne, 9, aZ, no\ne, 9, ab, yes\n"
        "\n"
        "e, n, 2, {w}\ne, w, 1, {}\ne, w, 2, {n}\n"
    )


def test_query_rejects_empty_query_files(run_cli, tmp_path):
    queries = write_queries(tmp_path, "% nothing but comments")
    code, _, err = run_cli(
        "query", "--data", DATA, "--entity", ENTITY, "--queries", queries, "--brave"
    )
    assert code == 1
    assert err.startswith("xresp: ValueError: no queries in")


# ---------------------------------------------------------------------------
# emit-dlv / solve-asp
# ---------------------------------------------------------------------------


def test_emit_dlv_matches_golden(run_cli, tmp_path):
    golden = (TEST_DATA / "weather_cip_golden.lp").read_text(encoding="utf-8")
    code, out, err = run_cli("emit-dlv", "--data", DATA, "--entity", ENTITY)
    assert code == 0 and err == ""
    assert out == golden

    out_path = tmp_path / "program.lp"
    code, out, _ = run_cli(
        "emit-dlv", "--data", DATA, "--entity", ENTITY, "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text(encoding="utf-8") == golden


def test_emit_dlv_with_constraints_and_weak_matches_golden(run_cli, tmp_path):
    golden = TEST_DATA / "weather_cip_constrained_golden.lp"
    knowledge = tmp_path / "constraints.txt"
    knowledge.write_text(README_CONSTRAINTS, encoding="utf-8")
    code, out, err = run_cli(
        "emit-dlv", "--data", DATA, "--entity", ENTITY,
        "--constraints", str(knowledge), "--weak",
    )
    assert (code, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


def test_emit_dlv_options(run_cli, tmp_path):
    code, weak_out, _ = run_cli(
        "emit-dlv", "--data", DATA, "--entity", ENTITY, "--weak"
    )
    assert code == 0
    assert weak_out.count(":~") == 4

    knowledge = tmp_path / "knowledge.txt"
    knowledge.write_text("forbid Temperature=high, Wind=strong\n", encoding="utf-8")
    code, constrained, _ = run_cli(
        "emit-dlv", "--data", DATA, "--entity", ENTITY,
        "--constraints", str(knowledge),
    )
    assert code == 0
    assert ":- ent(E,_,high,_,strong,tr)." in constrained

    code, capped, _ = run_cli(
        "emit-dlv", "--data", DATA, "--entity", ENTITY, "--maxint", "54321"
    )
    assert code == 0
    assert "#maxint = 54321." in capped


SUNNY_REFUSED = (
    "xresp: DataError: value of Outlook 'Sunny' is not a DLV constant "
    "(a lowercase-initial identifier or a run of digits)\n"
)


def _sunny_data(tmp_path):
    data = tmp_path / "weather.csv"
    data.write_text(
        WEATHER_CSV.read_text(encoding="utf-8").replace("sunny", "Sunny"),
        encoding="utf-8",
    )
    return str(data)


def test_emit_dlv_rejects_values_that_read_as_variables(run_cli, tmp_path):
    code, out, err = run_cli(
        "emit-dlv", "--data", _sunny_data(tmp_path), "--entity", "Sunny,high,normal,weak"
    )
    assert (code, out, err) == (1, "", SUNNY_REFUSED)


@pytest.mark.parametrize(
    "command", ["train", "classify", "counterfactuals", "explain", "query"]
)
def test_every_subcommand_refuses_values_that_read_as_variables(
    run_cli, tmp_path, command
):
    queries = tmp_path / "q.txt"
    queries.write_text("cause(E,U)?\n", encoding="utf-8")
    argv = ("--entity", "Sunny,high,normal,weak")
    argv = {
        "train": (),
        "query": argv + ("--queries", str(queries), "--brave"),
    }.get(command, argv)
    code, out, err = run_cli(command, "--data", _sunny_data(tmp_path), *argv)
    assert (code, out, err) == (1, "", SUNNY_REFUSED)


@pytest.mark.parametrize("command", ["classify", "explain", "emit-dlv"])
def test_an_entity_id_that_reads_as_a_variable_is_refused(run_cli, command):
    code, out, err = run_cli(command, "--data", DATA, "--entity", ENTITY, "--eid", "E1")
    assert (code, out) == (1, "")
    assert err == (
        "xresp: DataError: entity id 'E1' is not a DLV constant "
        "(a lowercase-initial identifier or a run of digits)\n"
    )


def test_a_byte_order_mark_is_not_part_of_the_first_feature_name(run_cli, tmp_path):
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + WEATHER_CSV.read_bytes())
    knowledge = tmp_path / "k.txt"
    knowledge.write_text("immutable Outlook\n", encoding="utf-8")
    for argv in ((), ("--constraints", str(knowledge))):
        runs = [
            run_cli("explain", "--data", path, "--entity", ENTITY, *argv)
            for path in (str(data), DATA)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][2] == ""


@pytest.mark.parametrize("marked", ["model", "constraints", "queries", "program"])
def test_a_byte_order_mark_is_skipped_in_every_input_file(run_cli, tmp_path, marked):
    texts = {
        "model": run_cli("train", "--data", DATA)[1],
        "constraints": "immutable Outlook\n",
        "queries": "cause(E,U)?\ninvResp(e,U,R)?\n",
        "program": DEMO_PROGRAM.read_text(encoding="utf-8"),
    }

    def outputs(bom):
        path = {}
        for kind, text in texts.items():
            path[kind] = str(tmp_path / f"{kind}{len(bom)}")
            with open(path[kind], "w", encoding="utf-8") as handle:
                handle.write((bom if kind == marked else "") + text)
        instance = ("--model", path["model"], "--entity", ENTITY)
        return [
            run_cli("explain", *instance, "--constraints", path["constraints"]),
            run_cli("query", *instance, "--queries", path["queries"], "--brave"),
            run_cli("solve-asp", path["program"]),
        ]

    plain = outputs("")
    assert outputs("\ufeff") == plain
    assert all(code == 0 and out and err == "" for code, out, err in plain)


def test_train_refuses_a_header_without_a_feature(run_cli, tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("Play\nyes\nno\n", encoding="utf-8")
    assert run_cli("train", "--data", str(data)) == (
        1, "", "xresp: DataError: header must name at least one feature and the class column\n"
    )


@pytest.mark.parametrize("command", ["counterfactuals", "explain", "emit-dlv"])
def test_every_feature_immutable_gives_no_versions(run_cli, tmp_path, command):
    names = ("Outlook", "Temperature", "Humidity", "Wind")
    knowledge = tmp_path / "k.txt"
    knowledge.write_text("".join(f"immutable {n}\n" for n in names), encoding="utf-8")
    code, out, err = run_cli(
        command, "--data", DATA, "--entity", ENTITY, "--constraints", str(knowledge)
    )
    assert (code, err) == (0, "")
    if command == "emit-dlv":
        # no intervention: the program has no answer set (see test_emitter)
        assert "\n:- ent(E,O,T,H,W,tr), cls(E,O,T,H,W,yes).\n" in out
        assert "chosen_" not in out and ",do) v " not in out
    else:
        explain = "".join(f"x-resp {n.lower()} = 0\n" for n in names)
        assert out == {"counterfactuals": "", "explain": explain}[command]


@pytest.mark.parametrize("command", ["train", "explain", "query"])
def test_feature_names_differing_only_in_case_are_refused(run_cli, tmp_path, command):
    # lowercased, A and a would be one feature in explanations and queries
    data = tmp_path / "case.csv"
    data.write_text("A,a,class\nx,p,yes\ny,q,no\nx,q,yes\ny,p,no\nx,p,no\n",
                    encoding="utf-8")
    queries = tmp_path / "q.txt"
    queries.write_text("cause(E,U)?\n", encoding="utf-8")
    argv = {
        "train": (),
        "explain": ("--entity", "x,p"),
        "query": ("--entity", "x,p", "--queries", str(queries), "--brave"),
    }[command]
    code, out, err = run_cli(command, "--data", str(data), *argv)
    assert (code, out) == (1, "")
    assert err == "xresp: SchemaError: feature names differ only in case: A, a\n"


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("entity, code", [(ENTITY, 0), ("rain,high,normal,gusty", 1)])
def test_a_run_leaves_the_cyclic_collector_as_it_found_it(
    run_cli, tmp_path, monkeypatch, collecting, entity, code
):
    # the run goes without the collector, whether it answers or fails
    during = []
    instance = cli._instance

    def watched(args):
        during.append(gc.isenabled())
        return instance(args)

    monkeypatch.setattr(cli, "_instance", watched)
    queries = write_queries(tmp_path, "cls(E,O,T,H,W,L)?")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        result = run_cli(
            "query", "--data", DATA, "--entity", entity, "--queries", queries, "--brave"
        )
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert result[0] == code
    assert result[2].startswith("xresp: DataError:") == bool(code)
    assert (during, after) == ([False], collecting)


def test_solve_asp_prints_stable_models(run_cli):
    code, out, err = run_cli("solve-asp", str(DEMO_PROGRAM))
    assert code == 0 and err == ""
    assert out == "{a, e}\n{b, d, e}\n"


def test_solve_asp_reports_syntax_errors(run_cli, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("a :- b\n", encoding="utf-8")
    code, out, err = run_cli("solve-asp", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("xresp: ProgramSyntaxError: line 1")


# ---------------------------------------------------------------------------
# Error handling and argument validation
# ---------------------------------------------------------------------------


def test_out_of_domain_entity_is_a_one_line_error(run_cli):
    code, out, err = run_cli(
        "classify", "--data", DATA, "--entity", "rain,high,normal,gusty"
    )
    assert code == 1 and out == ""
    assert err.startswith("xresp: DataError:")
    assert "'gusty'" in err and "Wind" in err


def test_missing_file_is_a_one_line_error(run_cli, tmp_path):
    code, _, err = run_cli(
        "classify", "--data", str(tmp_path / "nope.csv"), "--entity", ENTITY
    )
    assert code == 1
    assert err.startswith("xresp: FileNotFoundError:")


def test_staged_overflow_is_a_one_line_error(run_cli):
    code, _, err = run_cli(
        "classify", "--data", DATA, "--entity", ENTITY, "--maxint", "1000"
    )
    assert code == 1
    assert err.startswith("xresp: StagedOverflowError:")


@pytest.mark.parametrize("command", ["classify", "counterfactuals", "explain", "query"])
def test_maxint_with_the_exact_backend_is_rejected(run_cli, tmp_path, command):
    extra = ["--queries", write_queries(tmp_path, "cause(E,U)?"), "--brave"]
    code, out, err = run_cli(
        command, "--data", DATA, "--entity", ENTITY, "--classifier", "exact",
        "--maxint", "1", *(extra if command == "query" else []),
    )
    assert code == 1 and out == ""
    assert err.startswith("xresp: ValueError: --maxint")
    assert "staged" in err and err.count("\n") == 1


def test_staged_maxint_defaults_to_the_library_ceiling(run_cli):
    default = run_cli("classify", "--data", DATA, "--entity", ENTITY)
    explicit = run_cli(
        "classify", "--data", DATA, "--entity", ENTITY, "--maxint", str(10**8)
    )
    assert default == explicit == (0, "label: yes\nyes: 20665\nno: 4608\n", "")


@pytest.mark.parametrize(
    "command", ["classify", "counterfactuals", "explain", "query", "emit-dlv"]
)
@pytest.mark.parametrize("maxint", ["0", "-5"])
def test_a_maxint_below_one_is_refused_alike_by_every_subcommand(
    run_cli, tmp_path, command, maxint
):
    extra = ["--queries", write_queries(tmp_path, "cause(E,U)?"), "--brave"]
    code, out, err = run_cli(
        command, "--data", DATA, "--entity", ENTITY, "--maxint", maxint,
        *(extra if command == "query" else []),
    )
    assert (code, out) == (1, "")
    assert err == f"xresp: ValueError: --maxint must be at least 1, got {maxint}\n"


COMMAND_EXTRAS = {"query": ["--queries", "missing.q", "--brave"]}


@pytest.mark.parametrize(
    "command", ["classify", "counterfactuals", "explain", "query", "emit-dlv"]
)
def test_maxint_is_checked_before_any_file_is_read(run_cli, tmp_path, command):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli(
        command, "--data", missing, "--entity", ENTITY, "--maxint", "0",
        *COMMAND_EXTRAS.get(command, []),
    )
    assert (code, out) == (1, "")
    assert err == "xresp: ValueError: --maxint must be at least 1, got 0\n"
    if command != "emit-dlv":  # emit-dlv is staged only and has no --classifier
        code, out, err = run_cli(
            command, "--data", missing, "--entity", ENTITY,
            "--classifier", "exact", "--maxint", "5",
            *COMMAND_EXTRAS.get(command, []),
        )
        assert (code, out) == (1, "")
        assert err == (
            "xresp: ValueError: --maxint bounds the staged backend's integer "
            "products and has no effect with --classifier exact\n"
        )


def test_maxint_help_states_the_library_default(capsys):
    # the option table writes the default out rather than import naive_bayes for it
    rows = [
        line
        for command in EXPECTED_OPTIONS
        for line in help_text(capsys, command).splitlines()
        if line.startswith("  --maxint ")
    ]
    assert len(rows) == 5
    for row in rows:
        assert row.endswith(f"(default: {DEFAULT_MAXINT})")
    assert all(default is None
               for *_, options in _COMMANDS.values()
               for flag, _, _, default, _, _ in options if flag == "--maxint")


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no subcommand
        ["classify", "--entity", ENTITY],  # neither --data nor --model
        ["classify", "--data", DATA, "--model", "m.txt", "--entity", ENTITY],
        ["classify", "--data", DATA],  # missing --entity
        ["query", "--data", DATA, "--entity", ENTITY, "--queries", "q.txt"],
        ["classify", "--data", DATA, "--entity", ENTITY, "--classifier", "fuzzy"],
    ],
)
def test_argument_errors_exit_with_usage(run_cli, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_runs_are_deterministic(run_cli):
    first = run_cli("explain", "--data", DATA, "--entity", ENTITY)
    second = run_cli("explain", "--data", DATA, "--entity", ENTITY)
    assert first == second


def solve_asp(program, stdout, unbuffered):
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               PYTHONUNBUFFERED=unbuffered)
    return subprocess.Popen(
        [sys.executable, "-m", "xresp.cli", "solve-asp", str(program)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_after_the_first_line_ends_the_run_quietly(tmp_path, unbuffered):
    # 1,024 stable models of some 330 bytes each: more than a pipe holds, so
    # the run is still writing when the reader closes its end
    program = tmp_path / "many.lp"
    program.write_text("".join(
        f"a_rather_long_atom_name_{i:02d}_left v a_rather_long_atom_name_{i:02d}_right.\n"
        for i in range(10)
    ), encoding="utf-8")
    with solve_asp(program, subprocess.PIPE, unbuffered) as run:
        assert run.stdout.readline().startswith("{a_rather_long_atom_name_00_left, ")
        run.stdout.close()
        assert (run.wait(timeout=60), run.stderr.read()) == (1, "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_before_any_output_ends_the_run_quietly(unbuffered):
    # buffered, the two models fit in stdout's buffer, so only the flush at
    # the end of the run finds the pipe closed
    read, write = os.pipe()
    os.close(read)
    with solve_asp(DEMO_PROGRAM, write, unbuffered) as run:
        os.close(write)
        assert (run.wait(timeout=60), run.stderr.read()) == (1, "")


# ---------------------------------------------------------------------------
# The option table against the argparse reference
# ---------------------------------------------------------------------------

REFERENCE = _build_parser()


def outcome(parse, argv):
    """``("values", namespace attributes)`` or ``("exit", status)``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "values", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code


def assert_parsed_as_argparse_does(argv):
    expected = outcome(REFERENCE.parse_args, argv)
    assert outcome(_parse, argv) == expected, argv
    return expected


STAGED_8X3 = ["--model", "8x3.model", "--entity", "jade,red,ruby,plum,ruby,green,amber,teal",
              "--maxint", "100000000000"]
EXACT_9X3 = ["--model", "9x3.model", "--entity", "plum,jade,plum,ruby,amber,green,red,red,amber",
             "--classifier", "exact"]
INSTANCE = ["--data", DATA, "--entity", ENTITY]
ACCEPTED = {
    **{f"readme-{i}": argv[1:] for i, (argv, _) in
       enumerate(readme_walkthrough(REPO_ROOT / "README.md")) if argv[0] == "xresp"},
    # one argument list of each shape the benchmark runs
    "bench-train": ["train", "--data", "8x3.csv", "--out", "8x3.model"],
    "bench-explain": ["explain", *STAGED_8X3],
    "bench-explain-constrained": ["explain", *STAGED_8X3, "--constraints", "8x3-e00.cons"],
    "bench-query": ["query", *STAGED_8X3, "--queries", "8x3.q", "--cautious"],
    "bench-full-search": ["counterfactuals", *EXACT_9X3],
    "bench-min-change": ["counterfactuals", *EXACT_9X3, "--min-change"],
    "bench-min-change-query": ["query", *EXACT_9X3, "--min-change",
                               "--queries", "9x3.mcq", "--brave"],
    "bench-emit": ["emit-dlv", *STAGED_8X3, "--constraints", "8x3-e00.cons", "--weak"],
    "bench-solve": ["solve-asp", "p14-0.lp"],
    "equals": ["classify", f"--data={DATA}", f"--entity={ENTITY}", "--classifier=exact"],
    "equals-empty": ["explain", "--data", DATA, "--entity="],
    "abbreviations": ["query", "--da", DATA, "--ent", ENTITY, "--qu=q.txt",
                      "--ca", "--mi", "--str"],
    "repeated": ["query", *INSTANCE, "--queries", "a", "--queries", "b", "--brave", "--brave",
                 "--classifier", "exact", "--classifier", "staged", "--data", "other.csv"],
    "negative-values": ["classify", "--data", DATA, "--entity", "-5", "--maxint", "-5",
                        "--eid", "-1.5"],
    "value-with-space": ["train", "--data", "-a b", "--positive-label", "yes"],
    "positional-after-dashes": ["solve-asp", "--", "-p.lp"],
    "dashes-after-positional": ["solve-asp", "p.lp", "--"],
    "int-forms": ["emit-dlv", *INSTANCE, "--maxint", " 1_000 "],
}
REFUSED = {
    "no-subcommand": [],
    "unknown-subcommand": ["explian", *INSTANCE],
    "abbreviated-subcommand": ["expl", *INSTANCE],
    "missing-entity": ["classify", "--data", DATA],
    "missing-model-source": ["classify", "--entity", ENTITY],
    "missing-semantics": ["query", *INSTANCE, "--queries", "q.txt"],
    "missing-program": ["solve-asp"],
    "data-and-model": ["classify", *INSTANCE, "--model", "m.txt"],
    "brave-and-cautious": ["query", *INSTANCE, "--queries", "q", "--brave", "--cautious"],
    "bad-choice": ["classify", *INSTANCE, "--classifier", "fuzzy"],
    "bad-int": ["classify", *INSTANCE, "--maxint", "lots"],
    "unknown-option": ["explain", *INSTANCE, "--verbose"],
    "option-of-another-command": ["classify", *INSTANCE, "--strict"],
    "option-before-command": ["--strict", "explain", *INSTANCE],
    "missing-value": ["classify", "--data", DATA, "--entity"],
    "option-as-value": ["classify", "--data", "--entity", ENTITY],
    "ambiguous-prefix": ["counterfactuals", *INSTANCE, "--m"],
    "value-to-a-switch": ["explain", *INSTANCE, "--strict=yes"],
    "extra-positional": ["solve-asp", "a.lp", "b.lp"],
    "stray-positional": ["explain", *INSTANCE, "extra"],
    "dashes-without-positional": ["explain", *INSTANCE, "--"],
}
HELP = {
    "top": ["-h"],
    "top-long": ["--help"],
    "command": ["explain", "--help"],
    "command-prefix": ["query", "--he"],
    "before-missing-values": ["solve-asp", "-h"],
    "after-unknown": ["train", "--bogus", "-h"],
}


@pytest.mark.parametrize("argv", ACCEPTED.values(), ids=ACCEPTED)
def test_the_option_table_gives_argparse_values(argv):
    assert assert_parsed_as_argparse_does(argv)[0] == "values"


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_the_option_table_refuses_what_argparse_refuses(argv, capsys):
    assert assert_parsed_as_argparse_does(argv) == ("exit", 2)
    with pytest.raises(SystemExit):
        _parse(argv)
    err = capsys.readouterr().err.splitlines()
    command = next((token for token in argv if token in _COMMANDS), None)
    assert err[0].startswith(f"usage: xresp {command or ''}".rstrip())
    assert err[-1].startswith(f"xresp {command}: error: " if command else "xresp: error: ")


@pytest.mark.parametrize("argv", HELP.values(), ids=HELP)
def test_help_exits_zero_as_in_argparse(argv, capsys):
    assert assert_parsed_as_argparse_does(argv) == ("exit", 0)
    with pytest.raises(SystemExit):
        _parse(argv)
    assert capsys.readouterr().out.startswith("usage: xresp")


# tokens that argparse reads as a value, an option or a positional by their
# form; a "--" given as an option's "=" value is left out, because argparse
# 3.10 and 3.11 read it as an empty list
TOKENS = ("a,b", "5", "-3", " 9", "1_0", "exact", "staged", "", "-1.5", "a b", "-a b",
          "=", "-", "--", "-x", "--x", "--m", "--c", "--he", "x")


def random_argv(rng):
    command = rng.choice([*_COMMANDS, "bogus"])
    options = _COMMANDS.get(command, ((),))[-1]
    groups = [option[4] for option in options]
    given = []
    for name, _, kind, _, group, _ in options:
        required = group is not None and groups.count(group) == 1
        for _ in range(rng.choice((1, 1, 1, 2) if required else (0, 1))):
            value = rng.choice(TOKENS) if rng.random() < 0.3 else "v"
            if name[0] != "-":
                given.append([value])
                continue
            flag = name if rng.random() < 0.5 else name[:rng.randint(3, len(name))]
            if not isinstance(kind, (type, tuple)):  # a switch
                given.append([flag])
            elif rng.random() < 0.3 and value != "--":
                given.append([f"{flag}={value}"])
            else:
                given.append([flag, value])
    rng.shuffle(given)
    for _ in range(rng.choice((0, 0, 0, 1))):
        given.insert(rng.randint(0, len(given)), [rng.choice(TOKENS)])
    return [command, *(token for tokens in given for token in tokens)]


def test_random_argument_lists_parse_as_argparse_does():
    rng = random.Random(5)
    outcomes = [assert_parsed_as_argparse_does(random_argv(rng))[0] for _ in range(3000)]
    # both kinds are drawn often
    assert min(outcomes.count("values"), outcomes.count("exit")) > 300
