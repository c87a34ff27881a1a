"""Tests for conjunctive queries over counterfactual model atom sets."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from xresp import (
    Entity,
    enumerate_counterfactuals,
    load_dataset,
    min_change_versions,
    to_percent,
    train,
)
from xresp.naive_bayes import DEFAULT_MAXINT, PercentModel
from xresp import _bfs, engine
from xresp.constraints import parse_constraints
from xresp.queries import (
    Anonymous,
    AtomPattern,
    Comparison,
    Constant,
    ModelAtomSet,
    QueryError,
    Variable,
    answer,
    load_queries,
    model_atom_sets,
    parse_query,
)
from xresp.schema import render_row, render_value

from conftest import REPO_ROOT, TWO_DEPTH_DEPEND
from helpers import CountingModel
from oracles import oracle_answer, oracle_atoms_of, random_instance

# ---------------------------------------------------------------------------
# The five reference queries over the weather instance
# ---------------------------------------------------------------------------

REFERENCE_ANSWERS = {
    "invResp(e,outlook,R)?": [
        "2",
        "3",
        "4",
    ],
    "fullExpl(E,U,R,S), R<3?": [
        "e, humidity, 1, {}",
        "e, humidity, 2, {outlook}",
        "e, humidity, 2, {wind}",
        "e, outlook, 2, {humidity}",
        "e, outlook, 2, {wind}",
        "e, wind, 2, {humidity}",
        "e, wind, 2, {outlook}",
    ],
    "cls(E,O,T,H,W,_), O = sunny, W = strong?": [
        "e, sunny, high, normal, strong, no",
        "e, sunny, low, high, strong, no",
        "e, sunny, low, normal, strong, yes",
        "e, sunny, medium, high, strong, no",
        "e, sunny, medium, normal, strong, yes",
    ],
    "cls(E,O,T,H,W,no)?": [
        "e, rain, high, high, strong",
        "e, rain, high, high, weak",
        "e, rain, low, high, strong",
        "e, rain, medium, high, strong",
        "e, sunny, high, high, weak",
        "e, sunny, high, normal, strong",
        "e, sunny, low, high, strong",
        "e, sunny, low, high, weak",
        "e, sunny, medium, high, strong",
        "e, sunny, medium, high, weak",
    ],
    "ent(e,_,_,_,Wp,s), ent(e,_,_,_,W,o), W = Wp?": [
        "rain, high, high, weak, rain, high, normal, weak",
        "sunny, high, high, weak, rain, high, normal, weak",
        "sunny, low, high, weak, rain, high, normal, weak",
        "sunny, medium, high, weak, rain, high, normal, weak",
    ],
}


@pytest.mark.parametrize("text, expected", sorted(REFERENCE_ANSWERS.items()))
def test_reference_queries_brave(weather_atom_sets, text, expected):
    rows = answer(parse_query(text), weather_atom_sets, "brave")
    assert [render_row(row) for row in rows] == expected


@pytest.mark.parametrize("text", sorted(REFERENCE_ANSWERS))
def test_reference_queries_cautious_are_empty(weather_atom_sets, text):
    # each reference query depends on atoms present only in some models
    assert answer(parse_query(text), weather_atom_sets, "cautious") == []


def test_cautious_can_be_nonempty(weather_atom_sets):
    # every model shares the original o-annotated entity
    query = parse_query("ent(e,O,T,H,W,o)?")
    rows = answer(query, weather_atom_sets, "cautious")
    assert [render_row(row) for row in rows] == ["rain, high, normal, weak"]
    assert rows == answer(query, weather_atom_sets, "brave")


@pytest.mark.parametrize(
    "text",
    [
        "invResp(e,U,R)?",
        "fullExpl(E,U,R,S)?",
        "cls(E,O,T,H,W,L)?",
        "ent(E,O,T,H,W,s)?",
        "cause(E,U)?",
        "cont(e,U,S)?",
        "expl(e,U,X)?",
    ],
)
def test_cautious_rows_are_a_subset_of_brave_rows(weather_atom_sets, text):
    query = parse_query(text)
    brave = answer(query, weather_atom_sets, "brave")
    cautious = answer(query, weather_atom_sets, "cautious")
    assert set(cautious) <= set(brave)


# ---------------------------------------------------------------------------
# Atom materialization
# ---------------------------------------------------------------------------


def test_atom_sets_share_original_and_disagree_on_terminals(weather_atom_sets,
                                                            weather_versions):
    assert len(weather_atom_sets) == 10
    original_atom = ("e", "rain", "high", "normal", "weak", "o")
    for atom_set, version in zip(weather_atom_sets, weather_versions):
        assert original_atom in atom_set.tuples("ent")
        assert ("e", *version.final, "s") in atom_set.tuples("ent")
        assert ("e", *version.final, "no") in atom_set.tuples("cls")
        # one do state per intervention step, plus tr for every state
        do_atoms = {t for t in atom_set.tuples("ent") if t[-1] == "do"}
        tr_atoms = {t for t in atom_set.tuples("ent") if t[-1] == "tr"}
        assert do_atoms == {("e", *s, "do") for s in version.states[1:]}
        assert tr_atoms == {("e", *s, "tr") for s in version.states}
        assert len(do_atoms) == len(version.states) - 1


def test_atom_sets_carry_staged_scores(weather_atom_sets):
    # the single-change model: scores for the original and the flipped state
    pb = weather_atom_sets[0].tuples("pb_num")
    assert ("e", "rain", "high", "normal", "weak", "yes", 20665) in pb
    assert ("e", "rain", "high", "normal", "weak", "no", 4608) in pb
    assert ("e", "rain", "high", "high", "weak", "yes", 10156) in pb
    assert ("e", "rain", "high", "high", "weak", "no", 18432) in pb


def test_exact_models_have_no_pb_num(weather_model, weather_entity):
    versions = enumerate_counterfactuals(weather_model, weather_entity)
    atom_set = model_atom_sets(versions, weather_model, weather_entity)[0]
    assert atom_set.tuples("pb_num") == frozenset()
    assert atom_set.tuples("cls")


def test_explanation_atoms_use_lowercased_names(weather_atom_sets):
    version_atoms = weather_atom_sets[0]  # the Humidity-only version
    assert version_atoms.tuples("cause") == frozenset({("e", "humidity")})
    assert version_atoms.tuples("expl") == frozenset({("e", "humidity", "normal")})
    assert version_atoms.tuples("cont") == frozenset({("e", "humidity", frozenset())})
    assert version_atoms.tuples("invResp") == frozenset({("e", "humidity", 1)})
    assert version_atoms.tuples("fullExpl") == frozenset(
        {("e", "humidity", 1, frozenset())}
    )


def test_atoms_of_rejects_mismatched_version(weather_versions, weather_percent):
    # a version from another original entity is rejected
    other = Entity("e", ("sunny", "high", "normal", "weak"))
    with pytest.raises(QueryError, match="do not start from the original entity"):
        model_atom_sets(weather_versions, weather_percent, other)


@pytest.mark.parametrize("refused, kind", [
    (lambda versions: versions[:1], "tuple"),
    (list, "list"),
    (lambda versions: tuple(min_change_versions(versions)), "tuple"),
])
def test_model_atom_sets_takes_only_search_results(weather_versions, weather_percent,
                                                   weather_entity, refused, kind):
    with pytest.raises(TypeError, match="^model_atom_sets takes a result of "
                                        f"enumerate_counterfactuals, not {kind}$"):
        model_atom_sets(refused(weather_versions), weather_percent, weather_entity)


def test_min_change_versions_of_a_result_is_a_result(weather_versions, weather_percent,
                                                     weather_entity):
    kept = min_change_versions(weather_versions)
    searched = enumerate_counterfactuals(weather_percent, weather_entity, min_change=True)
    assert kept == searched and len(kept) == 1
    (atom_set,) = model_atom_sets(kept, weather_percent, weather_entity)
    assert atom_set.atoms == model_atom_sets(searched, weather_percent,
                                             weather_entity)[0].atoms


def test_model_atom_sets_matches_atoms_of(weather_versions, weather_percent,
                                          weather_entity, weather_atom_sets):
    rebuilt = model_atom_sets(weather_versions, weather_percent, weather_entity)
    assert [m.atoms for m in rebuilt] == [m.atoms for m in weather_atom_sets]


def test_lazy_atom_sets_match_the_eager_oracle(weather_versions, weather_percent,
                                               weather_entity, weather_atom_sets):
    for version, atom_set in zip(weather_versions, weather_atom_sets):
        assert dict(atom_set.atoms.items()) == oracle_atoms_of(
            version, weather_percent, weather_entity
        )


def test_lazy_atom_sets_match_the_oracle_without_pb_num_and_exact(
    weather_model, weather_entity
):
    versions = enumerate_counterfactuals(weather_model, weather_entity)
    atom_sets = model_atom_sets(versions, weather_model, weather_entity)
    for version, atom_set in zip(versions, atom_sets):
        assert "pb_num" not in atom_set.atoms
        assert dict(atom_set.atoms.items()) == oracle_atoms_of(
            version, weather_model, weather_entity
        )


def test_lazy_atom_sets_match_the_oracle_under_a_dependency(tmp_path):
    rng = random.Random(8080)
    checked = 0
    for _ in range(30):
        csv_text, entity_values = random_instance(rng)
        path = tmp_path / "instance.csv"
        path.write_text(csv_text, encoding="utf-8")
        model = to_percent(train(load_dataset(str(path))))
        (source, source_domain), (target, target_domain) = model.schema.features[:2]
        mapping = ", ".join(f"{v}->{rng.choice(target_domain)}" for v in source_domain)
        constraints = parse_constraints(
            f"depend {source} -> {target}: {mapping}", model.schema
        )
        entity = Entity("e", entity_values)
        versions = enumerate_counterfactuals(model, entity, constraints)
        for version, atom_set in zip(
            versions, model_atom_sets(versions, model, entity)
        ):
            assert dict(atom_set.atoms.items()) == oracle_atoms_of(
                version, model, entity
            )
            checked += 1
    assert checked > 20


def test_model_atom_sets_classify_each_distinct_state_at_most_once(
    weather_percent, weather_entity
):
    model = CountingModel.of(weather_percent)
    for min_change in (False, True):  # a folded grid, then cells on demand
        versions = enumerate_counterfactuals(model, weather_entity,
                                             min_change=min_change)
        model.calls.clear()
        model.folds.clear()
        atom_sets = model_atom_sets(versions, model, weather_entity)
        for atom_set in atom_sets:
            assert atom_set.tuples("cls") and atom_set.tuples("pb_num")
        # the search scored every state, so the query layer scores nothing
        assert not model.calls and not model.folds

    # results searched under another ceiling or with another model object
    # carry other scores: they are refused, and nothing is classified
    mismatched = [
        (enumerate_counterfactuals(model, weather_entity, maxint=10**9), model),
        (enumerate_counterfactuals(weather_percent, weather_entity), model),
        (enumerate_counterfactuals(model, weather_entity), weather_percent),
    ]
    for versions, query_model in mismatched:
        model.calls.clear()
        model.folds.clear()
        with pytest.raises(QueryError, match="^version was not searched with "
                                              "this model and maxint$"):
            model_atom_sets(versions, query_model, weather_entity)
        assert not model.calls and not model.folds
    # so is a result searched from another original
    versions = enumerate_counterfactuals(model, Entity("e", ("sunny", "high", "normal",
                                                             "weak")))
    model.calls.clear()
    model.folds.clear()
    with pytest.raises(QueryError, match="^version states do not start from the "
                                          "original entity$"):
        model_atom_sets(versions, model, weather_entity)
    assert not model.calls and not model.folds


def counted(monkeypatch, owners, name):
    """The codes that later calls of method ``name`` of any of ``owners`` receive."""
    calls = []

    def counting(method):
        def wrapper(self, code):
            calls.append(code)
            return method(self, code)
        return wrapper

    for owner in owners:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    return calls


@pytest.mark.parametrize("min_change", [False, True])  # folded, then on demand
def test_explanation_queries_decode_no_chain_and_score_nothing(
    weather_percent, weather_entity, monkeypatch, min_change
):
    model = CountingModel.of(weather_percent)
    versions = enumerate_counterfactuals(model, weather_entity, min_change=min_change)
    model.calls.clear()
    model.folds.clear()
    decoded = counted(monkeypatch, [engine._Grid], "decode")
    scored = counted(monkeypatch, [engine._FoldedCells, _bfs._CellsOnDemand], "score")
    atom_sets = model_atom_sets(versions, model, weather_entity)
    texts = ("fullExpl(E,U,R,S), R<3?", "invResp(e,outlook,R)?", "cause(E,U), cont(E,U,S)?",
             "expl(E,U,V)?")
    rows = {(text, semantics): answer(parse_query(text), atom_sets, semantics)
            for text in texts for semantics in ("brave", "cautious")}
    assert not decoded and not scored and not model.calls and not model.folds
    models = [ModelAtomSet(oracle_atoms_of(v, model, weather_entity)) for v in versions]
    for (text, semantics), got in rows.items():
        assert set(got) == oracle_answer(parse_query(text), models, semantics)
    assert any(rows.values())


@pytest.mark.parametrize("min_change", [False, True])  # folded, then on demand
def test_a_cls_query_scores_each_chain_cell_at_most_once(
    weather_percent, weather_entity, monkeypatch, min_change
):
    """A ``cls`` atom takes the label the search already holds, so a ``cls``
    query scores no cell; a ``pb_num`` query scores each chain cell once."""
    model = CountingModel.of(weather_percent)
    versions = enumerate_counterfactuals(model, weather_entity, min_change=min_change)
    model.calls.clear()
    model.folds.clear()
    scored = counted(monkeypatch, [engine._FoldedCells, _bfs._CellsOnDemand], "score")
    atom_sets = model_atom_sets(versions, model, weather_entity)
    for text in ("cls(E,O,T,H,W,L)?", "pb_num(E,O,T,H,W,L,N)?"):
        for semantics in ("brave", "cautious", "brave"):
            assert answer(parse_query(text), atom_sets, semantics)
        if text.startswith("cls"):
            assert not scored
    assert not model.calls and not model.folds
    assert Counter(scored).most_common(1)[0][1] == 1
    # every cell on some chain, and nothing else
    assert set(scored) == {versions.grid.encode(state) for v in versions for state in v.states}


def chain_queries(model, values, maxint):
    """One-atom chain queries, one with a repeated variable and one with an
    integer constant, and a join of a chain predicate with an explanation one."""
    free = ",".join(f"V{i}" for i in range(len(values)))
    repeated = ",".join(["X", "X"] + [f"V{i}" for i in range(2, len(values))])
    texts = {"ent": f"ent(E,{free},A)?", "cls": f"cls(E,{free},L)?",
             "cls, repeated": f"cls(E,{repeated},L)?",
             "ent, repeated": f"ent(E,{repeated},A)?",
             "join": f"ent(E,{free},s), invResp(E,U,R)?"}
    if isinstance(model, PercentModel):
        texts["pb_num"] = f"pb_num(E,{free},L,N)?"
        texts["pb_num, integer"] = f"pb_num(E,{free},L,{model.classify(values, maxint)[1]})?"
    return {name: parse_query(text) for name, text in texts.items()}


def assert_chain_queries_match_the_oracle(model, entity, constraints=None, **options):
    """Answers from the search result equal the oracle's over every version."""
    maxint = options.get("maxint", DEFAULT_MAXINT)
    versions = enumerate_counterfactuals(model, entity, constraints, **options)
    atom_sets = model_atom_sets(versions, model, entity, maxint=maxint)
    models = [ModelAtomSet(oracle_atoms_of(v, model, entity, maxint=maxint))
              for v in versions]
    nonempty = Counter()
    for name, query in chain_queries(model, entity.values, maxint).items():
        for semantics in ("brave", "cautious"):
            rows = answer(query, atom_sets, semantics)
            assert len(rows) == len(set(rows))
            assert set(rows) == oracle_answer(query, models, semantics), (name, semantics)
            nonempty[name, semantics] = bool(rows)
    return versions, nonempty


def test_one_atom_cautious_chain_queries_search_nothing_when_no_feature_is_shared(
    weather_model, weather_percent, weather_entity, monkeypatch
):
    """No feature is changed in every weather version, so the original alone
    is on every chain: its ``ent``, ``cls`` and ``pb_num`` atoms are the
    cautious answers, found without the breadth-first search."""
    searches, search = [], _bfs._search
    monkeypatch.setattr(_bfs, "_search", lambda *args: searches.append(args) or search(*args))
    for model in (weather_percent, weather_model):
        versions = enumerate_counterfactuals(model, weather_entity)
        atom_sets = model_atom_sets(versions, model, weather_entity)
        queries = chain_queries(model, weather_entity.values, DEFAULT_MAXINT)
        rows = {name: answer(query, atom_sets, "cautious")
                for name, query in queries.items() if name != "join"}
        assert not searches and rows["ent"] and rows["cls"]
        models = [ModelAtomSet(oracle_atoms_of(v, model, weather_entity)) for v in versions]
        for name, got in rows.items():
            assert set(got) == oracle_answer(queries[name], models, "cautious"), name
        searches.clear()


def test_chain_queries_match_the_oracle_on_weather(weather_model, weather_percent,
                                                   weather_entity):
    depend = parse_constraints(TWO_DEPTH_DEPEND, weather_model.schema)
    for model in (weather_percent, weather_model):
        for constraints in (None, depend):
            for min_change in (False, True):
                versions, nonempty = assert_chain_queries_match_the_oracle(
                    model, weather_entity, constraints, min_change=min_change
                )
                assert len(versions) > 1 or min_change
                assert nonempty["cls", "cautious"] and nonempty["join", "brave"]
    negative = Entity("e", ("sunny", "high", "high", "strong"))
    versions, nonempty = assert_chain_queries_match_the_oracle(
        weather_percent, negative, strict=True
    )
    assert versions == () and not any(nonempty.values())


def test_chain_queries_match_the_oracle_on_random_instances(tmp_path):
    rng = random.Random(1616)
    path = tmp_path / "instance.csv"
    outcomes = Counter()
    for _ in range(120):
        csv_text, values = random_instance(rng)
        path.write_text(csv_text, encoding="utf-8")
        exact = train(load_dataset(str(path)))
        model = rng.choice([exact, to_percent(exact)])
        constraints = None
        if rng.random() < 0.5:
            (source, source_domain), (target, target_domain) = model.schema.features[:2]
            mapping = ", ".join(f"{v}->{rng.choice(target_domain)}" for v in source_domain)
            constraints = parse_constraints(f"depend {source} -> {target}: {mapping}",
                                            model.schema)
        options = dict(min_change=rng.random() < 0.5, strict=rng.random() < 0.3)
        versions, nonempty = assert_chain_queries_match_the_oracle(
            model, Entity("e", values), constraints, **options
        )
        outcomes["versions"] += bool(versions)
        outcomes["depend"] += bool(versions) and constraints is not None
        outcomes["min_change"] += bool(versions) and options["min_change"]
        outcomes["exact"] += bool(versions) and model is exact
        outcomes["strict, empty"] += options["strict"] and not versions
        outcomes.update(key for key, rows in nonempty.items() if rows)
    assert min(outcomes[key] for key in ("depend", "min_change", "exact", "strict, empty")) > 10
    # the repeated variable and the integer constant match in some cautious answers
    assert outcomes["cls, repeated", "cautious"] > 10
    assert outcomes["pb_num, integer", "cautious"] > 10
    # the join is cautious-nonempty only for a single version
    assert outcomes["join", "cautious"] > 10


@pytest.mark.parametrize("min_change", [False, True])  # folded, then on demand
def test_each_cell_is_decoded_at_most_once_per_result(weather_percent, weather_entity,
                                                      monkeypatch, min_change):
    versions = enumerate_counterfactuals(weather_percent, weather_entity,
                                         min_change=min_change)
    decoded = counted(monkeypatch, [engine._Grid], "decode")
    atom_sets = model_atom_sets(versions, weather_percent, weather_entity)
    assert list(versions)
    # each chain predicate alone, and joined with an explanation predicate
    for query in chain_queries(weather_percent, weather_entity.values, DEFAULT_MAXINT).values():
        for semantics in ("brave", "cautious"):
            answer(query, atom_sets, semantics)
    assert atom_sets[0].tuples("ent")
    assert Counter(decoded).most_common(1)[0][1] == 1
    # every chain cell but the original, whose values the result starts from
    chain_cells = {versions.grid.encode(state) for v in versions for state in v.states}
    assert set(decoded) == chain_cells - {versions.start}


def test_queries_leave_chains_and_cells_to_the_search_result():
    text = (REPO_ROOT / "src" / "xresp" / "queries.py").read_text(encoding="utf-8")
    assert not re.findall(r"\.parent\b|\.grid\b", text)


def test_versions_with_one_changed_set_share_explanation_tables(weather_percent,
                                                                weather_entity):
    constraints = parse_constraints(
        "depend Temperature -> Humidity: high->normal, medium->high, low->high",
        weather_percent.schema,
    )
    versions = enumerate_counterfactuals(weather_percent, weather_entity, constraints)
    atom_sets = model_atom_sets(versions, weather_percent, weather_entity)
    first_of: dict = {}
    shared = 0
    for version, atom_set in zip(versions, atom_sets):
        first = first_of.setdefault(version.changed, atom_set)
        if first is not atom_set:
            shared += 1
            for predicate in ("expl", "cause", "cont", "invResp", "fullExpl"):
                assert atom_set.tuples(predicate) is first.tuples(predicate)
    assert shared


def test_lazy_atom_sets_are_read_only(weather_atom_sets):
    atoms = weather_atom_sets[0].atoms
    with pytest.raises(TypeError):
        atoms["cls"] = frozenset()
    with pytest.raises(KeyError):
        atoms["bogus"]
    assert atoms.get("bogus") is None
    assert len(atoms) == len(list(atoms))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_query_structure():
    query = parse_query("fullExpl(E,U,R,S), R<3?")
    assert query.atoms == (
        AtomPattern(
            predicate="fullExpl",
            args=(Variable("E"), Variable("U"), Variable("R"), Variable("S")),
        ),
    )
    assert query.comparisons == (
        Comparison(op="<", left=Variable("R"), right=Constant(3)),
    )


def test_parse_term_kinds():
    query = parse_query("p(X, _, abc, 42, -7, {a,b}, {})")
    (pattern,) = query.atoms
    assert pattern.args == (
        Variable("X"),
        Anonymous(),
        Constant("abc"),
        Constant(42),
        Constant(-7),
        Constant(frozenset({"a", "b"})),
        Constant(frozenset()),
    )


def test_parse_query_without_question_mark():
    assert parse_query("p(X)").atoms == parse_query("p(X)?").atoms


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty query"),
        ("?", "empty query"),
        ("R < 3?", "at least one atom"),
        ("p(X), Y < 3?", "does not occur in any atom"),
        ("p(_), _ < 3?", "anonymous"),
        ("p()?", "at least one argument"),
        ("p(X,,Y)?", "empty literal"),
        ("p(9x)?", "bad term"),
        ("p(_X)?", "bad term: '_X'"),
        ("p({a,B})?", "bad term: '{a,B}'"),
        ("p({a,})?", "bad term"),
        ("p(X))?", "unbalanced"),
        ("p({a,b)?", "unterminated set literal"),
        ("p(X) q(Y)?", "unbalanced brackets"),
        ("p(X) extra?", "cannot parse literal"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(QueryError, match=fragment):
        parse_query(text)


def test_load_queries_names_the_line_of_a_bad_query():
    with pytest.raises(QueryError, match=r"^line 3: cannot parse literal: 'cause\(E,U'$"):
        load_queries("% causes\n\ncause(E,U\ncls(E,O,T,H,W,no)?\n")


def test_load_queries_skips_comments_and_blanks():
    queries = load_queries(
        "% reference queries\n"
        "invResp(e,outlook,R)?\n"
        "\n"
        "cls(E,O,T,H,W,no)?  % all flipped states\n"
    )
    assert [q.text for q in queries] == [
        "invResp(e,outlook,R)?",
        "cls(E,O,T,H,W,no)?",
    ]


# ---------------------------------------------------------------------------
# Evaluation over synthetic atom sets
# ---------------------------------------------------------------------------

M1 = ModelAtomSet({"p": frozenset({("a", 1), ("b", 2)}), "q": frozenset({(1,)})})
M2 = ModelAtomSet(
    {"p": frozenset({("a", 1), ("c", 3)}), "q": frozenset({(1,), (3,)})}
)


def test_echo_skips_constants():
    rows = answer(parse_query("p(a, X)?"), [M1], "brave")
    assert rows == [(1,)]
    assert render_row(rows[0]) == "1"


def test_echo_includes_anonymous_positions():
    rows = answer(parse_query("p(_, X)?"), [M1], "brave")
    assert rows == [("a", 1), ("b", 2)]


def test_join_across_atoms_and_semantics():
    # a variable shared across atoms joins them and echoes at each position
    query = parse_query("p(X, N), q(N)?")
    assert answer(query, [M1, M2], "brave") == [("a", 1, 1), ("c", 3, 3)]
    assert answer(query, [M1, M2], "cautious") == [("a", 1, 1)]


def test_repeated_variables_must_agree():
    atoms = ModelAtomSet({"p": frozenset({("a", "a"), ("a", "b")})})
    assert answer(parse_query("p(X, X)?"), [atoms], "brave") == [("a", "a")]


def test_comparison_operators(weather_atom_sets):
    atoms = ModelAtomSet({"p": frozenset({(1, 2), (2, 1), (2, 2)})})
    def rows(text):
        return answer(parse_query(text), [atoms], "brave")
    assert rows("p(X, Y), X < Y?") == [(1, 2)]
    assert rows("p(X, Y), X <= Y?") == [(1, 2), (2, 2)]
    assert rows("p(X, Y), X = Y?") == [(2, 2)]
    assert rows("p(X, Y), X != Y?") == [(1, 2), (2, 1)]
    assert rows("p(X, Y), X < 2?") == [(1, 2)]
    # a constant on the left of = or != compares as on the right
    def weather_rows(text):
        return [render_row(row) for row in
                answer(parse_query(f"invResp(E,U,R), {text}?"), weather_atom_sets, "brave")]
    assert weather_rows("1 = R") == weather_rows("R = 1") == ["e, humidity, 1"]
    assert weather_rows("humidity = U") == weather_rows("U = humidity") == [
        f"e, humidity, {r}" for r in range(1, 5)]
    every = weather_rows("R = R")
    not_two = [row for row in every if not row.endswith(", 2")]
    assert weather_rows("2 != R") == weather_rows("R != 2") == not_two
    assert len(not_two) < len(every)


def test_ordered_comparison_requires_integers():
    atoms = ModelAtomSet({"s": frozenset({("a", "b")})})
    with pytest.raises(QueryError, match="integer operands"):
        answer(parse_query("s(X, Y), X < Y?"), [atoms], "brave")
    # equality on strings is fine
    assert answer(parse_query("s(X, Y), X = Y?"), [atoms], "brave") == []


def test_unknown_predicate_and_arity_mismatch(weather_atom_sets):
    with pytest.raises(QueryError, match="unknown predicate"):
        answer(parse_query("bogus(X)?"), weather_atom_sets, "brave")
    with pytest.raises(QueryError, match="arity mismatch"):
        answer(parse_query("invResp(e,R)?"), weather_atom_sets, "brave")


def test_an_empty_view_still_checks_the_query(weather_no_versions, weather_percent,
                                              weather_entity):
    view = model_atom_sets(weather_no_versions, weather_percent, weather_entity)
    assert len(view) == 0
    for semantics in ("brave", "cautious"):
        with pytest.raises(QueryError, match="unknown predicate"):
            answer(parse_query("bogus(X)?"), view, semantics)
        with pytest.raises(QueryError, match="arity mismatch"):
            answer(parse_query("invResp(e,R)?"), view, semantics)
        for text in ("cause(E,U)?", "cls(E,O,H,T,W,L)?", "ent(E,O,H,T,W,A), cause(E,U)?"):
            assert answer(parse_query(text), view, semantics) == []


def test_empty_model_list_answers_empty():
    assert answer(parse_query("whatever(X)?"), [], "brave") == []
    assert answer(parse_query("whatever(X)?"), [], "cautious") == []


def test_semantics_name_is_validated(weather_atom_sets):
    with pytest.raises(QueryError, match="brave"):
        answer(parse_query("cause(E,U)?"), weather_atom_sets, "boldly")


# Random models over three predicates.  The string "1" and the integer 1
# both occur, so integer constants meet both of the values they match; p's
# first position draws both, so one constant can match two atoms there.
KINDS = {"p": ("mixed", "int"), "q": ("int",), "r": ("str", "str", "set")}
POOL = {
    "int": (1, 2, 3),
    "str": ("1", "a", "b"),
    "mixed": (1, "1", "a"),
    "set": (frozenset(), frozenset({"a"}), frozenset({"a", "b"})),
}


def constant_text(value):
    return render_value(value) if isinstance(value, frozenset) else str(value)


@st.composite
def random_models(draw):
    # a few tables per predicate, each drawn by several models
    tables = {
        predicate: [
            frozenset(draw(st.sets(
                st.tuples(*(st.sampled_from(POOL[kind]) for kind in kinds)),
                max_size=4,
            )))
            for _ in range(3)
        ]
        for predicate, kinds in KINDS.items()
    }
    models = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        # later models may lack a predicate altogether
        present = [p for p in sorted(KINDS) if i == 0 or draw(st.integers(0, 5))]
        models.append(ModelAtomSet(
            {predicate: draw(st.sampled_from(tables[predicate])) for predicate in present}
        ))
    return models


@st.composite
def random_queries(draw):
    literals = []
    kinds_of: dict[str, set[str]] = {}
    constants = [constant_text(v) for pool in POOL.values() for v in pool]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        predicate = draw(st.sampled_from(sorted(KINDS)))
        args = []
        for kind in KINDS[predicate]:
            choice = draw(st.sampled_from(("constant", "variable", "variable", "_")))
            if choice == "constant":
                args.append(draw(st.sampled_from(constants)))
            elif choice == "variable":
                name = draw(st.sampled_from("XYZ"))
                kinds_of.setdefault(name, set()).add(kind)
                args.append(name)
            else:
                args.append("_")
        literals.append(f"{predicate}({','.join(args)})")
    variables = sorted(kinds_of)
    # ordered comparisons only between integers, so neither side raises
    integers = [v for v in variables if kinds_of[v] == {"int"}] + ["1", "2", "3"]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        op = draw(st.sampled_from(("=", "!=", "<", "<=")))
        if op in ("<", "<="):
            left, right = draw(st.sampled_from(integers)), draw(st.sampled_from(integers))
        elif variables:
            left = draw(st.sampled_from(variables))
            right = draw(st.sampled_from(variables + constants))
        else:
            continue
        literals.append(f"{left} {op} {right}")
    return parse_query(", ".join(literals) + "?")


def documented_order(row):
    """The order ``answer`` documents: integers, then strings, then sets,
    each kind in its natural order; a set orders as its sorted members
    joined by commas."""
    return tuple(
        (0, value) if isinstance(value, int)
        else (1, value) if isinstance(value, str)
        else (2, ",".join(sorted(value)))
        for value in row
    )


@settings(max_examples=300, deadline=None)
@given(query=random_queries(), models=random_models())
def test_answer_matches_the_definitional_oracle(query, models):
    # the rows and their order: one list pins both
    for semantics in ("brave", "cautious"):
        expected = sorted(oracle_answer(query, models, semantics), key=documented_order)
        assert answer(query, models, semantics) == expected


# Rows of strings alone sort as plain tuples: digit strings and initial
# case order as strings do ("10" before "9", "Zeta" before "alpha").  Rows
# that mix kinds, or hold sets, whose plain order is by inclusion, keep
# the documented order.
STRINGS = ModelAtomSet({"p": frozenset({
    ("9", "alpha"), ("10", "alpha"), ("Zeta", "b"), ("alpha", "Zeta"), ("9", "Alpha"),
    ("b", "10"),
})})
ALL_KINDS = ModelAtomSet({"p": frozenset({
    (10, "9"), ("10", 9), (frozenset({"b"}), "a"), (frozenset({"a", "b"}), frozenset()),
    ("Zeta", frozenset({"a"})), (9, "alpha"), ("9", 10),
})})
SETS = ModelAtomSet({"p": frozenset({
    (frozenset({"b"}), frozenset()), (frozenset({"a", "b"}), frozenset({"b"})),
    (frozenset(), frozenset({"a", "b"})),
})})


@pytest.mark.parametrize("text", ["p(X,Y)?", "p(X,_)?", "p(_,Y)?"])
@pytest.mark.parametrize("models", [[STRINGS], [ALL_KINDS], [SETS], [STRINGS, ALL_KINDS]])
def test_rows_of_every_kind_sort_in_the_documented_order(text, models):
    query = parse_query(text)
    for semantics in ("brave", "cautious"):
        expected = sorted(oracle_answer(query, models, semantics), key=documented_order)
        assert answer(query, models, semantics) == expected


def test_string_rows_order_as_strings_do():
    assert answer(parse_query("p(X,Y)?"), [STRINGS], "brave") == [
        ("10", "alpha"), ("9", "Alpha"), ("9", "alpha"), ("Zeta", "b"), ("alpha", "Zeta"),
        ("b", "10"),
    ]


# Atom tables that mix arities: only the query's arity may answer.  One
# atom of distinct variables passes its atoms through as rows; a constant,
# a repeated variable or a comparison must still filter them.
PAIRS = ModelAtomSet({"p": frozenset({(1, 2), (2, 1), (2, 2), (1,), (1, 2, 3)})})
MIXED = ModelAtomSet({"p": frozenset({
    ("a", 1), ("b", "1"), ("c", "c"), ("a", "2"), ("a",), ("c", "c", "c"),
})})


@pytest.mark.parametrize("text, models, expected", [
    ("p(X,Y)?", [PAIRS, MIXED],
     [(1, 2), (2, 1), (2, 2), ("a", 1), ("a", "2"), ("b", "1"), ("c", "c")]),
    ("p(X,_)?", [MIXED],
     [("a", 1), ("a", "2"), ("b", "1"), ("c", "c")]),
    ("p(X,X)?", [PAIRS, MIXED], [(2, 2), ("c", "c")]),
    ("p(X,1)?", [PAIRS, MIXED], [(2,), ("a",), ("b",)]),
    ("p(X,Y), X<Y?", [PAIRS], [(1, 2)]),
])
def test_one_atom_answers_only_at_its_arity(text, models, expected):
    query = parse_query(text)
    assert answer(query, models, "brave") == expected
    assert set(expected) == oracle_answer(query, models, "brave")
    for model in models:  # cautious over one model is that model's rows
        assert set(answer(query, [model], "cautious")) == oracle_answer(
            query, [model], "cautious")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_value_and_row():
    assert render_value(3) == "3"
    assert render_value("sunny") == "sunny"
    assert render_value(frozenset({"wind", "outlook"})) == "{outlook,wind}"
    assert render_value(frozenset()) == "{}"
    assert render_row((1, "x", frozenset({"b", "a"}))) == "1, x, {a,b}"


def test_rows_sort_canonically():
    atoms = ModelAtomSet(
        {
            "r": frozenset(
                {(2, "b"), (1, "z"), (1, "a"), (10, "a")}
            )
        }
    )
    rows = answer(parse_query("r(N, S)?"), [atoms], "brave")
    assert rows == [(1, "a"), (1, "z"), (2, "b"), (10, "a")]


def test_a_trailing_comma_leaves_an_empty_literal():
    with pytest.raises(QueryError, match=r"^empty literal in 'p\(X\),'$"):
        parse_query("p(X),?")
