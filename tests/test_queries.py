"""Tests for conjunctive queries over counterfactual model atom sets."""

import dataclasses

import pytest

from xresp.queries import (
    Anonymous,
    AtomPattern,
    Comparison,
    Constant,
    ModelAtomSet,
    QueryError,
    Variable,
    answer,
    atoms_of,
    load_queries,
    model_atom_sets,
    parse_query,
    render_row,
    render_value,
)
from xresp.schema import Entity

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


def test_pb_num_can_be_suppressed(weather_versions, weather_percent,
                                  weather_entity):
    plain = atoms_of(
        weather_versions[0], weather_percent, weather_entity, include_pb_num=False
    )
    assert plain.tuples("pb_num") == frozenset()


def test_exact_models_have_no_pb_num(weather_versions, weather_model,
                                     weather_entity):
    atom_set = atoms_of(weather_versions[0], weather_model, weather_entity)
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


def test_atoms_of_rejects_mismatched_version(weather_versions, weather_percent,
                                             weather_entity):
    broken = dataclasses.replace(
        weather_versions[0], final=("sunny", "low", "high", "strong")
    )
    with pytest.raises(QueryError, match="original to final"):
        atoms_of(broken, weather_percent, weather_entity)
    # a version from another original entity is rejected as well
    other = Entity("e", ("sunny", "high", "normal", "weak"))
    with pytest.raises(QueryError, match="original to final"):
        atoms_of(weather_versions[0], weather_percent, other)


def test_model_atom_sets_matches_atoms_of(weather_versions, weather_percent,
                                          weather_entity, weather_atom_sets):
    rebuilt = model_atom_sets(weather_versions, weather_percent, weather_entity)
    assert [m.atoms for m in rebuilt] == [m.atoms for m in weather_atom_sets]


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
        Anonymous(0),
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
        ("p(X))?", "unbalanced"),
        ("p({a,b)?", "unterminated set literal"),
        ("p(X) q(Y)?", "unbalanced brackets"),
        ("p(X) extra?", "cannot parse literal"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(QueryError, match=fragment):
        parse_query(text)


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


def test_comparison_operators():
    atoms = ModelAtomSet({"p": frozenset({(1, 2), (2, 1), (2, 2)})})
    def rows(text):
        return answer(parse_query(text), [atoms], "brave")
    assert rows("p(X, Y), X < Y?") == [(1, 2)]
    assert rows("p(X, Y), X <= Y?") == [(1, 2), (2, 2)]
    assert rows("p(X, Y), X = Y?") == [(2, 2)]
    assert rows("p(X, Y), X != Y?") == [(1, 2), (2, 1)]
    assert rows("p(X, Y), X < 2?") == [(1, 2)]


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


def test_empty_model_list_answers_empty():
    assert answer(parse_query("whatever(X)?"), [], "brave") == []
    assert answer(parse_query("whatever(X)?"), [], "cautious") == []


def test_semantics_name_is_validated(weather_atom_sets):
    with pytest.raises(QueryError, match="brave"):
        answer(parse_query("cause(E,U)?"), weather_atom_sets, "boldly")


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
