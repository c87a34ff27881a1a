"""Tests for the DLV-Complex program emitter and fact recovery."""

from collections import Counter

import pytest

from xresp.constraints import parse_constraints
from xresp.dlv_emit import (
    EmitError,
    EmitterOptions,
    FactParseError,
    emit_cip,
    parse_facts,
)
from xresp.naive_bayes import DEFAULT_MAXINT, PercentModel
from xresp.schema import DataError, Entity, FeatureSchema, SchemaError

from conftest import README_CONSTRAINTS, TEST_DATA
from helpers import normalize_tokens, split_statements

GOLDEN = TEST_DATA / "weather_cip_golden.lp"
LEGACY = TEST_DATA / "weather_cip_legacy.lp"
CONSTRAINED_GOLDEN = TEST_DATA / "weather_cip_constrained_golden.lp"


def tiny_percent_model(features, labels=("yes", "no")):
    """An even-split percent model over the given (name, domain) pairs."""
    schema = FeatureSchema(tuple(features))
    conditional = {}
    for name, domain in features:
        for label in labels:
            share = 100 // len(domain)
            for i, value in enumerate(domain):
                pct = share + (100 - share * len(domain) if i == 0 else 0)
                conditional[(name, value, label)] = pct
    return PercentModel(
        schema=schema,
        labels=labels,
        prior=dict.fromkeys(labels, 50),
        conditional=conditional,
    )


def facts_and_rules(text):
    facts, rules, directives = [], [], []
    for statement in split_statements(text):
        if statement.startswith("#"):
            directives.append(statement)
        elif ":-" in statement or ":~" in statement:
            rules.append(statement)
        else:
            facts.append(statement)
    return facts, rules, directives


# ---------------------------------------------------------------------------
# The weather program
# ---------------------------------------------------------------------------


def test_weather_program_matches_golden_bytes(weather_percent, weather_entity):
    emitted = emit_cip(weather_percent, weather_entity)
    assert emitted == GOLDEN.read_text(encoding="utf-8")
    # emission is deterministic
    assert emit_cip(weather_percent, weather_entity) == emitted


def test_constrained_weak_program_matches_golden_bytes(weather_percent,
                                                      weather_entity):
    # forbid, depend and immutable lines, and the weak constraints
    constraints = parse_constraints(README_CONSTRAINTS, weather_percent.schema)
    options = EmitterOptions(include_weak_constraints=True)
    emitted = emit_cip(weather_percent, weather_entity, constraints, options)
    assert emitted == CONSTRAINED_GOLDEN.read_text(encoding="utf-8")


def assert_matches_handwritten_reference(emitted, legacy):
    """Emitted and hand-written programs coincide up to fact order and four
    corrected rule tokens.

    The reference file transcribes a circulated listing verbatim, including
    its slips; the emitter fixes them, so aligning statements must show the
    same facts and exactly these four rule-level corrections:

    * the rule defining chosen_w must check diffchoice_w, not diffchoice_h;
    * the rule defining diffchoice_w must read chosen_w, not chosen_h;
    * explanation atoms use the schema feature name (temperature, not temp);
    * the empty-contingency guard must carry the entity argument,
      tmpCont(E,U), to stay safe.
    """
    e_facts, e_rules, e_directives = facts_and_rules(emitted)
    l_facts, l_rules, l_directives = facts_and_rules(legacy)

    assert e_directives == l_directives
    assert Counter(e_facts) == Counter(l_facts)

    assert len(e_rules) == len(l_rules) == 35
    diffs = [(e, l) for e, l in zip(e_rules, l_rules) if e != l]
    assert len(diffs) == 4

    corrections = {
        "chosen_w guard": ("not diffchoice_w", "not diffchoice_h"),
        "diffchoice_w source": ("chosen_w", "chosen_h"),
        "temperature constant": ("temperature", "temp"),
        "tmpCont arity": ("tmpCont ( E , U )", "tmpCont ( U )"),
    }
    matched = set()
    for e_rule, l_rule in diffs:
        for label, (ours, theirs) in corrections.items():
            if label not in matched and e_rule.replace(ours, theirs) == l_rule:
                matched.add(label)
                break
        else:
            raise AssertionError(f"unexpected rule difference:\n{e_rule}\n{l_rule}")
    assert matched == set(corrections)


def test_weather_program_agrees_with_handwritten_reference(weather_percent,
                                                           weather_entity):
    assert_matches_handwritten_reference(
        emit_cip(weather_percent, weather_entity),
        LEGACY.read_text(encoding="utf-8"),
    )


def test_weather_program_surface(weather_percent, weather_entity):
    text = emit_cip(weather_percent, weather_entity)
    assert text.startswith("#include<ListAndSet>\n#maxint = 100000000.")
    assert "ent(e,rain,high,normal,weak,o)." in text
    assert "p(yes, 64). p(no, 36)." in text
    assert ":- ent(E,O,T,H,W,do), ent(E,O,T,H,W,o)." in text
    assert "ent(E,O,T,H,W,s) :- ent(E,O,T,H,W,do), cls(E,O,T,H,W,no)." in text
    assert ":- ent(E,O,T,H,W,o), not entAux(E)." in text
    assert "invResp(E,U,R) :- cont(E,U,S), #card(S,M), R = M+1, #int(R)." in text
    assert EmitterOptions().maxint == DEFAULT_MAXINT == 10**8


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


def test_weak_constraint_block(weather_percent, weather_entity):
    options = EmitterOptions(include_weak_constraints=True)
    text = emit_cip(weather_percent, weather_entity, options=options)
    weak = [s for s in split_statements(text) if ":~" in s]
    assert len(weak) == 4
    for var in ("O", "T", "H", "W"):
        assert (
            f":~ ent(E,O,T,H,W,o), ent(E,Op,Tp,Hp,Wp,s), {var} != {var}p." in text
        )
    # default emission has no weak constraints
    assert ":~" not in emit_cip(weather_percent, weather_entity)


def test_maxint_option(weather_percent, weather_entity):
    text = emit_cip(
        weather_percent, weather_entity, options=EmitterOptions(maxint=4321)
    )
    assert "#maxint = 4321." in text
    with pytest.raises(EmitError, match="maxint"):
        EmitterOptions(maxint=0)


def test_forbidden_combination_and_dependency_rules(weather_percent, weather_entity):
    constraints = parse_constraints(
        "forbid Temperature=high, Wind=strong\n"
        "depend Temperature -> Humidity: high->normal, medium->high, low->high\n",
        weather_percent.schema,
    )
    text = emit_cip(weather_percent, weather_entity, constraints)
    assert ":- ent(E,_,high,_,strong,tr)." in text
    # one safe propagation rule per source value, repeating the source
    # constant in the head
    assert "ent(E,O,high,normal,W,tr) :- ent(E,O,high,H,W,tr)." in text
    assert "ent(E,O,medium,high,W,tr) :- ent(E,O,medium,H,W,tr)." in text
    assert "ent(E,O,low,high,W,tr) :- ent(E,O,low,H,W,tr)." in text
    # the dependency target is not freely intervenable
    assert "chosen_h(" not in text
    assert "dom_h(Hp)" not in text


def test_immutable_feature_leaves_the_disjunction(weather_percent, weather_entity):
    constraints = parse_constraints("immutable Outlook", weather_percent.schema)
    text = emit_cip(weather_percent, weather_entity, constraints)
    assert "chosen_o(" not in text
    assert "ent(E,Op,T,H,W,do)" not in text
    (disjunctive,) = [
        s for s in split_statements(text) if " v " in s and ":-" in s
    ]
    assert disjunctive.count(" v ") == 2  # three disjuncts for T, H, W


# ---------------------------------------------------------------------------
# Schema edge cases
# ---------------------------------------------------------------------------


def test_rejects_indistinguishable_feature_names():
    model = tiny_percent_model(
        [("wind", ("a", "b")), ("windchill", ("c", "d"))]
    )
    with pytest.raises(EmitError, match="disambiguated"):
        emit_cip(model, Entity("e", ("a", "c")))


def test_rejects_names_colliding_after_lowercasing():
    # the schema refuses them, so no model emit_cip sees has such names
    with pytest.raises(SchemaError, match="differ only in case: Wind, wind"):
        tiny_percent_model([("Wind", ("a", "b")), ("wind", ("c", "d"))])


def test_feature_variables_avoid_the_reserved_ones():
    # S is reserved, so sun's variable is lengthened to SU; e cannot be
    model = tiny_percent_model([("sun", ("a", "b")), ("wind", ("c", "d"))])
    assert "ent(E,SU,W,tr) :- ent(E,SU,W,o)." in emit_cip(model, Entity("e", ("a", "c")))
    model = tiny_percent_model([("e", ("a", "b")), ("wind", ("c", "d"))])
    with pytest.raises(EmitError, match="cannot derive a distinct variable for 'e'"):
        emit_cip(model, Entity("e", ("a", "c")))


def test_rejects_single_feature_schemas():
    model = tiny_percent_model([("only", ("x", "y"))])
    with pytest.raises(EmitError, match="at least two features"):
        emit_cip(model, Entity("e", ("x",)))


WEATHERISH = [("outlook", ("sunny", "rain")), ("wind", ("a", "b"))]


@pytest.mark.parametrize(
    "features, labels, eid, offending",
    [
        ([("outlook", ("Sunny", "rain")), ("wind", ("a", "b"))], ("yes", "no"), "e",
         "value of outlook 'Sunny'"),
        ([("outlook", ("sunny", "x y")), ("wind", ("a", "b"))], ("yes", "no"), "e",
         "'x y'"),
        ([("outlook", ("sunny", "1a")), ("wind", ("a", "b"))], ("yes", "no"), "e",
         "'1a'"),
        ([("outlook", ("sunny", "_r")), ("wind", ("a", "b"))], ("yes", "no"), "e",
         "'_r'"),
        (WEATHERISH, ("Yes", "no"), "e", "label 'Yes'"),
        (WEATHERISH, ("yes", "no"), "E1", "entity id 'E1'"),
        ([("out look", ("sunny", "rain")), ("wind", ("a", "b"))], ("yes", "no"), "e",
         "feature name 'out look'"),
    ],
)
def test_rejects_text_that_is_not_a_constant(features, labels, eid, offending):
    # refused where the text becomes a schema, a model or an entity, so it
    # never reaches emit_cip
    with pytest.raises(DataError, match=offending):
        tiny_percent_model(features, labels)
        Entity(eid, tuple(domain[0] for _, domain in features))


@pytest.mark.parametrize(
    "old, new, offending",
    [
        ("sunny", "Sunny", "value of outlook 'Sunny'"),
        ("yes", "Yes", "label 'Yes'"),
        ("ent(e,", "ent(E1,", "entity id 'E1'"),
    ],
)
def test_parse_facts_rejects_text_that_is_not_a_constant(old, new, offending):
    with pytest.raises(DataError, match=offending):
        parse_facts(GOLDEN.read_text(encoding="utf-8").replace(old, new))


def test_accepts_identifiers_and_digit_runs():
    model = tiny_percent_model([("Outlook", ("sunny", "r_Ain2")), ("wind", ("0", "17"))])
    program = emit_cip(model, Entity("e7", ("r_Ain2", "17")))
    assert "dom_o(sunny). dom_o(r_Ain2)." in program
    assert "ent(e7,r_Ain2,17,o)." in program


def test_fully_blocked_schemas_emit_a_constraint(weather_percent, weather_entity):
    # the search finds no version, and the program has no answer set
    constraints = parse_constraints(
        "immutable Outlook\nimmutable Temperature\nimmutable Humidity\nimmutable Wind",
        weather_percent.schema,
    )
    blocked = emit_cip(weather_percent, weather_entity, constraints)
    assert "\n:- ent(E,O,T,H,W,tr), cls(E,O,T,H,W,yes).\n" in blocked
    heads = [rule.split(":-")[0] for rule in facts_and_rules(blocked)[1]]
    assert "ent ( E , O , T , H , W , s ) " in heads
    assert not [head for head in heads if ", do )" in head]
    assert "chosen_" not in blocked and "\n\n\n" not in blocked


# ---------------------------------------------------------------------------
# Normalization helpers
# ---------------------------------------------------------------------------


def test_normalize_tokens_is_whitespace_insensitive():
    assert normalize_tokens("a :-  b,not   c.") == "a :- b , not c ."
    assert normalize_tokens("x  % comment\n:- y.") == "x :- y ."
    assert normalize_tokens("p(A,  Bp)") == "p ( A , Bp )"


def test_split_statements_joins_wrapped_rules():
    text = "#include<ListAndSet>\na :- b,\n    c.\nd.\n"
    assert split_statements(text) == [
        "#include < ListAndSet >",
        "a :- b , c",
        "d",
    ]


# ---------------------------------------------------------------------------
# Fact recovery
# ---------------------------------------------------------------------------


def test_emit_parse_emit_is_a_fixed_point(weather_percent, weather_entity):
    first = emit_cip(weather_percent, weather_entity)
    pmodel, entity = parse_facts(first)
    assert emit_cip(pmodel, entity) == first


def test_parse_facts_recovers_the_numbers(weather_percent, weather_entity):
    pmodel, entity = parse_facts(emit_cip(weather_percent, weather_entity))
    assert entity.eid == weather_entity.eid
    assert entity.values == weather_entity.values
    assert dict(pmodel.prior) == dict(weather_percent.prior)
    assert pmodel.labels == weather_percent.labels
    # feature names come back lowercased; the numbers must be identical
    lowered = {
        (name.lower(), value, label): pct
        for (name, value, label), pct in weather_percent.conditional.items()
    }
    assert dict(pmodel.conditional) == lowered
    assert [n for n in pmodel.schema.names] == [
        n.lower() for n in weather_percent.schema.names
    ]


FACT_LINES = [
    "dom_a(x). dom_a(y).",
    "dom_b(u). dom_b(v).",
    "entSchema(alpha,beta).",
    "ent(e,x,u,o).",
    "p(yes, 60). p(no, 40).",
    "p_a_c(x, yes, 50). p_a_c(y, yes, 50).",
    "p_a_c(x, no, 25). p_a_c(y, no, 75).",
    "p_b_c(u, yes, 10). p_b_c(v, yes, 90).",
    "p_b_c(u, no, 80). p_b_c(v, no, 20).",
]


def test_parse_facts_on_handwritten_text():
    pmodel, entity = parse_facts("\n".join(FACT_LINES) + "\n")
    assert entity == Entity("e", ("x", "u"))
    assert pmodel.labels == ("yes", "no")
    assert pmodel.prior == {"yes": 60, "no": 40}
    assert pmodel.schema.names == ("alpha", "beta")
    assert pmodel.conditional[("beta", "u", "no")] == 80


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda lines: lines + ["ent(e,x,u,o)"], "unterminated"),
        (lambda lines: lines + ["mystery(1)."], "line 10: unrecognized fact"),
        (lambda lines: lines + ["p(maybe)."], "line 10: malformed fact"),
        (lambda lines: [l for l in lines if "entSchema" not in l], "missing entSchema"),
        (lambda lines: [l.replace("p(no, 40). ", "").replace("p(no, 40).", "")
                        for l in lines], "expected 2 prior facts"),
        (lambda lines: [l for l in lines if "dom_b" not in l], "missing dom_b facts"),
        (lambda lines: [l for l in lines if "ent(e" not in l], "missing o-annotated"),
    ],
)
def test_parse_facts_errors(mutate, fragment):
    text = "\n".join(mutate(list(FACT_LINES))) + "\n"
    with pytest.raises(FactParseError, match=fragment):
        parse_facts(text)
