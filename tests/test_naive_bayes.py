"""Classifier training, percent rounding, staged/exact pipelines, persistence.

The literal expectations below were derived by hand from the 14-row weather
data before being pinned: the conditional table by counting rows per
(feature value, label), the percent table by largest-remainder rounding,
and every staged value by folding the integer pipeline by hand.
"""

import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from xresp import (
    DataError,
    Dataset,
    FeatureSchema,
    ModelFormatError,
    NaiveBayesModel,
    PercentModel,
    StagedOverflowError,
    enumerate_counterfactuals,
    load_dataset,
    load_model,
    serialize_model,
    to_percent,
    train,
)
from xresp.dlv_emit import EmitError, emit_cip, parse_facts
from xresp.naive_bayes import parse_model
from xresp.queries import ModelAtomSet, answer, parse_query
from xresp.schema import Entity, validate_values

from xresp import engine

from oracles import all_grid_tuples, oracle_scores, random_instance

# Full conditional-probability table: (feature, value) -> (P(.|yes), P(.|no)).
EXACT_CONDITIONALS = {
    ("Outlook", "sunny"): (F(2, 9), F(3, 5)),
    ("Outlook", "overcast"): (F(4, 9), F(0, 5)),
    ("Outlook", "rain"): (F(3, 9), F(2, 5)),
    ("Temperature", "high"): (F(2, 9), F(2, 5)),
    ("Temperature", "medium"): (F(4, 9), F(2, 5)),
    ("Temperature", "low"): (F(3, 9), F(1, 5)),
    ("Humidity", "high"): (F(3, 9), F(4, 5)),
    ("Humidity", "normal"): (F(6, 9), F(1, 5)),
    ("Wind", "weak"): (F(6, 9), F(2, 5)),
    ("Wind", "strong"): (F(3, 9), F(3, 5)),
}

# Integer percent table: (feature, value) -> (percent|yes, percent|no).
PERCENT_CONDITIONALS = {
    ("Outlook", "sunny"): (22, 60),
    ("Outlook", "overcast"): (45, 0),
    ("Outlook", "rain"): (33, 40),
    ("Temperature", "high"): (22, 40),
    ("Temperature", "medium"): (45, 40),
    ("Temperature", "low"): (33, 20),
    ("Humidity", "high"): (33, 80),
    ("Humidity", "normal"): (67, 20),
    ("Wind", "weak"): (67, 40),
    ("Wind", "strong"): (33, 60),
}

# Staged numerators for every state of every recorded intervention path
# start or end: state -> (F_yes, F_no).
STAGED_TABLE = {
    ("rain", "high", "normal", "weak"): (20665, 4608),
    ("rain", "high", "high", "weak"): (10156, 18432),
    ("rain", "high", "high", "strong"): (5004, 27648),
    ("sunny", "high", "normal", "strong"): (6777, 10368),
    ("sunny", "high", "high", "weak"): (6771, 27648),
    ("rain", "medium", "high", "strong"): (10304, 27648),
    ("rain", "low", "high", "strong"): (7513, 13824),
    ("sunny", "low", "high", "weak"): (10156, 13824),
    ("sunny", "medium", "high", "weak"): (13977, 27648),
    ("sunny", "medium", "high", "strong"): (6880, 41472),
    ("sunny", "low", "high", "strong"): (5004, 20736),
}


def test_priors(weather_model):
    assert weather_model.labels == ("yes", "no")
    assert weather_model.prior["yes"] == F(9, 14)
    assert weather_model.prior["no"] == F(5, 14)


def test_full_conditional_table(weather_model):
    for (feature, value), (p_yes, p_no) in EXACT_CONDITIONALS.items():
        assert weather_model.conditional[(feature, value, "yes")] == p_yes
        assert weather_model.conditional[(feature, value, "no")] == p_no
    assert len(weather_model.conditional) == 2 * len(EXACT_CONDITIONALS)


def test_percent_table(weather_percent):
    assert weather_percent.prior == {"yes": 64, "no": 36}
    for (feature, value), (q_yes, q_no) in PERCENT_CONDITIONALS.items():
        assert weather_percent.conditional[(feature, value, "yes")] == q_yes
        assert weather_percent.conditional[(feature, value, "no")] == q_no


def test_percent_distributions_sum_to_100(weather_percent):
    assert sum(weather_percent.prior.values()) == 100
    for name, domain in weather_percent.schema.features:
        for label in weather_percent.labels:
            assert (
                sum(
                    weather_percent.conditional[(name, value, label)]
                    for value in domain
                )
                == 100
            )


def test_classify_exact_running_entity(weather_model, weather_entity):
    label, f_yes, f_no = weather_model.classify(weather_entity.values)
    assert label == "yes"
    assert f_yes == F(4, 189)
    assert f_no == F(4, 875)


def test_classify_staged_running_entity(weather_percent, weather_entity):
    label, f_yes, f_no = weather_percent.classify(weather_entity.values)
    assert (label, f_yes, f_no) == ("yes", 20665, 4608)


def test_staged_table(weather_percent):
    for values, (f_yes, f_no) in STAGED_TABLE.items():
        label, got_yes, got_no = weather_percent.classify(values)
        assert (got_yes, got_no) == (f_yes, f_no), values
        assert label == ("yes" if f_yes >= f_no else "no")


def test_staged_and_exact_agree_on_whole_grid(weather_model, weather_percent):
    for values in all_grid_tuples(weather_model.schema):
        exact_label, _, _ = weather_model.classify(values)
        staged_label, _, _ = weather_percent.classify(values)
        assert exact_label == staged_label, values


def test_tie_goes_to_positive_label(tmp_path):
    # both labels are equally likely and x is equally likely under each,
    # so the numerators tie exactly; the positive label must win
    path = tmp_path / "tie.csv"
    path.write_text(
        "A,label\nx,yes\nx,no\ny,yes\ny,no\n",
        encoding="utf-8",
    )
    dataset = load_dataset(str(path))

    model = train(dataset, positive_label="yes")
    label, exact_pos, exact_neg = model.classify(("x",))
    assert exact_pos == exact_neg
    assert label == "yes"
    staged_label, f_pos, f_neg = to_percent(model).classify(("x",))
    assert f_pos == f_neg
    assert staged_label == "yes"

    flipped = train(dataset, positive_label="no")
    label2, _, _ = flipped.classify(("x",))
    assert label2 == "no"


def test_positive_label_defaults_to_majority(weather_dataset):
    assert train(weather_dataset).labels == ("yes", "no")
    forced = train(weather_dataset, positive_label="no")
    assert forced.labels == ("no", "yes")
    with pytest.raises(ModelFormatError):
        train(weather_dataset, positive_label="maybe")


def test_staged_overflow_guard(weather_percent, weather_entity):
    with pytest.raises(StagedOverflowError):
        weather_percent.classify(weather_entity.values, 1000)
    # large enough ceiling never triggers
    weather_percent.classify(weather_entity.values, 10**8)


def test_staged_overflow_names_the_ceiling_that_covers_every_state(weather_percent,
                                                                   weather_entity):
    # fold each label's largest percentages: yes takes 45, 45, 67, 67 to
    # 45*45//10 = 202, 202*67//10 = 1353, 1353*67//10 = 9065, and its prior
    # step 9065*64 = 580160 is the largest product; no peaks at 11520*36
    with pytest.raises(StagedOverflowError, match=(
        r"^staged product \d+\*\d+ = \d+ exceeds maxint 1000; "
        r"--maxint 580160 covers every state$"
    )):
        weather_percent.classify(weather_entity.values, 1000)
    with pytest.raises(StagedOverflowError, match="580160 covers every state"):
        enumerate_counterfactuals(weather_percent, weather_entity, maxint=580_159)
    assert len(enumerate_counterfactuals(
        weather_percent, weather_entity, maxint=580_160
    )) == 10
    for values in all_grid_tuples(weather_percent.schema):
        weather_percent.classify(values, 580_160)


@pytest.mark.parametrize("values", [
    ("sunny", "low", "high"),
    ("sunny", "low", "high", "strong", "extra"),
    ("sunny", "low", "high", "gusty"),
    ("sunny", "warm", "high", "strong"),
])
def test_classify_rejects_values_outside_the_schema(weather_model, weather_percent,
                                                    values):
    with pytest.raises(DataError) as expected:
        validate_values(weather_model.schema, values)
    for model in (weather_model, weather_percent):
        with pytest.raises(DataError) as raised:
            model.classify(values)
        assert str(raised.value) == str(expected.value)


def mirrored(csv_text):
    """The rows again under the other label: both labels' priors and
    conditionals agree, so every entity's scores tie."""
    lines = csv_text.splitlines()
    other = {"pos": "neg", "neg": "pos"}
    for line in lines[1:]:
        values, label = line.rsplit(",", 1)
        lines.append(f"{values},{other[label]}")
    return "\n".join(lines) + "\n"


def test_classify_and_the_folded_grid_score_by_the_definition(tmp_path):
    rng = random.Random(20261019)
    path = tmp_path / "data.csv"
    seen = Counter()
    for n in range(80):
        csv_text, entity_values = random_instance(rng)
        path.write_text(mirrored(csv_text) if n % 4 == 0 else csv_text, encoding="utf-8")
        exact = train(load_dataset(str(path)))
        for model in (exact, to_percent(exact)):
            result = enumerate_counterfactuals(model, Entity("e", entity_values))
            assert isinstance(result.scorer, engine._FoldedCells)
            score_type = F if model is exact else int
            for code in range(result.grid.size):
                values = result.grid.decode(code)
                want = oracle_scores(model, values)
                assert type(want[1]) is type(want[2]) is score_type
                for got in (model.classify(values), result.scorer.score(code)):
                    assert got == want
                    assert tuple(map(type, got)) == tuple(map(type, want))
                seen[type(model), want[1] == want[2]] += 1
    # ties, which go to the positive label, and strict wins on both backends
    for model_type in (NaiveBayesModel, PercentModel):
        assert seen[model_type, True] > 500 and seen[model_type, False] > 2000


@pytest.mark.parametrize("model_type", [NaiveBayesModel, PercentModel])
def test_two_equal_labels_are_refused(model_type):
    total = model_type._total
    with pytest.raises(ModelFormatError, match="^the two labels must differ, not both yes$"):
        model_type(
            schema=FeatureSchema((("A", ("x", "y")),)),
            labels=("yes", "yes"),
            prior={"yes": F(total, 2)},
            conditional={("A", "x", "yes"): F(total, 2), ("A", "y", "yes"): F(total, 2)},
        )


def test_negative_values_are_refused_in_model_files_and_facts():
    # the column sums to 1, and exact classify used to print "yes: -1/8"
    text = ("labels: yes,no\nprior: yes 1/2\nprior: no 1/2\n"
            "A,x,yes,3/2\nA,x,no,1/2\nA,y,yes,-1/2\nA,y,no,1/2\n")
    with pytest.raises(ModelFormatError,
                       match="^conditionals of A given yes must not be negative$"):
        parse_model(text)
    facts = ("entSchema(a). dom_a(x). dom_a(y). ent(e,x,o).\n"
             "p(yes, 150). p(no, -50).\n"
             "p_a_c(x, yes, 50). p_a_c(y, yes, 50). p_a_c(x, no, 50). p_a_c(y, no, 50).\n")
    with pytest.raises(ModelFormatError, match="^percent priors must not be negative$"):
        parse_facts(facts)
    assert parse_facts(facts.replace("150", "50").replace("-50", "50"))


TINY_MODEL = ("labels: yes,no\nprior: yes 1/2\nprior: no 1/2\n"
              "A,x,yes,1/2\nA,x,no,1/2\nA,y,yes,1/2\nA,y,no,1/2\n")
TINY_FACTS = ("entSchema(a). dom_a(x). dom_a(y). ent(e,x,o). p(yes, 50). p(no, 50).\n"
              "p_a_c(x, yes, 50). p_a_c(y, yes, 50). p_a_c(x, no, 50). p_a_c(y, no, 50).\n")


def hand_built(model_type, prior, conditional):
    """A model over ``A`` in ``{x, y}`` with every entry one half, updated by
    ``prior`` and ``conditional``; an entry updated to None is left out."""
    half = F(model_type._total, 2)

    def entries(table, changes):
        return {key: value for key, value in {**table, **changes}.items() if value is not None}

    return model_type(
        schema=FeatureSchema((("A", ("x", "y")),)), labels=("yes", "no"),
        prior=entries({"yes": half, "no": half}, prior),
        conditional=entries({("A", value, label): half
                             for value in "xy" for label in ("yes", "no")}, conditional),
    )


UNCOVERED = "{kind}priors must cover exactly the declared labels"
UNDECLARED = "{kind}conditional for an undeclared feature, value or label: {key}"
MISSING = "incomplete {kind}conditional table: missing {key}"


@pytest.mark.parametrize("source, changes, message, kind, key", [
    # a stray label or value used to be dropped silently, a missing entry to
    # raise a bare KeyError, and a stray prior was accepted by a hand-built model
    ("model", "A,x,maybe,1/2", UNDECLARED, "", ("A", "x", "maybe")),
    ("model", "A,z,yes,0", MISSING, "", ("A", "z", "no")),
    ("model", "prior: maybe 0", UNCOVERED, "", None),
    ("facts", "p_a_c(x, maybe, 50).", UNDECLARED, "percent ", ("a", "x", "maybe")),
    ("facts", "dom_a(z).", MISSING, "percent ", ("a", "z", "yes")),
    *[(model_type, changes, message, kind, key)
      for model_type, kind in ((NaiveBayesModel, ""), (PercentModel, "percent "))
      for changes, message, key in (
          (({"maybe": 0}, {}), UNCOVERED, None),
          (({"no": None}, {}), UNCOVERED, None),
          (({}, {("A", "z", "yes"): 0}), UNDECLARED, ("A", "z", "yes")),
          (({}, {("A", "x", "maybe"): 0}), UNDECLARED, ("A", "x", "maybe")),
          (({}, {("A", "y", "no"): None}), MISSING, ("A", "y", "no")),
      )],
])
def test_entries_off_the_declared_table_are_refused(source, changes, message, kind, key):
    with pytest.raises(ModelFormatError,
                       match=f"^{re.escape(message.format(kind=kind, key=key))}$"):
        if source == "model":
            parse_model(TINY_MODEL + changes + "\n")
        elif source == "facts":
            parse_facts(TINY_FACTS + changes + "\n")
        else:
            hand_built(source, *changes)


def test_persistence_round_trip(weather_model, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(serialize_model(weather_model, "Play"), encoding="utf-8")
    again, class_column = load_model(str(path))
    assert again == weather_model
    assert class_column == "Play"
    # blank lines and ``%`` comment lines are skipped wherever they stand
    text = serialize_model(weather_model, "Play").replace("\n", "\n\n  % note\n", 3)
    assert parse_model("% a model\n" + text) == (weather_model, "Play")


def test_serialize_model_format(weather_model):
    text = serialize_model(weather_model, "Play")
    lines = text.splitlines()
    assert lines[0] == "labels: yes,no"
    assert lines[1] == "class-column: Play"
    assert "prior: yes 9/14" in lines
    assert "prior: no 5/14" in lines
    assert "Humidity,normal,yes,2/3" in lines


def test_serialize_model_rejects_text_it_cannot_read_back(weather_model):
    # names, values and labels are refused when their objects are built, and
    # the class column when the model file is written
    with pytest.raises(DataError, match="^value of Wind 'x,1' is not a DLV constant"):
        FeatureSchema((("Wind", ("weak", "x,1")), ("Humidity", ("high", "normal"))))
    with pytest.raises(DataError, match="^class column ' Play' is not"):
        serialize_model(weather_model, " Play")
    text = serialize_model(weather_model, "Play")
    for old, new, refused in [
        ("yes", "Yes", "label 'Yes'"),
        ("weak", "We ak", "value of Wind 'We ak'"),
        ("Outlook,", "Out look,", "feature name 'Out look'"),
    ]:
        with pytest.raises(DataError, match=f"^{refused} is not"):
            parse_model(text.replace(old, new))


ADVERSARIAL_IDENTIFIERS = [
    "ok", "Sunny", "42", "007", "x_", "E1", "1a", "_r", "-1", "1.5", "a-b",
    "x,1", "50%", "%x",
    "a b", " pad", "pad ", "labels: a", "labels:b", "prior: c", "prior:d",
    "class-column: e", "", "two\nlines", "cr\rhere", "tab\tin", "\ufeffbom", "é",
]
# mostly plain identifiers, so that whole chains also round-trip often
MODEL_TEXT = st.integers(0, 7).flatmap(
    lambda k: st.one_of(st.sampled_from(ADVERSARIAL_IDENTIFIERS),
                        st.text(alphabet="aZ09,% :_\t\n-", max_size=6))
    if k == 0
    else st.sampled_from(["a", "b", "Hot", "mild", "x1", "y_2", "yes", "no", "Play"])
)


def _is_identifier(text):
    """Letter-initial ASCII letters, digits and underscores."""
    return text[:1].isalpha() and all(
        c.isascii() and (c.isalnum() or c == "_") for c in text
    )


def _is_constant(text):
    """A DLV constant: a lowercase-initial identifier or a run of digits."""
    return (text.isascii() and text.isdigit()) or (
        text[:1].islower() and _is_identifier(text)
    )


def _trained(names, domains, labels, class_column):
    # every value occurs under both labels
    width = max(len(domain) for domain in domains)
    rows = tuple(
        (tuple(domain[i % len(domain)] for domain in domains), label)
        for i in range(width)
        for label in labels
    )
    schema = FeatureSchema(tuple(zip(names, map(tuple, domains))))
    return train(Dataset(schema=schema, rows=rows, labels=tuple(labels),
                         class_column=class_column))


def assert_chain_round_trips_or_is_refused(names, domains, labels, class_column, eid):
    """Text is refused with DataError exactly when it breaks the identifier
    policy, as its object is built; otherwise it round-trips: train ->
    serialize_model -> parse_model -> emit_cip -> parse_facts -> emit_cip,
    and every constant is matched by a query constant written the same way."""
    constants = [v for domain in domains for v in domain] + [*labels, eid]
    bad = [t for t in [*names, class_column] if not _is_identifier(t)]
    bad += [t for t in constants if not _is_constant(t)]
    try:
        model = _trained(names, domains, labels, class_column)
        text = serialize_model(model, class_column)
        entity = Entity(eid, tuple(domain[0] for domain in domains))
    except DataError as refused:
        assert any(repr(t) in str(refused) for t in bad), (str(refused), bad)
        return False
    assert not bad
    assert parse_model(text) == (model, class_column)
    try:
        program = emit_cip(to_percent(model), entity)
    except EmitError as exc:
        # the emitter's own naming limits, which no identifier policy covers
        assert re.search("cannot be disambiguated|cannot derive a distinct", str(exc))
        reject()
    parsed, parsed_entity = parse_facts(program)
    assert parsed_entity == entity
    assert emit_cip(parsed, parsed_entity) == program
    for constant in constants + [name.lower() for name in names]:
        atoms = ModelAtomSet({"c": frozenset({(constant,)})})
        assert answer(parse_query(f"c({constant})?"), [atoms], "brave") == [()]
    return True


def test_each_adversarial_identifier_round_trips_or_is_refused():
    # one adversarial text at a time, in each place the chain names things
    outcomes = set()
    for text in ADVERSARIAL_IDENTIFIERS:
        places = [
            ([text, "wind"], [["a", "b"], ["c", "d"]], ["yes", "no"], "class", "e"),
            (["out", "wind"], [["a", text], ["c", "d"]], ["yes", "no"], "class", "e"),
            (["out", "wind"], [["a", "b"], ["c", "d"]], [text, "no"], "class", "e"),
            (["out", "wind"], [["a", "b"], ["c", "d"]], ["yes", "no"], text, "e"),
            (["out", "wind"], [["a", "b"], ["c", "d"]], ["yes", "no"], "class", text),
        ]
        for place in places:
            outcomes.add(assert_chain_round_trips_or_is_refused(*place))
    assert outcomes == {True, False}
    assert assert_chain_round_trips_or_is_refused(
        ["Outlook", "x_"], [["r_Ain2", "0"], ["007", "7"]], ["n0", "42"], "Play", "e7"
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_identifier_chain_round_trips_or_is_refused(data):
    names = data.draw(st.lists(MODEL_TEXT, min_size=2, max_size=2,
                               unique_by=str.lower))
    domains = [
        data.draw(st.lists(MODEL_TEXT, min_size=2, max_size=3, unique=True))
        for _ in names
    ]
    labels = data.draw(st.lists(MODEL_TEXT, min_size=2, max_size=2,
                                unique=True))
    class_column = data.draw(MODEL_TEXT)
    eid = data.draw(MODEL_TEXT)
    round_trips = assert_chain_round_trips_or_is_refused(
        names, domains, labels, class_column, eid
    )
    event("round-trips" if round_trips else "refused")


def test_parse_model_errors():
    header = "labels: yes,no\nprior: yes 1/2\nprior: no 1/2\n"
    with pytest.raises(ModelFormatError, match="^missing 'labels:' line$"):
        parse_model("")  # no labels header
    with pytest.raises(ModelFormatError,
                       match="^line 4: expected feature,value,label,fraction: 'bogus'$"):
        parse_model(header + "bogus\n")
    # a single value of A forms no domain, so the schema refuses it first
    with pytest.raises(ModelFormatError, match=r"^bad feature table: domain of A has 1 "):
        parse_model(header + "A,x,yes,1/2\n")
    with pytest.raises(ModelFormatError,
                       match=r"^incomplete conditional table: missing \('A', 'y', 'no'\)$"):
        parse_model(header + "A,x,yes,1/2\nA,y,yes,1/2\nA,x,no,1\n")
    for labels in ("yes", "yes,", "yes,no,maybe"):
        with pytest.raises(ModelFormatError, match="^line 1: need exactly two labels$"):
            parse_model(f"labels: {labels}\n")
    for prior in ("yes", "yes half", "yes 1/2 extra"):
        with pytest.raises(ModelFormatError, match=f"^line 2: bad prior: 'prior: {prior}'$"):
            parse_model(f"labels: yes,no\nprior: {prior}\n")
    with pytest.raises(ModelFormatError, match="^line 4: bad fraction 'half'$"):
        parse_model(header + "A,x,yes,half\n")
    # the model checks its priors, so the feature table must build first
    for priors in ("prior: yes 1\n", "prior: yes 1/2\nprior: maybe 1/2\n"):
        with pytest.raises(ModelFormatError,
                           match="^priors must cover exactly the declared labels$"):
            parse_model("labels: yes,no\n" + priors + "A,x,yes,1\nA,y,yes,0\n")
    # labels and priors but no conditional lines
    with pytest.raises(ModelFormatError, match="^bad feature table: .*at least one feature"):
        parse_model("labels: yes,no\nprior: yes 1/2\nprior: no 1/2\n")


def test_parse_model_refuses_a_zero_denominator():
    # Fraction("9/0") raises ZeroDivisionError, which is no ValueError
    with pytest.raises(ModelFormatError, match="^line 2: bad prior: 'prior: yes 9/0'$"):
        parse_model("labels: yes,no\nprior: yes 9/0\n")
    with pytest.raises(ModelFormatError, match="^line 4: bad fraction '2/0'$"):
        parse_model("labels: yes,no\nprior: yes 1/2\nprior: no 1/2\nOutlook,sunny,yes,2/0\n")


@pytest.mark.parametrize(
    "extra, fragment",
    [
        # still sums to 1 per label, so only the repeat gives it away
        ("Outlook,sunny,yes,4/9\nOutlook,overcast,yes,2/9",
         "repeated conditional for Outlook,sunny,yes"),
        ("labels: no,yes", "repeated 'labels:' line"),
        ("class-column: Outcome", "repeated 'class-column:' line"),
        ("prior: yes 5/14\nprior: no 9/14", "repeated prior for yes"),
    ],
)
def test_parse_model_refuses_repeated_statements(weather_dataset, extra, fragment):
    text = serialize_model(train(weather_dataset), weather_dataset.class_column)
    assert parse_model(text)  # the file as written loads
    first_extra = len(text.splitlines()) + 1
    with pytest.raises(ModelFormatError, match=f"^line {first_extra}: {fragment}"):
        parse_model(text + extra + "\n")


def test_model_distribution_validation(weather_model):
    broken_prior = dict(weather_model.prior)
    broken_prior["yes"] = F(1, 2)
    with pytest.raises(ModelFormatError):
        NaiveBayesModel(
            schema=weather_model.schema,
            labels=weather_model.labels,
            prior=broken_prior,
            conditional=dict(weather_model.conditional),
        )


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_percent_tables_always_sum_to_100(data):
    domain_a = ("x", "y", "z")
    domain_b = ("u", "v")
    schema = FeatureSchema(features=(("A", domain_a), ("B", domain_b)))
    n_rows = data.draw(st.integers(min_value=4, max_value=12))
    rows = tuple(
        (
            (
                data.draw(st.sampled_from(domain_a)),
                data.draw(st.sampled_from(domain_b)),
            ),
            "yes" if i % 2 == 0 else "no",
        )
        for i in range(n_rows)
    )
    dataset = Dataset(
        schema=schema, rows=rows, labels=("yes", "no"), class_column="label"
    )
    percent = to_percent(train(dataset))
    assert sum(percent.prior.values()) == 100
    for name, domain in percent.schema.features:
        for label in percent.labels:
            assert (
                sum(percent.conditional[(name, value, label)] for value in domain)
                == 100
            )


def test_distribution_checks_name_the_bad_distribution(weather_model, weather_percent):
    def refused(model, **changes):
        fields = dict(schema=model.schema, labels=model.labels, prior=model.prior,
                      conditional=model.conditional)
        with pytest.raises(ModelFormatError) as raised:
            type(model)(**{**fields, **changes})
        return str(raised.value)

    prior = {"yes": F(1, 2), "no": F(1, 3)}
    assert refused(weather_model, prior=prior) == "priors must sum to 1"
    conditional = dict(weather_model.conditional)
    conditional[("Outlook", "sunny", "yes")] += F(1, 9)
    assert refused(weather_model, conditional=conditional) == (
        "conditionals of Outlook given yes sum to 10/9, not 1"
    )
    assert refused(weather_percent, prior={"yes": 64, "no": 35}) == (
        "percent priors must sum to 100"
    )
    conditional = dict(weather_percent.conditional)
    conditional[("Wind", "strong", "no")] -= 1
    assert refused(weather_percent, conditional=conditional) == (
        "percent conditionals of Wind given no sum to 99, not 100"
    )
    # a negative value that the sum hides
    assert refused(weather_model, prior={"yes": F(3, 2), "no": F(-1, 2)}) == (
        "priors must not be negative"
    )
    conditional = dict(weather_percent.conditional)
    conditional[("Wind", "weak", "no")] += 70
    conditional[("Wind", "strong", "no")] -= 70
    assert refused(weather_percent, conditional=conditional) == (
        "percent conditionals of Wind given no must not be negative"
    )
    # a staged value is a whole percentage; one of another type is read as
    # the integer it is
    fractional = "percent priors and conditionals must be integers"
    assert refused(weather_percent, prior={"yes": F(129, 2), "no": F(71, 2)}) == fractional
    conditional = dict(weather_percent.conditional)
    conditional[("Wind", "weak", "no")] += F(1, 2)
    conditional[("Wind", "strong", "no")] -= F(1, 2)
    assert refused(weather_percent, conditional=conditional) == fractional
    prior = {label: F(pct) for label, pct in weather_percent.prior.items()}
    assert type(weather_percent)(weather_percent.schema, weather_percent.labels, prior,
                                 weather_percent.conditional) == weather_percent


def test_trailing_comments_in_a_model_file_are_ignored(weather_dataset):
    text = serialize_model(train(weather_dataset), weather_dataset.class_column)
    # every kind of statement carries one: labels, class column, prior, conditional
    noted = "% a model\n\n" + "".join(f"{line} % note\n" for line in text.splitlines())
    assert parse_model(noted) == parse_model(text)
    assert parse_model(noted)[1] == "Play"


def test_parse_model_refuses_a_class_column_it_could_not_write_back(weather_model):
    text = serialize_model(weather_model, "Play")
    with pytest.raises(DataError, match="^class column 'Pl ay' is not a letter-initial"):
        parse_model(text.replace("class-column: Play", "class-column: Pl ay"))


def test_train_refuses_a_label_without_rows():
    schema = FeatureSchema((("A", ("x", "y")),))
    rows = ((("x",), "yes"), (("y",), "yes"))
    dataset = Dataset(schema=schema, rows=rows, labels=("yes", "no"))
    with pytest.raises(ModelFormatError, match="^label no has no training rows$"):
        train(dataset)
