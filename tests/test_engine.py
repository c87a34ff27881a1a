"""Tests for counterfactual enumeration, explanations, and x-Resp scores.

The weather instance expectations (the ten versions, their changed sets,
and the per-feature scores) were worked out by hand from the published
percent tables and the staged integer pipeline before the engine ran.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from xresp import cli, engine
from xresp.constraints import ConstraintSet, parse_constraints
from xresp.engine import (
    Explanation,
    enumerate_counterfactuals,
    explanations_of,
    min_change_versions,
    xresp,
)
from xresp.naive_bayes import DEFAULT_MAXINT, StagedOverflowError, to_percent, train
from xresp.queries import model_atom_sets
from xresp.schema import Entity, FeatureSchema, SchemaError, load_dataset

from conftest import TWO_DEPTH_DEPEND, WEATHER_CSV
from helpers import CountingModel
from oracles import (
    oracle_atoms_of,
    oracle_explanations,
    oracle_scores,
    oracle_versions,
    random_instance,
    strict_actual_cause,
)

ORIGINAL = ("rain", "high", "normal", "weak")

# final tuple -> set of changed feature names, for all ten versions
EXPECTED_VERSIONS = {
    ("rain", "high", "high", "weak"): {"Humidity"},
    ("rain", "high", "high", "strong"): {"Humidity", "Wind"},
    ("sunny", "high", "high", "weak"): {"Outlook", "Humidity"},
    ("sunny", "high", "normal", "strong"): {"Outlook", "Wind"},
    ("rain", "low", "high", "strong"): {"Temperature", "Humidity", "Wind"},
    ("rain", "medium", "high", "strong"): {"Temperature", "Humidity", "Wind"},
    ("sunny", "low", "high", "weak"): {"Outlook", "Temperature", "Humidity"},
    ("sunny", "medium", "high", "weak"): {"Outlook", "Temperature", "Humidity"},
    ("sunny", "low", "high", "strong"): {"Outlook", "Temperature", "Humidity", "Wind"},
    ("sunny", "medium", "high", "strong"): {"Outlook", "Temperature", "Humidity", "Wind"},
}

EXPECTED_SCORES = {
    "Humidity": Fraction(1),
    "Outlook": Fraction(1, 2),
    "Wind": Fraction(1, 2),
    "Temperature": Fraction(1, 3),
}


# ---------------------------------------------------------------------------
# The weather instance end to end
# ---------------------------------------------------------------------------


def test_exactly_the_ten_versions(weather_percent, weather_entity, weather_versions):
    found = {v.final: set(v.changed) for v in weather_versions}
    assert found == EXPECTED_VERSIONS
    # no constraint set searches as an empty one does
    empty = ConstraintSet(weather_percent.schema)
    assert enumerate_counterfactuals(weather_percent, weather_entity, empty) == weather_versions
    assert all(weather_percent.classify(v.final)[0] == "no" for v in weather_versions)
    assert all(v.eid == "e" for v in weather_versions)


def test_versions_sorted_by_changes_then_final(weather_versions):
    keys = [(len(v.changed), v.final) for v in weather_versions]
    assert keys == sorted(keys)


def step_changes(schema, states):
    """The features that differ between each pair of consecutive states."""
    return [
        {name for name, old, new in zip(schema.names, before, after) if old != new}
        for before, after in zip(states, states[1:])
    ]


def test_path_invariants(weather_percent, weather_versions):
    schema = weather_percent.schema
    for version in weather_versions:
        # the trace runs from the original to the final tuple
        assert version.states[0] == ORIGINAL
        assert version.states[-1] == version.final
        # one feature per step (no dependencies here), each at most once
        steps = step_changes(schema, version.states)
        assert all(len(step) == 1 for step in steps)
        touched = [name for step in steps for name in step]
        assert len(touched) == len(set(touched))
        assert set(touched) == set(version.changed)
        # every proper prefix keeps the original label; the final flips it
        labels = [weather_percent.classify(s)[0] for s in version.states]
        assert labels[:-1] == ["yes"] * (len(labels) - 1)
        assert labels[-1] == "no"


def assert_chains_match_the_versions(result) -> None:
    """``chain`` and ``on_chains`` of a search result walk the chains its
    decoded versions carry: each version's, and their union and intersection."""
    for code, version in zip(result.ordered, result):
        assert tuple(map(result.state, result.chain(code))) == version.states
    for every, fold in ((False, set.union), (True, set.intersection)):
        cells = result.on_chains(every)
        assert len(cells) == len(set(cells))
        want = fold(*(set(v.states) for v in result)) if result else set()
        assert {result.state(code) for code in cells} == want


@pytest.mark.parametrize("constraints",
                         [None, TWO_DEPTH_DEPEND, "forbid Outlook=sunny, Wind=strong"])
def test_chain_walks_match_the_decoded_versions(weather_percent, weather_entity, constraints):
    if constraints is not None:
        constraints = parse_constraints(constraints, weather_percent.schema)
    for min_change in (False, True):
        result = enumerate_counterfactuals(weather_percent, weather_entity, constraints,
                                           min_change=min_change)
        assert result
        assert_chains_match_the_versions(result)


def test_min_change_is_the_single_humidity_flip(weather_versions, weather_no_versions):
    (only,) = min_change_versions(weather_versions)
    assert only.final == ("rain", "high", "high", "weak")
    assert only.changed == frozenset({"Humidity"})
    assert min_change_versions(weather_no_versions) == ()


@pytest.mark.parametrize("refused, kind", [
    (lambda versions: (), "tuple"),
    (list, "list"),
    (lambda versions: tuple(versions), "tuple"),
])
def test_min_change_versions_takes_only_search_results(weather_versions, refused, kind):
    with pytest.raises(TypeError, match="^min_change_versions takes a result of "
                                        f"enumerate_counterfactuals, not {kind}$"):
        min_change_versions(refused(weather_versions))


def test_min_change_versions_of_a_read_result_is_a_search_result(
    weather_model, weather_percent, weather_entity
):
    for model in (weather_percent, weather_model):
        constraints = parse_constraints(TWO_DEPTH_DEPEND, model.schema)
        full = enumerate_counterfactuals(model, weather_entity, constraints)
        assert len(list(full)) == len(full) > 2  # decoded, and still a search result
        kept = min_change_versions(full)
        assert type(kept) is type(full) and len(kept) == 2
        bounded = enumerate_counterfactuals(model, weather_entity, constraints,
                                            min_change=True)
        assert kept == bounded and kept.changed_sets == bounded.changed_sets
        assert explanations_of(kept, weather_entity, model.schema) == explanations_of(
            bounded, weather_entity, model.schema
        )


@pytest.mark.parametrize("refused, kind", [
    (lambda versions: versions[:1], "tuple"),
    (list, "list"),
    (lambda versions: tuple(min_change_versions(versions)), "tuple"),
])
def test_explanations_of_takes_only_search_results(weather_versions, weather_percent,
                                                   weather_entity, refused, kind):
    with pytest.raises(TypeError, match="^explanations_of takes a result of "
                                        f"enumerate_counterfactuals, not {kind}$"):
        explanations_of(refused(weather_versions), weather_entity, weather_percent.schema)


# ---------------------------------------------------------------------------
# The minimum-change search
# ---------------------------------------------------------------------------

def test_min_change_search_keeps_minimum_versions_from_two_depths(
    weather_model, weather_percent, weather_entity
):
    for model in (weather_percent, weather_model):
        constraints = parse_constraints(TWO_DEPTH_DEPEND, model.schema)
        bounded = enumerate_counterfactuals(
            model, weather_entity, constraints, min_change=True
        )
        full = enumerate_counterfactuals(model, weather_entity, constraints)
        assert bounded == min_change_versions(full)
        assert {v.final: len(v.states) - 1 for v in bounded} == {
            ("rain", "high", "high", "strong"): 1,
            ("sunny", "high", "normal", "strong"): 2,
        }
        assert {len(v.changed) for v in bounded} == {2}


def random_constraints(rng, schema):
    """A random mix of depend, forbid and immutable lines, possibly none."""
    names = list(schema.names)
    source, target = rng.sample(names, 2)
    lines = []
    if rng.random() < 0.5:
        images = (rng.choice(schema.domain(target)) for _ in schema.domain(source))
        mapping = ", ".join(
            f"{value}->{image}" for value, image in zip(schema.domain(source), images)
        )
        lines.append(f"depend {source} -> {target}: {mapping}")
    if rng.random() < 0.5:
        combo = rng.sample(names, rng.randint(1, 2))
        lines.append(
            "forbid " + ", ".join(f"{n}={rng.choice(schema.domain(n))}" for n in combo)
        )
    if rng.random() < 0.5:
        # a dependency target cannot also be immutable
        lines.append(f"immutable {rng.choice([n for n in names if n != target])}")
    return parse_constraints("\n".join(lines), schema)


def test_min_change_search_equals_the_filtered_full_search(tmp_path):
    rng = random.Random(4040)
    path = tmp_path / "instance.csv"
    checked = two_depths = 0
    for _ in range(300):
        csv_text, entity_values = random_instance(rng)
        path.write_text(csv_text, encoding="utf-8")
        exact = train(load_dataset(str(path)))
        entity = Entity("e", entity_values)
        for model in (exact, to_percent(exact)):
            constraints = random_constraints(rng, model.schema)
            for strict in (False, True):
                full = enumerate_counterfactuals(
                    model, entity, constraints, strict=strict
                )
                bounded = enumerate_counterfactuals(
                    model, entity, constraints, strict=strict, min_change=True
                )
                assert bounded == min_change_versions(full)
                checked += bool(bounded)
                two_depths += len({len(v.states) for v in bounded}) > 1
    assert checked > 500 and two_depths


def test_min_change_search_classifies_fewer_states(weather_percent,
                                                 weather_entity):
    model = CountingModel.of(weather_percent)
    enumerate_counterfactuals(model, weather_entity)
    # the full search folds the whole 3*3*2*2 grid once and classifies nothing
    assert model.folds == [36] and not model.calls
    model.folds.clear()
    (only,) = enumerate_counterfactuals(model, weather_entity, min_change=True)
    assert only.changed == frozenset({"Humidity"})
    # the Humidity flip sits at depth 1, so depth 2 is never built: the
    # original and its six neighbours are all that is scored, each once,
    # and no grid is folded
    assert not model.folds
    assert sum(model.calls.values()) == 7 < 36
    assert set(model.calls.values()) == {1}


def test_an_exact_search_folds_the_grid_and_min_change_scores_on_demand(weather_model,
                                                                       weather_entity):
    model = CountingModel.of(weather_model)
    full = enumerate_counterfactuals(model, weather_entity)
    assert full == enumerate_counterfactuals(weather_model, weather_entity)
    assert model.folds == [36] and not model.calls
    model.folds.clear()
    bounded = enumerate_counterfactuals(model, weather_entity, min_change=True)
    assert bounded == min_change_versions(full)
    assert not model.folds
    assert set(model.calls.values()) == {1} and len(model.calls) < 36


def test_searches_above_the_fold_limit_score_each_cell_on_demand(
    weather_percent, weather_entity, weather_versions, monkeypatch
):
    monkeypatch.setattr(engine, "_FOLD_LIMIT", 35)
    model = CountingModel.of(weather_percent)
    assert enumerate_counterfactuals(model, weather_entity) == weather_versions
    assert not model.folds
    assert set(model.calls.values()) == {1}
    # every state of every version was scored, and not every grid cell
    assert {s for v in weather_versions for s in v.states} <= set(model.calls)
    assert len(model.calls) < 36


@pytest.mark.parametrize("radices, immutable, blocks", [
    ((4,) * 5, None, 1),  # exactly 1,024 cells
    ((4,) * 5 + (2,), None, 2),  # 2,048 cells
    ((2,) * 21, None, 3),  # blocks of 10, 10 and 1 features
    ((5,) * 6, "f1", 2),  # the immutable feature's one value shares a block
    ((1100, 2), None, 2),  # a domain larger than a block is a block of its own
], ids=["1024", "2048", "three-blocks", "immutable", "wide-domain"])
def test_decode_reads_every_block_as_the_per_digit_formula(radices, immutable, blocks):
    schema = FeatureSchema(tuple(
        (f"f{i}", tuple(f"v{d}" for d in range(radix))) for i, radix in enumerate(radices)
    ))
    rng = random.Random(f"decode/{radices}")
    original = tuple(rng.choice(domain) for _, domain in schema.features)
    cs = None if immutable is None else parse_constraints(f"immutable {immutable}", schema)
    grid = engine._Grid(schema, original, cs)
    assert len(grid._blocks) == blocks
    for code in [0, grid.size - 1, *(rng.randrange(grid.size) for _ in range(300))]:
        values = grid.decode(code)
        assert values == tuple(domain[code // weight % len(domain)]
                               for domain, weight in zip(grid.domains, grid.weights))
        assert grid.encode(values) == code
    for _ in range(300):
        values = tuple(rng.choice(domain) for domain in grid.domains)
        assert grid.decode(grid.encode(values)) == values


def test_the_search_folds_only_grids_the_covering_ceiling_covers(weather_percent,
                                                                 weather_entity,
                                                                 weather_versions):
    covering = weather_percent._covering_maxint()
    assert covering == 580160
    model = CountingModel.of(weather_percent)
    assert enumerate_counterfactuals(model, weather_entity, maxint=covering) \
        == weather_versions
    assert model.folds == [36] and not model.calls
    # one below the ceiling, every state is scored on demand and the first
    # overflowing state the search reaches raises, as in the oracle
    model = CountingModel.of(weather_percent)
    got = outcome(enumerate_counterfactuals, model, weather_entity, maxint=covering - 1)
    assert not model.folds and model.calls
    assert got[0] is StagedOverflowError
    assert got == outcome(oracle_versions, weather_percent, weather_entity,
                          maxint=covering - 1)


def test_min_change_search_never_classifies_the_overflowing_states(weather_percent,
                                                                  weather_entity):
    # 500000 covers the original and its neighbours, not the deeper states
    with pytest.raises(StagedOverflowError):
        enumerate_counterfactuals(weather_percent, weather_entity, maxint=500_000)
    (only,) = enumerate_counterfactuals(
        weather_percent, weather_entity, maxint=500_000, min_change=True
    )
    assert only.final == ("rain", "high", "high", "weak")


def test_explanations_dedupe_and_satisfy_inv_resp(weather_percent, weather_entity,
                                                  weather_versions):
    explanations = explanations_of(
        weather_versions, weather_entity, weather_percent.schema
    )
    keys = [(ex.cause_feature, ex.contingency) for ex in explanations]
    assert len(keys) == len(set(keys))
    changed_sets = {v.changed for v in weather_versions}
    for ex in explanations:
        assert ex.inv_resp == len(ex.contingency) + 1
        assert ex.cause_feature not in ex.contingency
        assert ex.cause_value == ORIGINAL[weather_percent.schema.index(ex.cause_feature)]
        # a cause and its contingency are what some version changes
        assert ex.contingency | {ex.cause_feature} in changed_sets
    # the minimum-contingency explanation per feature
    best = {}
    for ex in explanations:
        if ex.cause_feature not in best or ex.inv_resp < best[ex.cause_feature]:
            best[ex.cause_feature] = ex.inv_resp
    assert best == {"Humidity": 1, "Outlook": 2, "Wind": 2, "Temperature": 3}


def test_explain_decodes_no_chain_and_builds_no_version(weather_percent, weather_entity,
                                                       monkeypatch):
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
    versions = enumerate_counterfactuals(weather_percent, weather_entity)
    assert len(versions) == 10 and versions
    assert versions.changed_sets == {frozenset(s) for s in EXPECTED_VERSIONS.values()}
    report = xresp(explanations_of(versions, weather_entity, weather_percent.schema),
                   weather_percent.schema)
    assert dict(report.scores) == EXPECTED_SCORES
    assert not decoded and not built
    # the first read decodes every version once
    assert {v.final for v in versions} == set(EXPECTED_VERSIONS)
    assert decoded and len(built) == 10
    assert versions[0].final == ("rain", "high", "high", "weak") and len(built) == 10


def test_xresp_scores(weather_percent, weather_entity, weather_versions):
    explanations = explanations_of(
        weather_versions, weather_entity, weather_percent.schema
    )
    report = xresp(explanations, weather_percent.schema)
    assert dict(report.scores) == EXPECTED_SCORES


def test_xresp_zero_for_never_changed_feature(weather_percent, weather_entity):
    constraints = parse_constraints("immutable Outlook", weather_percent.schema)
    versions = enumerate_counterfactuals(
        weather_percent, weather_entity, constraints
    )
    report = xresp(
        explanations_of(versions, weather_entity, weather_percent.schema),
        weather_percent.schema,
    )
    assert report.scores["Outlook"] == Fraction(0)


# ---------------------------------------------------------------------------
# Constraints in the search
# ---------------------------------------------------------------------------


def test_forbidden_combination_prunes_two_versions(weather_percent, weather_entity):
    constraints = parse_constraints(
        "forbid Temperature=high, Wind=strong", weather_percent.schema
    )
    versions = enumerate_counterfactuals(weather_percent, weather_entity, constraints)
    finals = {v.final for v in versions}
    removed = set(EXPECTED_VERSIONS) - finals
    assert removed == {
        ("rain", "high", "high", "strong"),
        ("sunny", "high", "normal", "strong"),
    }
    report = xresp(
        explanations_of(versions, weather_entity, weather_percent.schema),
        weather_percent.schema,
    )
    assert dict(report.scores) == {
        "Humidity": Fraction(1),
        "Outlook": Fraction(1, 2),
        "Temperature": Fraction(1, 3),
        "Wind": Fraction(1, 3),
    }


def test_immutable_outlook_keeps_only_rain_versions(weather_percent, weather_entity):
    constraints = parse_constraints("immutable Outlook", weather_percent.schema)
    versions = enumerate_counterfactuals(weather_percent, weather_entity, constraints)
    assert {v.final for v in versions} == {
        final for final in EXPECTED_VERSIONS if final[0] == "rain"
    }
    assert len(versions) == 4


def test_dependency_overwrites_humidity(weather_percent, weather_entity):
    constraints = parse_constraints(
        "depend Temperature -> Humidity: high->normal, medium->high, low->high",
        weather_percent.schema,
    )
    versions = enumerate_counterfactuals(weather_percent, weather_entity, constraints)
    found = {v.final: set(v.changed) for v in versions}
    assert found == {
        ("sunny", "high", "normal", "strong"): {"Outlook", "Wind"},
        ("sunny", "medium", "high", "weak"): {"Outlook", "Temperature", "Humidity"},
        ("sunny", "low", "high", "weak"): {"Outlook", "Temperature", "Humidity"},
        ("rain", "medium", "high", "strong"): {"Temperature", "Humidity", "Wind"},
        ("rain", "low", "high", "strong"): {"Temperature", "Humidity", "Wind"},
    }
    mapping = {"high": "normal", "medium": "high", "low": "high"}
    schema = weather_percent.schema
    for version in versions:
        assert version.states[0] == ORIGINAL
        assert version.states[-1] == version.final
        steps = step_changes(schema, version.states)
        for step in steps:
            # exactly one free feature per step, plus the dependency target;
            # the target never changes on its own
            assert len(step - {"Humidity"}) == 1
            if "Humidity" in step:
                assert "Temperature" in step
        # no feature changes twice along the trace
        touched = [name for step in steps for name in step]
        assert len(touched) == len(set(touched))
        # every recorded state respects the dependency mapping
        for state in version.states:
            assert state[2] == mapping[state[1]]
        labels = [weather_percent.classify(s)[0] for s in version.states]
        assert labels[:-1] == ["yes"] * (len(labels) - 1)
        assert labels[-1] == "no"


def test_constraints_from_other_schema_rejected(weather_percent, weather_entity,
                                                weather_dataset):
    from xresp.schema import FeatureSchema

    other = FeatureSchema((("A", ("x", "y")), ("B", ("u", "v"))))
    with pytest.raises(ValueError, match="different schema"):
        enumerate_counterfactuals(
            weather_percent, weather_entity, ConstraintSet(other)
        )


# ---------------------------------------------------------------------------
# Strict mode
# ---------------------------------------------------------------------------


def test_strict_requires_positive_original(weather_percent):
    negative = Entity("e", ("rain", "high", "high", "weak"))  # classified no
    assert enumerate_counterfactuals(
        weather_percent, negative, strict=True
    ) == ()
    # the permissive default still explains negative entities
    versions = enumerate_counterfactuals(weather_percent, negative)
    assert versions
    assert all(weather_percent.classify(v.final)[0] == "yes" for v in versions)


def test_strict_discards_inadmissible_original(weather_percent, weather_entity):
    constraints = parse_constraints("forbid Outlook=rain", weather_percent.schema)
    assert enumerate_counterfactuals(
        weather_percent, weather_entity, constraints, strict=True
    ) == ()
    # by default the original itself is exempt from forbidden combinations
    versions = enumerate_counterfactuals(weather_percent, weather_entity, constraints)
    assert versions
    assert all(v.final[0] != "rain" for v in versions)


# ---------------------------------------------------------------------------
# Classifier pairings and failure propagation
# ---------------------------------------------------------------------------


def test_exact_classifier_finds_the_same_versions(weather_model, weather_entity,
                                                  weather_versions):
    exact_versions = enumerate_counterfactuals(weather_model, weather_entity)
    assert {v.final for v in exact_versions} == {v.final for v in weather_versions}
    assert {v.changed for v in exact_versions} == {
        v.changed for v in weather_versions
    }


def test_overflow_propagates_from_the_staged_pipeline(weather_percent, weather_entity):
    with pytest.raises(StagedOverflowError):
        enumerate_counterfactuals(weather_percent, weather_entity, maxint=1000)


def test_rejects_out_of_domain_entity(weather_percent):
    from xresp.schema import DataError

    with pytest.raises(DataError):
        enumerate_counterfactuals(
            weather_percent, Entity("e", ("rain", "high", "normal", "gusty"))
        )


# ---------------------------------------------------------------------------
# Explanation construction invariants
# ---------------------------------------------------------------------------


def test_explanation_validates_its_own_shape():
    with pytest.raises(ValueError, match="contingency"):
        Explanation(
            eid="e",
            cause_feature="Humidity",
            cause_value="normal",
            contingency=frozenset({"Humidity"}),
        )


def test_explanations_refuse_versions_of_another_original(weather_percent,
                                                          weather_versions):
    # the cause values would come from the wrong entity
    other = Entity("e", ("sunny", "low", "high", "strong"))
    with pytest.raises(ValueError, match="do not start from the original entity"):
        explanations_of(weather_versions, other, weather_percent.schema)


def test_explanations_refuse_another_schema(weather_percent, weather_versions,
                                            weather_entity):
    # reversed, Humidity's index would read the cause value of Temperature
    reversed_schema = FeatureSchema(tuple(reversed(weather_percent.schema.features)))
    with pytest.raises(ValueError, match="^schema is not the one the versions were "
                                         "searched over$"):
        explanations_of(weather_versions, weather_entity, reversed_schema)


def test_xresp_refuses_a_cause_the_schema_lacks(weather_percent, weather_versions,
                                                weather_entity):
    explanations = explanations_of(weather_versions, weather_entity, weather_percent.schema)
    # Humidity scores 1; a schema without it must not drop it silently
    partial = FeatureSchema((("Outlook", ("a", "b")), ("Wind", ("x", "y"))))
    with pytest.raises(SchemaError, match="^unknown feature: Humidity$"):
        xresp(explanations, partial)


# ---------------------------------------------------------------------------
# Brute-force oracle for the strict counterfactual-cause definition
# ---------------------------------------------------------------------------


def test_strict_actual_cause_oracle(weather_percent, weather_entity):
    assert strict_actual_cause(weather_percent, weather_entity, "Humidity") == (True, 0)
    assert strict_actual_cause(weather_percent, weather_entity, "Outlook") == (True, 1)
    assert strict_actual_cause(weather_percent, weather_entity, "Wind") == (True, 1)
    assert strict_actual_cause(weather_percent, weather_entity, "Temperature") == (
        False,
        None,
    )


def test_path_semantics_diverge_from_strict_definition(weather_percent, weather_entity,
                                                       weather_versions):
    """Temperature illustrates the gap between the two cause notions.

    The intervention-chain semantics changes Temperature in six of the ten
    versions, so it scores 1/3; under the strict definition every
    contingency accompanying a Temperature change already flips the label
    by itself, so Temperature's value is not a cause there at all.
    """
    report = xresp(
        explanations_of(
            weather_versions,
            weather_entity,
            weather_percent.schema,
        ),
        weather_percent.schema,
    )
    assert report.scores["Temperature"] == Fraction(1, 3)
    is_cause, _ = strict_actual_cause(weather_percent, weather_entity, "Temperature")
    assert not is_cause


# ---------------------------------------------------------------------------
# The cell-code search against the per-state reference search
# ---------------------------------------------------------------------------


def random_constraint_lines(rng, schema, depend=True):
    """Zero to two lines of each kind (no ``depend`` unless ``depend``);
    dependencies run forward in schema order, declared in random order, so
    propagation can need two passes."""
    names = list(schema.names)
    lines, targets = [], set()
    for _ in range(rng.randint(0, 2) if depend else 0):
        source, target = sorted(rng.sample(range(len(names)), 2))
        source, target = names[source], names[target]
        if target in targets:
            continue
        targets.add(target)
        images = (rng.choice(schema.domain(target)) for _ in schema.domain(source))
        mapping = ", ".join(
            f"{value}->{image}" for value, image in zip(schema.domain(source), images)
        )
        lines.append(f"depend {source} -> {target}: {mapping}")
    for _ in range(rng.randint(0, 2)):
        combo = rng.sample(names, rng.randint(1, 3))
        lines.append(
            "forbid " + ", ".join(f"{n}={rng.choice(schema.domain(n))}" for n in combo)
        )
    for _ in range(rng.randint(0, 2)):
        lines.append(f"immutable {rng.choice([n for n in names if n not in targets])}")
    rng.shuffle(lines)
    return "\n".join(lines)


def outcome(search, *args, **kwargs):
    """The versions a search returns, or the type and message of its overflow."""
    try:
        return search(*args, **kwargs)
    except StagedOverflowError as exc:
        return StagedOverflowError, str(exc)


def test_search_matches_the_per_state_oracle(tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "data.csv"
    outcomes = Counter()
    for _ in range(300):
        csv_text, entity_values = random_instance(rng)
        path.write_text(csv_text, encoding="utf-8")
        exact = train(load_dataset(str(path)))
        entity = Entity("e", entity_values)
        staged = to_percent(exact)
        constraints = parse_constraints(
            random_constraint_lines(rng, staged.schema), staged.schema
        )
        outcomes["constrained"] += bool(
            constraints.forbidden or constraints.dependencies or constraints.immutable
        )
        # from the default down to a ceiling that some grid cells exceed
        covering = staged._covering_maxint()
        maxint = rng.choice([DEFAULT_MAXINT, covering, rng.randint(covering // 20, covering)])
        for model in (exact, staged):
            for strict in (False, True):
                for min_change in (False, True):
                    options = dict(strict=strict, maxint=maxint, min_change=min_change)
                    got = outcome(enumerate_counterfactuals, model, entity,
                                  constraints, **options)
                    want = outcome(oracle_versions, model, entity, constraints, **options)
                    if want and want[0] is StagedOverflowError:
                        assert got == want
                        outcomes["overflow", min_change] += 1
                        continue
                    # the changed sets and explanations come from the masks,
                    # before any version is read
                    assert got.changed_sets == {v.changed for v in want}
                    # the definition's explanations, each once, in the documented
                    # order: by cause, inverse responsibility, then contingency
                    explanations = explanations_of(got, entity, model.schema)
                    assert list(explanations) == sorted(
                        oracle_explanations(want, entity, model.schema),
                        key=lambda ex: (ex.cause_feature, ex.inv_resp,
                                        sorted(ex.contingency)))
                    assert got == want
                    assert got.changed_sets == {v.changed for v in got}
                    assert_chains_match_the_versions(got)
                    outcomes["versions"] += bool(got)
                    outcomes["target changed"] += any(
                        changed & constraints.dependency_targets
                        for changed in got.changed_sets
                    )
                    # the scores the query layer reads are classify's, and
                    # every final state flips the original label
                    original_label = model.classify(entity.values, maxint)[0]
                    atom_sets = model_atom_sets(got, model, entity, maxint=maxint)
                    for version, atom_set in zip(got, atom_sets):
                        assert model.classify(version.final, maxint)[0] != original_label
                        oracle = oracle_atoms_of(version, model, entity, maxint=maxint)
                        for predicate in ("expl", "cause", "cont", "invResp", "fullExpl"):
                            assert atom_set.tuples(predicate) == oracle[predicate]
                        scores = [(state, model.classify(state, maxint))
                                  for state in version.states]
                        assert atom_set.tuples("cls") == {
                            ("e", *state, score[0]) for state, score in scores
                        }
                        assert atom_set.tuples("pb_num") == {
                            ("e", *state, label, num)
                            for state, score in scores if model is staged
                            for label, num in zip(model.labels, score[1:])
                        }
    assert outcomes["constrained"] > 200
    # overflows both in full searches and in minimum-change searches; a full
    # search under a ceiling below the covering one scores on demand
    assert outcomes["overflow", False] > 50 and outcomes["overflow", True] > 50
    assert outcomes["versions"] > 800
    # dependency targets changed in some version's mask
    assert outcomes["target changed"] > 100


# ---------------------------------------------------------------------------
# Level bitmaps and chains searched when read
# ---------------------------------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """The arguments of every breadth-first search run from now on."""
    calls, search = [], engine._search

    def counting_search(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(engine, "_search", counting_search)
    return calls


def test_level_bitmaps_match_the_per_state_oracle(tmp_path, searches):
    """A folded search without dependencies answers its length, masks and
    changed sets from level bitmaps, searching nothing breadth-first; the
    versions, chains and scores read afterwards are the definition's."""
    rng = random.Random(20261020)
    path = tmp_path / "data.csv"
    outcomes = Counter()
    for _ in range(300):
        csv_text, entity_values = random_instance(rng)
        path.write_text(csv_text, encoding="utf-8")
        exact = train(load_dataset(str(path)))
        entity = Entity("e", entity_values)
        staged = to_percent(exact)
        text = random_constraint_lines(rng, staged.schema, depend=False)
        constraints = parse_constraints(text, staged.schema) if text else None
        outcomes["forbid"] += "forbid" in text
        outcomes["immutable"] += "immutable" in text
        maxint = max(DEFAULT_MAXINT, staged._covering_maxint())
        for model in (exact, staged):
            grid = engine._Grid(model.schema, entity_values, constraints)
            want_scores = [oracle_scores(model, grid.decode(code)) for code in range(grid.size)]
            for strict in (False, True):
                searches.clear()
                got = enumerate_counterfactuals(model, entity, constraints,
                                                strict=strict, maxint=maxint)
                want = oracle_versions(model, entity, constraints, strict=strict, maxint=maxint)
                # every cell's label byte is the definition's
                assert got.scorer.labels == bytes(
                    model.labels.index(score[0]) for score in want_scores)
                # the length, masks, changed sets and explanations come from
                # the level bitmaps, and no breadth-first search has run
                assert len(got) == len(want) and bool(got) == bool(want)
                assert got.masks == {
                    sum(1 << model.schema.index(name) for name in v.changed): v.changed
                    for v in want
                }
                assert got.changed_sets == {v.changed for v in want}
                explanations = explanations_of(got, entity, model.schema)
                assert set(explanations) == oracle_explanations(want, entity, model.schema)
                xresp(explanations, model.schema)
                assert not searches
                # reading versions runs the search once; chains and scores
                # read afterwards are the definition's
                assert got == want
                assert_chains_match_the_versions(got)
                for code in got.on_chains(every=False):
                    assert got.scorer.score(code) == want_scores[code]
                assert len(searches) == 1
                outcomes["versions"] += bool(got)
                outcomes["strict empty"] += strict and not got
    assert outcomes["forbid"] > 100 and outcomes["immutable"] > 100
    assert outcomes["versions"] > 600 and outcomes["strict empty"] > 200


@pytest.mark.parametrize("constraints, options, bitmaps", [
    (None, {}, True),
    ("forbid Outlook=sunny, Wind=strong\nimmutable Temperature", {"strict": True}, True),
    (TWO_DEPTH_DEPEND, {}, False),
    (None, {"min_change": True}, False),
], ids=["plain", "forbid-immutable-strict", "depend", "min-change"])
def test_only_folded_searches_without_dependencies_run_level_bitmaps(
    weather_percent, weather_entity, searches, constraints, options, bitmaps
):
    if constraints is not None:
        constraints = parse_constraints(constraints, weather_percent.schema)
    result = enumerate_counterfactuals(weather_percent, weather_entity, constraints,
                                       **options)
    assert len(searches) == (0 if bitmaps else 1)
    list(result)
    result.on_chains(every=True)
    assert len(searches) == 1


def test_searches_scored_on_demand_run_no_level_bitmaps(weather_percent, weather_entity,
                                                      searches, monkeypatch):
    # one below the covering ceiling, the search runs at once and the first
    # overflowing state raises
    with pytest.raises(StagedOverflowError):
        enumerate_counterfactuals(weather_percent, weather_entity, maxint=580159)
    assert len(searches) == 1
    monkeypatch.setattr(engine, "_FOLD_LIMIT", 35)
    result = enumerate_counterfactuals(weather_percent, weather_entity)
    assert isinstance(result.scorer, engine._CellsOnDemand) and len(searches) == 2


def test_explain_builds_no_parent(weather_entity, searches):
    """The CLI's explain reads changed sets alone, so no breadth-first search runs."""
    assert cli.main(["explain", "--data", str(WEATHER_CSV),
                     "--entity", ",".join(weather_entity.values)]) == 0
    assert not searches
    # counterfactuals reads the version cells, so it runs the search once
    assert cli.main(["counterfactuals", "--data", str(WEATHER_CSV),
                     "--entity", ",".join(weather_entity.values)]) == 0
    assert len(searches) == 1

