"""Tests for domain-knowledge constraints: parsing, validation, semantics."""

import pytest

from xresp.constraints import (
    ConstraintError,
    ConstraintSet,
    Dependency,
    load_constraints,
    parse_constraints,
)

from oracles import admits, empty_constraints, propagate

DEP_TEXT = "depend Temperature -> Humidity: high->normal, medium->high, low->high"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_all_directives(weather_dataset):
    schema = weather_dataset.schema
    text = "\n".join(
        [
            "% domain knowledge for the weather table",
            "",
            "forbid Temperature=high, Wind=strong",
            "forbid Outlook=overcast",
            DEP_TEXT,
            "immutable Wind",
        ]
    )
    constraints = parse_constraints(text, schema)
    assert constraints.forbidden == (
        {"Temperature": "high", "Wind": "strong"},
        {"Outlook": "overcast"},
    )
    assert constraints.dependencies == (
        Dependency(
            source="Temperature",
            target="Humidity",
            mapping={"high": "normal", "medium": "high", "low": "high"},
        ),
    )
    assert constraints.immutable == frozenset({"Wind"})
    assert constraints.dependency_targets == frozenset({"Humidity"})


def test_parse_empty_text_gives_empty_constraints(weather_dataset):
    schema = weather_dataset.schema
    constraints = parse_constraints("% nothing here\n\n", schema)
    assert constraints == empty_constraints(schema)
    assert constraints.forbidden == ()
    assert constraints.dependencies == ()
    assert constraints.immutable == frozenset()
    assert constraints.dependency_targets == frozenset()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("forbid Temperature high", "line 1"),
        ("depend Temperature Humidity: high->normal", "line 1"),
        ("depend Temperature -> Humidity:", "line 1"),
        ("depend Temperature -> Humidity: high=normal", "line 1"),
        ("permit Outlook=sunny", "unrecognized directive"),
        ("forbid Outlook=sunny\nbogus", "line 2"),
        ("forbid Outlook=sunny\nforbid Outlook=overcast, Outlook=sunny",
         "line 2: feature Outlook is bound twice"),
        ("depend Outlook -> Humidity: sunny->high, rain->high, rain->normal",
         "line 1: source value rain is mapped twice"),
    ],
)
def test_parse_errors_carry_line_numbers(weather_dataset, text, fragment):
    with pytest.raises(ConstraintError, match=fragment):
        parse_constraints(text, weather_dataset.schema)


def test_trailing_comments_are_ignored(weather_dataset):
    schema = weather_dataset.schema
    text = DEP_TEXT + "\nforbid Outlook=sunny, Wind=strong\nimmutable Outlook\n"
    noted = "".join(f"{line} % note\n" for line in text.splitlines())
    assert parse_constraints(noted, schema) == parse_constraints(text, schema)
    assert parse_constraints("immutable Outlook % never moves", schema).immutable == {"Outlook"}


def test_load_constraints_reads_file(tmp_path, weather_dataset):
    path = tmp_path / "knowledge.txt"
    path.write_text("forbid Temperature=high, Wind=strong\n", encoding="utf-8")
    constraints = load_constraints(str(path), weather_dataset.schema)
    assert constraints.forbidden == ({"Temperature": "high", "Wind": "strong"},)


# ---------------------------------------------------------------------------
# Construction validation
# ---------------------------------------------------------------------------


def test_construction_rejects_bad_references(weather_dataset):
    schema = weather_dataset.schema
    with pytest.raises(ConstraintError, match="unknown feature"):
        ConstraintSet(schema=schema, forbidden=({"Pressure": "low"},))
    with pytest.raises(ConstraintError, match="not in domain"):
        ConstraintSet(schema=schema, forbidden=({"Wind": "gusty"},))
    with pytest.raises(ConstraintError, match="at least one binding"):
        ConstraintSet(schema=schema, forbidden=({},))
    with pytest.raises(ConstraintError, match="unknown feature"):
        ConstraintSet(schema=schema, immutable=frozenset({"Pressure"}))


def test_construction_rejects_bad_dependencies(weather_dataset):
    schema = weather_dataset.schema
    with pytest.raises(ConstraintError, match="unknown feature"):
        ConstraintSet(
            schema=schema,
            dependencies=(Dependency("Pressure", "Humidity", {"low": "high"}),),
        )
    with pytest.raises(ConstraintError, match="itself"):
        ConstraintSet(
            schema=schema,
            dependencies=(Dependency("Wind", "Wind", {"weak": "weak", "strong": "weak"}),),
        )
    # mapping must cover the whole source domain
    with pytest.raises(ConstraintError, match="every"):
        ConstraintSet(
            schema=schema,
            dependencies=(Dependency("Wind", "Humidity", {"weak": "high"}),),
        )
    # mapped values must live in the target domain
    with pytest.raises(ConstraintError, match="image"):
        ConstraintSet(
            schema=schema,
            dependencies=(
                Dependency("Wind", "Humidity", {"weak": "high", "strong": "damp"}),
            ),
        )


def test_construction_rejects_immutable_dependency_target(weather_dataset):
    schema = weather_dataset.schema
    dep = Dependency(
        source="Temperature",
        target="Humidity",
        mapping={"high": "normal", "medium": "high", "low": "high"},
    )
    with pytest.raises(ConstraintError, match="both dependency target and immutable"):
        ConstraintSet(schema=schema, dependencies=(dep,), immutable=frozenset({"Humidity"}))


def test_construction_rejects_two_dependencies_with_one_target(weather_dataset):
    schema = weather_dataset.schema
    by_outlook = Dependency(
        "Outlook", "Humidity", {"sunny": "high", "overcast": "normal", "rain": "high"}
    )
    by_wind = Dependency("Wind", "Humidity", {"weak": "normal", "strong": "high"})
    with pytest.raises(ConstraintError, match="^Humidity is the target of two dependencies$"):
        ConstraintSet(schema=schema, dependencies=(by_outlook, by_wind))


def test_construction_rejects_dependency_cycles(weather_dataset):
    schema = weather_dataset.schema
    forward = Dependency("Humidity", "Wind", {"high": "strong", "normal": "weak"})
    backward = Dependency("Wind", "Humidity", {"strong": "high", "weak": "normal"})
    with pytest.raises(ConstraintError, match="cyclic"):
        ConstraintSet(schema=schema, dependencies=(forward, backward))
    # a chain with no cycle is fine
    chain = Dependency(
        "Temperature", "Humidity", {"high": "normal", "medium": "high", "low": "high"}
    )
    ConstraintSet(schema=schema, dependencies=(chain, forward))

    def dep(source, target):
        image = schema.domain(target)[0]
        return Dependency(source, target, {v: image for v in schema.domain(source)})

    three_cycle = (
        dep("Outlook", "Temperature"),
        dep("Temperature", "Humidity"),
        dep("Humidity", "Outlook"),
    )
    with pytest.raises(ConstraintError, match="cyclic"):
        ConstraintSet(schema=schema, dependencies=three_cycle)
    # a walk up from Outlook enters the Humidity/Wind cycle and never returns
    branch = (dep("Humidity", "Wind"), dep("Wind", "Humidity"), dep("Humidity", "Outlook"))
    for order in (branch, branch[::-1]):
        with pytest.raises(ConstraintError, match="cyclic"):
            ConstraintSet(schema=schema, dependencies=order)
    three_links = (
        dep("Outlook", "Temperature"),
        dep("Temperature", "Humidity"),
        dep("Humidity", "Wind"),
    )
    ConstraintSet(schema=schema, dependencies=three_links)


# ---------------------------------------------------------------------------
# Semantics: admits and propagate
# ---------------------------------------------------------------------------


def test_admits_matches_partial_assignments(weather_dataset):
    schema = weather_dataset.schema
    constraints = parse_constraints("forbid Temperature=high, Wind=strong", schema)
    assert not admits(constraints, ("rain", "high", "high", "strong"))
    assert not admits(constraints, ("sunny", "high", "normal", "strong"))
    assert admits(constraints, ("rain", "high", "high", "weak"))
    assert admits(constraints, ("rain", "low", "high", "strong"))
    assert admits(empty_constraints(schema), ("rain", "high", "high", "strong"))


def test_propagate_overwrites_targets_from_sources(weather_dataset):
    schema = weather_dataset.schema
    constraints = parse_constraints(DEP_TEXT, schema)
    assert propagate(constraints, ("rain", "medium", "normal", "weak")) == (
        "rain",
        "medium",
        "high",
        "weak",
    )
    assert propagate(constraints, ("rain", "high", "high", "weak")) == (
        "rain",
        "high",
        "normal",
        "weak",
    )
    # already consistent values are left alone
    assert propagate(constraints, ("sunny", "low", "high", "strong")) == (
        "sunny",
        "low",
        "high",
        "strong",
    )


def test_propagate_chains_to_fixed_point(weather_dataset):
    schema = weather_dataset.schema
    constraints = ConstraintSet(
        schema=schema,
        dependencies=(
            Dependency(
                "Temperature",
                "Humidity",
                {"high": "normal", "medium": "high", "low": "high"},
            ),
            Dependency("Humidity", "Wind", {"high": "strong", "normal": "weak"}),
        ),
    )
    # Temperature=high forces Humidity=normal, which forces Wind=weak
    assert propagate(constraints, ("rain", "high", "high", "strong")) == (
        "rain",
        "high",
        "normal",
        "weak",
    )


def test_propagate_without_dependencies_is_identity(weather_dataset):
    schema = weather_dataset.schema
    values = ("overcast", "low", "normal", "strong")
    assert propagate(empty_constraints(schema), values) == values
    # no dependencies: the input comes back as it is, without a copy
    assert propagate(empty_constraints(schema), values) is values
