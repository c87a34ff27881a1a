"""Dataset loading, schema inference, and entity parsing."""

import re

import pytest

from xresp import (
    DataError,
    Dataset,
    Entity,
    FeatureSchema,
    SchemaError,
    load_dataset,
    parse_entity,
)
from xresp.schema import validate_values

from helpers import serialize_dataset


def test_weather_shape(weather_dataset):
    assert len(weather_dataset.rows) == 14
    assert weather_dataset.labels == ("no", "yes")  # first-occurrence order
    assert weather_dataset.class_column == "Play"


def test_weather_schema(weather_dataset):
    schema = weather_dataset.schema
    assert schema.names == ("Outlook", "Temperature", "Humidity", "Wind")
    assert schema.names is schema.names  # built once, with the schema
    assert schema.domain("Outlook") == ("sunny", "overcast", "rain")
    assert schema.domain("Temperature") == ("high", "medium", "low")
    assert schema.domain("Humidity") == ("high", "normal")
    assert schema.domain("Wind") == ("weak", "strong")
    assert len(schema) == 4
    assert schema.index("Wind") == 3


def test_unknown_feature_lookups_raise_schema_error(weather_dataset):
    schema = weather_dataset.schema
    assert [schema.index(name) for name in schema.names] == [0, 1, 2, 3]
    for lookup in (schema.index, schema.domain):
        with pytest.raises(SchemaError, match="^unknown feature: outlook$"):
            lookup("outlook")
    # the lookup table is not part of the value: equal schemas compare equal
    assert FeatureSchema(schema.features) == schema
    assert hash(FeatureSchema(schema.features)) == hash(schema)


def test_row_label_pairing(weather_dataset):
    pairs = weather_dataset.rows
    assert pairs[0] == (("sunny", "high", "high", "weak"), "no")
    assert pairs[10] == (("sunny", "medium", "normal", "strong"), "yes")
    assert sum(1 for _, label in pairs if label == "yes") == 9


def test_serialize_round_trip(weather_dataset, tmp_path):
    text = serialize_dataset(weather_dataset)
    path = tmp_path / "again.csv"
    path.write_text(text, encoding="utf-8")
    again = load_dataset(str(path))
    assert again == weather_dataset


def test_parse_entity(weather_model):
    entity = parse_entity("rain, high, normal, weak", weather_model.schema)
    assert entity == Entity("e", ("rain", "high", "normal", "weak"))
    named = parse_entity("rain,high,normal,weak", weather_model.schema, eid="e12")
    assert named.eid == "e12"


def test_parse_entity_errors(weather_model):
    schema = weather_model.schema
    with pytest.raises(DataError):
        parse_entity("rain,high,normal", schema)  # too few values
    with pytest.raises(DataError):
        parse_entity("rain,high,normal,weak,extra", schema)
    with pytest.raises(DataError):
        parse_entity("rain,high,damp,weak", schema)  # unknown value


def test_validate_values(weather_model):
    schema = weather_model.schema
    validate_values(schema, ("sunny", "low", "high", "strong"))
    with pytest.raises(DataError):
        validate_values(schema, ("sunny", "low", "high"))
    with pytest.raises(DataError):
        validate_values(schema, ("sunny", "low", "high", "gusty"))


def test_schema_construction_errors():
    with pytest.raises(SchemaError):
        FeatureSchema(features=(("A", ("x", "y")), ("A", ("u", "v"))))
    with pytest.raises(SchemaError):
        FeatureSchema(features=(("A", ("x", "x")),))
    with pytest.raises(DataError, match="feature name ''"):
        FeatureSchema(features=(("", ("x", "y")),))
    with pytest.raises(SchemaError):
        FeatureSchema(features=(("A", ("x",)),))  # singleton domain
    with pytest.raises(SchemaError, match="at least one feature"):
        FeatureSchema(features=())


def test_ragged_row_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("A,B,label\nx,u,yes\nx,no\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dataset(str(path))
    assert "3" in str(err.value)  # line number surfaces


def test_a_ragged_row_is_numbered_by_its_line_after_a_quoted_newline(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('A,label\n"x\ny",yes\nb,no\nc\n', encoding="utf-8")
    with pytest.raises(DataError, match="^line 5: expected 2 fields, got 1$"):
        load_dataset(str(path))


def test_label_count_errors(tmp_path):
    one = tmp_path / "one.csv"
    one.write_text("A,B,label\nx,u,yes\ny,v,yes\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(str(one))
    three = tmp_path / "three.csv"
    three.write_text(
        "A,B,label\nx,u,yes\ny,v,no\nx,v,maybe\n", encoding="utf-8"
    )
    with pytest.raises(DataError):
        load_dataset(str(three))


def test_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(str(empty))
    header_only = tmp_path / "header.csv"
    header_only.write_text("A,B,label\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(str(header_only))


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(
        "A,B,label\nx,u,yes\n\ny,v,no\n\n", encoding="utf-8"
    )
    dataset = load_dataset(str(path))
    assert len(dataset.rows) == 2
    assert dataset.labels == ("yes", "no")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([("x", "yes"), ("y", "no"), ("y", "maybe")],
         "row 3: label 'maybe' is not one of yes, no"),
        ([("x", "yes"), ("z", "no")],
         "row 2: value 'z' is not in the domain of A (x, y)"),
        # trained, a row of the wrong width gave a wrong model and no error
        ([("x", "yes"), (("x", "y"), "no")], "row 2: expected 1 values, got 2"),
    ],
    ids=["label", "value", "width"],
)
def test_dataset_refuses_a_row_outside_its_schema_or_labels(rows, message):
    schema = FeatureSchema((("A", ("x", "y")),))
    rows = tuple(((v,) if isinstance(v, str) else v, label) for v, label in rows)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        Dataset(schema=schema, rows=rows, labels=("yes", "no"))


def test_dataset_refuses_two_equal_labels():
    # training it used to raise a bare StopIteration
    schema = FeatureSchema((("A", ("x", "y")),))
    with pytest.raises(DataError, match="^the two labels must differ, not both yes$"):
        Dataset(schema=schema, rows=((("x",), "yes"),), labels=("yes", "yes"))
