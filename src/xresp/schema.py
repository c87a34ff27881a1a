"""Feature schemas, entities, and dataset ingestion.

A schema is an ordered list of categorical features, each with a finite
ordered domain.  Feature order is significant everywhere downstream: the
classifier folds conditional probabilities in schema order, and emitted
program text lays out atom arguments positionally.

Datasets are comma-separated text files with a header row; the last column
is the class label.  Domains are inferred from the observed values in
first-occurrence order, which keeps every derived artifact (percent tables,
emitted programs, query answers) reproducible.

Text is checked where it becomes an object, by one policy that every
reader and writer shares (model files, emitted programs, queries).  Values,
labels and entity ids are DLV constants: a lowercase-initial identifier or
a run of digits (``Sunny`` would read as a variable).  Feature names and
the class column are letter-initial identifiers, so that they lowercase to
constants.  Anything else raises DataError.  The one rule for printing
answer values back out (``render_row``) lives here too.
"""

from __future__ import annotations

import csv
import re

from . import _Record


class SchemaError(ValueError):
    """Invalid schema structure (duplicate names, tiny domains, ...)."""


class DataError(ValueError):
    """Invalid dataset or entity text."""


_CONSTANT_RE = re.compile(r"[a-z][A-Za-z0-9_]*|[0-9]+")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _check_text(kind: str, text: str, pattern: re.Pattern = _CONSTANT_RE) -> None:
    """Raise DataError unless all of ``text`` matches ``pattern``."""
    if not pattern.fullmatch(text):
        what = (
            "a DLV constant (a lowercase-initial identifier or a run of digits)"
            if pattern is _CONSTANT_RE
            else "a letter-initial identifier of letters, digits and _"
        )
        raise DataError(f"{kind} {text!r} is not {what}")


class FeatureSchema(_Record):
    """Ordered categorical features with finite ordered domains."""

    features: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not self.features:
            raise SchemaError("schema needs at least one feature")
        names = [name for name, _ in self.features]
        for name, domain in self.features:
            _check_text("feature name", name, _NAME_RE)
            for value in domain:
                _check_text(f"value of {name}", value)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate feature names: {', '.join(dupes)}")
        # names reach the explanation atoms and the emitted program lowercased
        lowered = [n.lower() for n in names]
        if len(set(lowered)) != len(lowered):
            clash = sorted(n for n in names if lowered.count(n.lower()) > 1)
            raise SchemaError(
                f"feature names differ only in case: {', '.join(clash)}"
            )
        for name, domain in self.features:
            if len(set(domain)) != len(domain):
                raise SchemaError(f"domain of {name} has repeated values")
            if len(domain) < 2:
                raise SchemaError(
                    f"domain of {name} has {len(domain)} value(s); need at least 2"
                )
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "_positions", {n: i for i, n in enumerate(names)})

    def domain(self, name: str) -> tuple[str, ...]:
        return self.features[self.index(name)][1]

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"unknown feature: {name}") from None

    def __len__(self) -> int:
        return len(self.features)


class Entity(_Record):
    """One categorical value per schema feature, in schema order."""

    eid: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_text("entity id", self.eid)


class Dataset(_Record):
    """Training rows, each ``(values, label)``; a row outside the schema or the
    labels raises DataError naming it (counted from 1)."""

    schema: FeatureSchema
    rows: tuple[tuple[tuple[str, ...], str], ...]
    labels: tuple[str, str]
    class_column: str = "class"

    def __post_init__(self) -> None:
        for number, (values, label) in enumerate(self.rows, start=1):
            try:
                validate_values(self.schema, values)
            except DataError as exc:
                raise DataError(f"row {number}: {exc}") from None
            if label not in self.labels:
                raise DataError(
                    f"row {number}: label {label!r} is not one of {', '.join(self.labels)}"
                )


def validate_values(schema: FeatureSchema, values: tuple[str, ...]) -> None:
    """Raise DataError unless ``values`` fits the schema positionally."""
    if len(values) != len(schema):
        raise DataError(
            f"expected {len(schema)} values, got {len(values)}"
        )
    for (name, domain), value in zip(schema.features, values):
        if value not in domain:
            raise DataError(
                f"value {value!r} is not in the domain of {name} "
                f"({', '.join(domain)})"
            )


def parse_entity(text: str, schema: FeatureSchema, eid: str = "e") -> Entity:
    """Parse a comma-separated value list into an Entity bound to ``schema``."""
    values = tuple(part.strip() for part in text.split(","))
    validate_values(schema, values)
    return Entity(eid=eid, values=values)


def load_dataset(path: str) -> Dataset:
    """Load a dataset from a comma-separated text file.

    The header row names the features; the final column is the class label.
    Each feature's domain is inferred from its column in first-occurrence
    order, and the labels likewise; there must be exactly two.  A leading
    byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("dataset file is empty") from None
        header = [col.strip() for col in header]
        if len(header) < 2:
            raise DataError("header must name at least one feature and the class column")

        rows: list[tuple[tuple[str, ...], str]] = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            record = [cell.strip() for cell in raw]
            if len(record) != len(header):
                raise DataError(
                    f"line {lineno}: expected {len(header)} fields, got {len(record)}"
                )
            rows.append((tuple(record[:-1]), record[-1]))

    observed_labels: list[str] = []
    for _, label in rows:
        if label not in observed_labels:
            observed_labels.append(label)
    if len(observed_labels) != 2:
        raise DataError(
            f"need exactly 2 class labels, observed {len(observed_labels)}"
        )

    domains: list[list[str]] = [[] for _ in header[:-1]]
    for values, _ in rows:
        for col, value in enumerate(values):
            if value not in domains[col]:
                domains[col].append(value)
    schema = FeatureSchema(
        tuple((name, tuple(domain)) for name, domain in zip(header[:-1], domains))
    )
    labels = (observed_labels[0], observed_labels[1])
    return Dataset(
        schema=schema, rows=tuple(rows), labels=labels, class_column=header[-1]
    )


def render_value(value: str | int | frozenset[str]) -> str:
    """A query answer value as the CLI prints it; a set prints sorted in braces."""
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    return str(value)


def render_row(row: tuple[str | int | frozenset[str], ...]) -> str:
    return ", ".join(render_value(value) for value in row)
