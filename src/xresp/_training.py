"""Dataset ingestion, training and model writing, which only ``train`` and
runs given ``--data`` import: a run that reads a model file compiles
neither this module nor ``csv``.

Datasets are comma-separated text files with a header row; the last column
is the class label.  Domains are inferred from the observed values in
first-occurrence order, which keeps every derived artifact reproducible.
Training counts frequencies: a label's prior is its row share, and each
conditional the share of a feature value among the rows of that label,
kept as exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

import csv
from collections import Counter
from fractions import Fraction

from . import _Record
from .naive_bayes import ModelFormatError, NaiveBayesModel
from .schema import _NAME_RE, DataError, FeatureSchema, _check_text, validate_values


class Dataset(_Record):
    """Training rows, each ``(values, label)``; a row outside the schema or the
    labels raises DataError naming it (counted from 1)."""

    schema: FeatureSchema
    rows: tuple[tuple[tuple[str, ...], str], ...]
    labels: tuple[str, str]
    class_column: str = "class"

    def __post_init__(self) -> None:
        if self.labels[0] == self.labels[1]:
            raise DataError(f"the two labels must differ, not both {self.labels[0]}")
        for number, (values, label) in enumerate(self.rows, start=1):
            try:
                validate_values(self.schema, values)
            except DataError as exc:
                raise DataError(f"row {number}: {exc}") from None
            if label not in self.labels:
                raise DataError(
                    f"row {number}: label {label!r} is not one of {', '.join(self.labels)}"
                )


def load_dataset(path: str) -> Dataset:
    """Load a dataset from a comma-separated text file.

    The header row names the features; the final column is the class label.
    Each feature's domain is inferred from its column in first-occurrence
    order, and the labels likewise; there must be exactly two.  A leading
    byte-order mark, as spreadsheet exports write, is skipped.  Text the
    CSV reader refuses (a field over its size limit), or a row with another
    number of fields than the header, raises DataError naming the line it
    ends on.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        if handle.read(1) != "\ufeff":  # a byte-order mark, skipped without utf-8-sig
            handle.seek(0)
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            # each record with the line it ends on: a quoted field may hold a newline
            records = [(reader.line_num, raw) for raw in reader]
        except csv.Error as exc:
            raise DataError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError("dataset file is empty")
    header = [col.strip() for col in header]
    if len(header) < 2:
        raise DataError("header must name at least one feature and the class column")

    rows: list[tuple[tuple[str, ...], str]] = []
    for lineno, raw in records:
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


def train(dataset: Dataset, positive_label: str | None = None) -> NaiveBayesModel:
    """Train from frequencies.

    ``positive_label`` fixes which label is treated as positive (listed
    first, wins staged ties).  By default the majority label is positive,
    with dataset order deciding an exact tie.
    """
    # rows per label, and per (feature index, value, label)
    counts, matching = Counter(), Counter()
    for values, label in dataset.rows:
        counts[label] += 1
        matching.update((i, value, label) for i, value in enumerate(values))
    for label in dataset.labels:
        if not counts[label]:
            raise ModelFormatError(f"label {label} has no training rows")

    if positive_label is None:
        positive_label = max(dataset.labels, key=lambda l: counts[l])
    elif positive_label not in dataset.labels:
        raise ModelFormatError(
            f"positive label {positive_label!r} not among dataset labels "
            f"{list(dataset.labels)}"
        )
    negative_label = next(l for l in dataset.labels if l != positive_label)
    labels = (positive_label, negative_label)

    prior = {label: Fraction(counts[label], len(dataset.rows)) for label in labels}
    cond = {
        (name, value, label): Fraction(matching[i, value, label], counts[label])
        for i, (name, domain) in enumerate(dataset.schema.features)
        for label in labels
        for value in domain
    }

    return NaiveBayesModel(
        schema=dataset.schema, labels=labels, prior=prior, conditional=cond
    )


def serialize_model(model: NaiveBayesModel, class_column: str = "class") -> str:
    """Model file text, which ``naive_bayes.parse_model`` reads back unchanged.

    The schema and the model checked their names, values and labels when
    they were built; the class column is checked here.  Text that passes
    holds no comma, whitespace or ``:``, so every line splits back as it
    was written.
    """
    _check_text("class column", class_column, _NAME_RE)
    lines = [f"labels: {model.labels[0]},{model.labels[1]}"]
    lines.append(f"class-column: {class_column}")
    for label in model.labels:
        lines.append(f"prior: {label} {model.prior[label]}")
    for name, domain in model.schema.features:
        for value in domain:
            for label in model.labels:
                frac = model.conditional[(name, value, label)]
                lines.append(f"{name},{value},{label},{frac}")
    return "\n".join(lines) + "\n"
