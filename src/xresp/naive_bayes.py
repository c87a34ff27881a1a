"""Naive-Bayes training and classification, in two arithmetic regimes.

Training is pure frequency counting: the prior of a label is its row share,
and each conditional is the share of a feature value among rows of that
label.  All of it is kept as exact ``fractions.Fraction`` values so nothing
is lost to floating point.

Classification compares per-label numerators (prior times the product of
the entity's conditionals); the shared denominator never needs computing.
Each model type classifies itself through ``classify(values, maxint)``,
which returns ``(label, positive score, negative score)``:

* ``NaiveBayesModel.classify`` multiplies the rationals as-is.
* ``PercentModel.classify`` replicates an integer-only pipeline:
  conditionals are first rounded to percentages, then folded left-to-right
  in schema order with an integer division by 10 after every
  multiplication, and finally scaled by the prior percentage (again
  followed by ``// 10``).  This is what a solver restricted to integer
  arithmetic computes, and its rounding artifacts are observable by
  comparing the two classifiers.

Percentages are produced by largest-remainder rounding per distribution, so
each distribution sums to exactly 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .schema import (
    _NAME_RE, Dataset, FeatureSchema, SchemaError, _check_text, validate_values,
)


class ModelFormatError(ValueError):
    """Malformed persisted-model text."""


class StagedOverflowError(ValueError):
    """An intermediate staged product exceeded the configured integer ceiling."""


DEFAULT_MAXINT = 10**8


@dataclass(frozen=True)
class NaiveBayesModel:
    """Exact-rational model. ``labels`` is ordered with the positive label first."""

    schema: FeatureSchema
    labels: tuple[str, str]
    prior: Mapping[str, Fraction]
    conditional: Mapping[tuple[str, str, str], Fraction]

    def __post_init__(self) -> None:
        for label in self.labels:
            _check_text("label", label)
        _check_distributions(self, 1, "")
        object.__setattr__(self, "_table", _score_table(self))

    def classify(
        self, values: tuple[str, ...], maxint: int = DEFAULT_MAXINT
    ) -> tuple[str, Fraction, Fraction]:
        """Exact numerators per label; the larger wins, ties to the positive label.

        ``maxint`` is accepted for interface parity and ignored: rationals
        never overflow.
        """
        rows = _score_rows(self, values)
        numerators = []
        for i, label in enumerate(self.labels):
            num = self.prior[label]
            for row in rows:
                num *= row[i]
            numerators.append(num)
        pos, neg = numerators
        return self.labels[0] if pos >= neg else self.labels[1], pos, neg


@dataclass(frozen=True)
class PercentModel:
    """Integer-percentage twin of NaiveBayesModel; every distribution sums to 100."""

    schema: FeatureSchema
    labels: tuple[str, str]
    prior: Mapping[str, int]
    conditional: Mapping[tuple[str, str, str], int]

    def __post_init__(self) -> None:
        for label in self.labels:
            _check_text("label", label)
        _check_distributions(self, 100, "percent ")
        object.__setattr__(self, "_table", _score_table(self))

    def classify(
        self, values: tuple[str, ...], maxint: int = DEFAULT_MAXINT
    ) -> tuple[str, int, int]:
        """Integer-percentage pipeline: fold conditionals in schema order.

        Every multiplication is followed by ``// 10``; the prior percentage
        is folded last the same way.  Products above ``maxint`` raise
        StagedOverflowError (mirroring a solver's integer ceiling).
        """
        rows = _score_rows(self, values)
        scores = []
        for i, label in enumerate(self.labels):
            acc: int | None = None
            for row in rows:
                pct = row[i]
                acc = pct if acc is None else self._checked_mul(acc, pct, maxint) // 10
            acc = 1 if acc is None else acc  # only a zero-feature schema
            scores.append(self._checked_mul(acc, self.prior[label], maxint) // 10)
        pos, neg = scores
        return self.labels[0] if pos >= neg else self.labels[1], pos, neg

    def _grid_scores(
        self, domains: tuple[tuple[str, ...], ...], maxint: int
    ) -> list[list[int | None]]:
        """``classify``'s score per label of every cell of a grid, in label order.

        ``domains`` gives each feature's values in digit order; a cell's
        index reads its digits mixed-radix, feature 0 most significant.  The
        fold runs level by level in schema order, so each prefix product is
        computed once for every cell that shares it, with the same ``// 10``
        as ``classify``.  A cell whose fold exceeds ``maxint`` scores None.
        """
        folds = []
        for i, label in enumerate(self.labels):
            acc: list[int | None] | None = None
            top: int | None = None  # the largest value of a clean level
            for column, domain in zip(self._table, domains):
                pcts = [column[value][i] for value in domain]
                if acc is None:
                    acc, top = pcts, max(pcts)
                else:
                    acc, top = _fold_level(acc, top, pcts, maxint)
            if acc is None:  # only a zero-feature schema
                acc, top = [1], 1
            folds.append(_fold_level(acc, top, [self.prior[label]], maxint)[0])
        return folds

    def _checked_mul(self, a: int, b: int, maxint: int) -> int:
        product = a * b
        if product > maxint:
            raise StagedOverflowError(
                f"staged product {a}*{b} = {product} exceeds maxint {maxint}; "
                f"--maxint {self._covering_maxint()} covers every state"
            )
        return product

    def _covering_maxint(self) -> int:
        """The smallest ``maxint`` under which no grid state overflows.

        The fold is monotone in every factor, so per label the largest
        product of any state is one of the products folded from the
        per-feature maximum percentages, prior step included.
        """
        largest = 0
        for i, label in enumerate(self.labels):
            acc: int | None = None
            for column in self._table:
                pct = max(row[i] for row in column.values())
                if acc is None:
                    acc = pct
                else:
                    largest = max(largest, acc * pct)
                    acc = acc * pct // 10
            acc = 1 if acc is None else acc
            largest = max(largest, acc * self.prior[label])
        return largest


def _fold_level(
    acc: list[int | None], top: int | None, pcts: list[int], maxint: int
) -> tuple[list[int | None], int | None]:
    """Each prefix times each percentage, ``// 10``; None marks an overflow.

    ``top`` is the largest prefix, or None once some prefix overflowed.
    The fold is monotone in every factor, so while ``top`` times the
    largest percentage stays within ``maxint`` no product of the level
    needs checking.
    """
    if top is not None and top * max(pcts) <= maxint:
        return [a * p // 10 for a in acc for p in pcts], top * max(pcts) // 10
    return [
        None if a is None or a * p > maxint else a * p // 10
        for a in acc
        for p in pcts
    ], None


def train(dataset: Dataset, positive_label: str | None = None) -> NaiveBayesModel:
    """Train from frequencies.

    ``positive_label`` fixes which label is treated as positive (listed
    first, wins staged ties).  By default the majority label is positive,
    with dataset order deciding an exact tie.
    """
    total = len(dataset.rows)
    counts = {label: 0 for label in dataset.labels}
    for _, label in dataset.rows:
        counts[label] += 1
    for label, n in counts.items():
        if n == 0:
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

    prior = {label: Fraction(counts[label], total) for label in labels}

    cond: dict[tuple[str, str, str], Fraction] = {}
    for fidx, (name, domain) in enumerate(dataset.schema.features):
        for label in labels:
            for value in domain:
                matching = sum(
                    1
                    for values, row_label in dataset.rows
                    if row_label == label and values[fidx] == value
                )
                cond[(name, value, label)] = Fraction(matching, counts[label])

    return NaiveBayesModel(
        schema=dataset.schema, labels=labels, prior=prior, conditional=cond
    )


def _percentify(pairs: list[tuple[object, Fraction]]) -> dict:
    """Largest-remainder rounding of one distribution to integers summing to 100.

    Floors of value*100 are taken first; the leftover units go to the
    entries with the largest fractional parts, ties resolved by the order
    of ``pairs`` (domain order).
    """
    scaled = [(key, value * 100) for key, value in pairs]
    floors = {key: int(value) for key, value in scaled}  # values are >= 0
    leftover = 100 - sum(floors.values())
    remainders = sorted(
        range(len(scaled)),
        key=lambda i: (-(scaled[i][1] - floors[scaled[i][0]]), i),
    )
    for i in remainders[:leftover]:
        floors[scaled[i][0]] += 1
    return floors


def to_percent(model: NaiveBayesModel) -> PercentModel:
    """Convert every distribution to integer percentages summing to 100."""
    prior = _percentify([(label, model.prior[label]) for label in model.labels])

    cond: dict[tuple[str, str, str], int] = {}
    for name, domain in model.schema.features:
        for label in model.labels:
            dist = _percentify(
                [(value, model.conditional[(name, value, label)]) for value in domain]
            )
            for value, pct in dist.items():
                cond[(name, value, label)] = pct

    return PercentModel(
        schema=model.schema, labels=model.labels, prior=prior, conditional=cond
    )


def _check_distributions(
    model: NaiveBayesModel | PercentModel, total: int, kind: str
) -> None:
    """Raise ModelFormatError unless the priors and every conditional
    distribution sum to ``total``; ``kind`` prefixes the messages."""
    if sum(model.prior[l] for l in model.labels) != total:
        raise ModelFormatError(f"{kind}priors must sum to {total}")
    for label in model.labels:
        for name, domain in model.schema.features:
            got = sum(model.conditional[(name, v, label)] for v in domain)
            if got != total:
                raise ModelFormatError(
                    f"{kind}conditionals of {name} given {label} "
                    f"sum to {got}, not {total}"
                )


def _score_table(
    model: NaiveBayesModel | PercentModel,
) -> tuple[dict[str, tuple], ...]:
    """Per feature, each domain value's conditionals in label order."""
    return tuple(
        {
            value: tuple(model.conditional[(name, value, label)] for label in model.labels)
            for value in domain
        }
        for name, domain in model.schema.features
    )


def _score_rows(model: NaiveBayesModel | PercentModel, values: tuple[str, ...]) -> list:
    """The score row of each value; a value outside the schema raises DataError.

    The table lookup is the domain check: only when it misses does
    ``validate_values`` run, to raise the error that names the bad value.
    """
    table = model._table
    try:
        rows = [column[value] for column, value in zip(table, values)]
    except (KeyError, TypeError):
        rows = None
    if rows is None or len(values) != len(table):
        validate_values(model.schema, values)
    return rows


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------
#
# Plain-text layout, one statement per line:
#
#   labels: yes,no
#   class-column: Play
#   prior: yes 9/14
#   prior: no 5/14
#   Outlook,sunny,yes,2/9
#   ...
#
# Feature order and domain order are recovered from the first appearance of
# each feature/value among the conditional lines, so save -> load -> save is
# byte-identical.


def serialize_model(model: NaiveBayesModel, class_column: str = "class") -> str:
    """Model file text, which ``parse_model`` reads back unchanged.

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


def load_model(path: str) -> tuple[NaiveBayesModel, str]:
    """Load a persisted model; returns (model, class column name)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def parse_model(text: str) -> tuple[NaiveBayesModel, str]:
    labels: tuple[str, str] | None = None
    class_column = "class"
    prior: dict[str, Fraction] = {}
    cond: dict[tuple[str, str, str], Fraction] = {}
    feature_order: list[str] = []
    domains: dict[str, list[str]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("labels:"):
            parts = [p.strip() for p in line[len("labels:"):].split(",")]
            if len(parts) != 2 or not all(parts):
                raise ModelFormatError(f"line {lineno}: need exactly two labels")
            labels = (parts[0], parts[1])
        elif line.startswith("class-column:"):
            class_column = line[len("class-column:"):].strip()
        elif line.startswith("prior:"):
            try:
                label, frac = line[len("prior:"):].split()
                prior[label] = Fraction(frac)
            except ValueError as exc:
                raise ModelFormatError(f"line {lineno}: bad prior: {raw!r}") from exc
        else:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ModelFormatError(
                    f"line {lineno}: expected feature,value,label,fraction: {raw!r}"
                )
            name, value, label, frac_text = parts
            try:
                frac = Fraction(frac_text)
            except ValueError as exc:
                raise ModelFormatError(
                    f"line {lineno}: bad fraction {frac_text!r}"
                ) from exc
            if name not in feature_order:
                feature_order.append(name)
                domains[name] = []
            if value not in domains[name]:
                domains[name].append(value)
            cond[(name, value, label)] = frac

    if labels is None:
        raise ModelFormatError("missing 'labels:' line")
    if set(prior) != set(labels):
        raise ModelFormatError("priors must cover exactly the declared labels")

    try:
        schema = FeatureSchema(
            tuple((name, tuple(domains[name])) for name in feature_order)
        )
    except SchemaError as exc:
        raise ModelFormatError(f"bad feature table: {exc}") from exc
    try:
        model = NaiveBayesModel(
            schema=schema, labels=labels, prior=prior, conditional=cond
        )
    except KeyError as exc:
        raise ModelFormatError(f"incomplete conditional table: missing {exc}") from exc
    return model, class_column
