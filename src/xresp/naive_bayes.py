"""Naive-Bayes training and classification, in two arithmetic regimes.

Training is pure frequency counting: the prior of a label is its row share,
and each conditional is the share of a feature value among rows of that
label.  All of it is kept as exact ``fractions.Fraction`` values so nothing
is lost to floating point.

Classification compares per-label numerators (prior times the product of
the entity's conditionals); the shared denominator never needs computing.
Both model types share one base, which holds the fields, checks the
distributions and decides: ``classify(values, maxint)`` returns ``(label,
positive score, negative score)``, the larger score winning and ties going
to the positive label.  The two types differ only in their arithmetic rule:

* ``NaiveBayesModel`` multiplies the rationals as-is.
* ``PercentModel`` replicates an integer-only pipeline:
  conditionals are first rounded to percentages, then folded left-to-right
  in schema order with an integer division by 10 after every
  multiplication, and finally scaled by the prior percentage (again
  followed by ``// 10``).  This is what a solver restricted to integer
  arithmetic computes, and its rounding artifacts are observable by
  comparing the two classifiers.  It can also fold the scores of a whole
  grid of entities at once, when ``maxint`` covers every product.

Percentages are produced by largest-remainder rounding per distribution, so
each distribution sums to exactly 100.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping

from . import _lines, _read, _Record
from .schema import (
    _NAME_RE, Dataset, FeatureSchema, SchemaError, _check_text, validate_values,
)


class ModelFormatError(ValueError):
    """Malformed persisted-model text."""


class StagedOverflowError(ValueError):
    """An intermediate staged product exceeded the configured integer ceiling."""


DEFAULT_MAXINT = 10**8


class _Model(_Record):
    """The fields, checks and decision both models share; a model adds its
    arithmetic, ``_scores``.  ``labels`` is ordered with the positive label
    first; every distribution sums to ``_total`` (``_kind`` prefixes errors)."""

    schema: FeatureSchema
    labels: tuple[str, str]
    prior: Mapping[str, Fraction | int]
    conditional: Mapping[tuple[str, str, str], Fraction | int]

    _total, _kind = 1, ""

    def __post_init__(self) -> None:
        total, kind = self._total, self._kind
        for label in self.labels:
            _check_text("label", label)
        if sum(self.prior[l] for l in self.labels) != total:
            raise ModelFormatError(f"{kind}priors must sum to {total}")
        for label in self.labels:
            for name, domain in self.schema.features:
                got = sum(self.conditional[(name, v, label)] for v in domain)
                if got != total:
                    raise ModelFormatError(
                        f"{kind}conditionals of {name} given {label} "
                        f"sum to {got}, not {total}"
                    )
        # per feature, each domain value's conditionals in label order
        object.__setattr__(self, "_table", tuple(
            {
                value: tuple(self.conditional[(name, value, label)] for label in self.labels)
                for value in domain
            }
            for name, domain in self.schema.features
        ))

    def classify(self, values: tuple[str, ...], maxint: int = DEFAULT_MAXINT) -> tuple:
        """``(label, positive score, negative score)``; ties go to the positive label.

        A value outside the schema raises DataError: the table lookup is the
        domain check, and only when it misses does ``validate_values`` run.
        """
        table = self._table
        try:
            rows = [column[value] for column, value in zip(table, values)]
        except (KeyError, TypeError):
            rows = None
        if rows is None or len(values) != len(table):
            validate_values(self.schema, values)
        pos, neg = self._scores(rows, maxint)
        return self.labels[0] if pos >= neg else self.labels[1], pos, neg

    def _grid_scores(self, domains: tuple[tuple[str, ...], ...], maxint: int) -> None:
        """The scores of every cell of a grid, or None: classify each cell instead."""
        return None


class NaiveBayesModel(_Model):
    """Exact-rational model. ``labels`` is ordered with the positive label first."""

    def _scores(self, rows: list, maxint: int) -> list[Fraction]:
        """Exact numerators per label; rationals never overflow, so ``maxint`` is unused."""
        numerators = []
        for i, label in enumerate(self.labels):
            num = self.prior[label]
            for row in rows:
                num *= row[i]
            numerators.append(num)
        return numerators


class PercentModel(_Model):
    """Integer-percentage twin of NaiveBayesModel; every distribution sums to 100."""

    _total, _kind = 100, "percent "

    def _scores(self, rows: list, maxint: int) -> list[int]:
        """Integer-percentage pipeline: fold conditionals in schema order.

        Every multiplication is followed by ``// 10``; the prior percentage
        is folded last the same way.  Products above ``maxint`` raise
        StagedOverflowError (mirroring a solver's integer ceiling).
        """
        scores = []
        for i, label in enumerate(self.labels):
            acc = rows[0][i]
            for row in rows[1:]:
                acc = self._checked_mul(acc, row[i], maxint) // 10
            scores.append(self._checked_mul(acc, self.prior[label], maxint) // 10)
        return scores

    def _grid_scores(self, domains: tuple[tuple[str, ...], ...],
                     maxint: int) -> list[list[int]] | None:
        """``classify``'s score per label of every cell of a grid, in label order,
        or None when ``maxint`` is below ``_covering_maxint()``.

        ``domains`` gives each feature's values in digit order; a cell's
        index reads its digits mixed-radix, feature 0 most significant.  The
        fold runs level by level in schema order, so each prefix product is
        computed once for every cell that shares it, with the same ``// 10``
        as ``classify``.  No product is checked: under a ``maxint`` of at
        least the covering ceiling, no cell overflows.
        """
        if maxint < self._covering_maxint():
            return None
        folds = []
        for i, label in enumerate(self.labels):
            levels = [[column[value][i] for value in domain]
                      for column, domain in zip(self._table, domains)]
            acc = levels[0]
            for pcts in levels[1:] + [[self.prior[label]]]:
                acc = [a * p // 10 for a in acc for p in pcts]
            folds.append(acc)
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
            tops = [max(row[i] for row in column.values()) for column in self._table]
            acc = tops[0]
            for pct in tops[1:] + [self.prior[label]]:
                largest = max(largest, acc * pct)
                acc = acc * pct // 10
        return largest


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
#   Outlook,sunny,yes,2/9   % a comment, anywhere on a line
#   ...
#
# Lines are read by the package's one rule (``xresp._lines``): ``%`` starts
# a comment and blank lines are skipped; a file's leading byte-order mark is
# skipped too (``xresp._read``).  Feature order and domain order are
# recovered from the first appearance of each feature/value among the
# conditional lines, so save -> load -> save is byte-identical.


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
    return parse_model(_read(path))


def parse_model(text: str) -> tuple[NaiveBayesModel, str]:
    labels: tuple[str, str] | None = None
    class_column: str | None = None
    prior: dict[str, Fraction] = {}
    cond: dict[tuple[str, str, str], Fraction] = {}
    feature_order: list[str] = []
    domains: dict[str, list[str]] = {}

    for lineno, line in _lines(text):
        if line.startswith("labels:"):
            parts = [p.strip() for p in line[len("labels:"):].split(",")]
            if len(parts) != 2 or not all(parts):
                raise ModelFormatError(f"line {lineno}: need exactly two labels")
            if labels is not None:
                raise ModelFormatError(f"line {lineno}: repeated 'labels:' line")
            labels = (parts[0], parts[1])
        elif line.startswith("class-column:"):
            if class_column is not None:
                raise ModelFormatError(f"line {lineno}: repeated 'class-column:' line")
            class_column = line[len("class-column:"):].strip()
            _check_text("class column", class_column, _NAME_RE)
        elif line.startswith("prior:"):
            try:
                label, frac_text = line[len("prior:"):].split()
                frac = Fraction(frac_text)
            except ValueError as exc:
                raise ModelFormatError(f"line {lineno}: bad prior: {line!r}") from exc
            if label in prior:
                raise ModelFormatError(f"line {lineno}: repeated prior for {label}")
            prior[label] = frac
        else:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ModelFormatError(
                    f"line {lineno}: expected feature,value,label,fraction: {line!r}"
                )
            name, value, label, frac_text = parts
            try:
                frac = Fraction(frac_text)
            except ValueError as exc:
                raise ModelFormatError(
                    f"line {lineno}: bad fraction {frac_text!r}"
                ) from exc
            if (name, value, label) in cond:
                raise ModelFormatError(
                    f"line {lineno}: repeated conditional for {name},{value},{label}"
                )
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
    return model, "class" if class_column is None else class_column
