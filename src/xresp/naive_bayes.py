"""Naive-Bayes training and classification, in two arithmetic regimes.

Training is pure frequency counting: the prior of a label is its row share,
and each conditional is the share of a feature value among rows of that
label.  All of it is kept as exact ``fractions.Fraction`` values so nothing
is lost to floating point.

Classification compares per-label scores, prior times the product of the
entity's conditionals, in integers.  Both model types share one base, which
holds the fields, checks the distributions, computes and decides:
``classify(values, maxint)`` returns ``(label, positive score, negative
score)``, the larger score winning and ties going to the positive label,
and a whole grid of entities can be labelled in one fold, from which any
one cell is scored when it is read.  The two types
differ only in what divides each product:

* ``NaiveBayesModel`` divides by 1: its scores are exact, read as Fractions.
* ``PercentModel`` replicates an integer-only pipeline:
  conditionals are first rounded to percentages, then folded left-to-right
  in schema order with an integer division by 10 after every
  multiplication, and finally scaled by the prior percentage (again
  followed by ``// 10``).  This is what a solver restricted to integer
  arithmetic computes, and its rounding artifacts are observable by
  comparing the two classifiers.  It folds a grid only when ``maxint``
  covers every product.

Percentages are produced by largest-remainder rounding per distribution, so
each distribution sums to exactly 100.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping

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
    """The fields, checks, integer arithmetic and decision both models share;
    a model sets only ``_total`` (every distribution's sum), ``_kind`` (its
    errors' prefix) and ``_divisor`` (of every product).  ``labels`` is ordered
    with the positive label first.  Each label's column of conditionals per
    feature is scaled to integers by the lcm of its denominators, and the
    priors over one common ``_denominator``, so the integer scores compare."""

    schema: FeatureSchema
    labels: tuple[str, str]
    prior: Mapping[str, Fraction | int]
    conditional: Mapping[tuple[str, str, str], Fraction | int]

    _total, _kind, _divisor = 1, "", 1

    def __post_init__(self) -> None:
        total, kind, labels = self._total, self._kind, self.labels
        for label in labels:
            _check_text("label", label)
        if labels[0] == labels[1]:
            raise ModelFormatError(f"the two labels must differ, not both {labels[0]}")
        if set(self.prior) != set(labels):
            raise ModelFormatError(f"{kind}priors must cover exactly the declared labels")
        # every (feature, value, label) the schema and labels declare, in table order
        keys = dict.fromkeys((name, value, label) for name, domain in self.schema.features
                             for label in labels for value in domain)
        for key in self.conditional:
            if key not in keys:
                raise ModelFormatError(
                    f"{kind}conditional for an undeclared feature, value or label: {key}")
        for key in keys:
            if key not in self.conditional:
                raise ModelFormatError(f"incomplete {kind}conditional table: missing {key}")
        priors = [self.prior[label] for label in labels]
        if sum(priors) != total:
            raise ModelFormatError(f"{kind}priors must sum to {total}")
        if min(priors) < 0:
            raise ModelFormatError(f"{kind}priors must not be negative")
        # per feature, each domain value's integer conditionals in label order;
        # scales[i] is the product of label i's column scales
        table, scales = [], [1, 1]
        for name, domain in self.schema.features:
            columns = []
            for i, label in enumerate(labels):
                column = [self.conditional[(name, value, label)] for value in domain]
                if (got := sum(column)) != total:
                    raise ModelFormatError(
                        f"{kind}conditionals of {name} given {label} "
                        f"sum to {got}, not {total}"
                    )
                if min(column) < 0:
                    raise ModelFormatError(
                        f"{kind}conditionals of {name} given {label} must not be negative"
                    )
                scale = lcm(*(p.denominator for p in column))
                scales[i] *= scale
                columns.append([int(p * scale) for p in column])
            table.append(dict(zip(domain, zip(*columns))))
        # each label's prior over its scale, then over the common denominator
        shares = [Fraction(p, scale) for p, scale in zip(priors, scales)]
        denominator = lcm(*(share.denominator for share in shares))
        if self._divisor != 1 and (denominator, *scales) != (1, 1, 1):
            raise ModelFormatError(f"{kind}priors and conditionals must be integers")
        object.__setattr__(self, "_table", tuple(table))
        object.__setattr__(self, "_prior", tuple(int(share * denominator) for share in shares))
        object.__setattr__(self, "_denominator", denominator)

    def classify(self, values: tuple[str, ...], maxint: int = DEFAULT_MAXINT) -> tuple:
        """``(label, positive score, negative score)``; ties go to the positive
        label.  Exact scores are read as Fractions over ``_denominator``.

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
        rows.append(self._prior)
        pos, neg = self._scores(rows, maxint)
        label = self.labels[0] if pos >= neg else self.labels[1]
        if self._divisor == 1:
            return label, Fraction(pos, self._denominator), Fraction(neg, self._denominator)
        return label, pos, neg

    def _scores(self, rows: list, maxint: int) -> list[int]:
        """Each label's factors in ``rows`` (the conditionals in schema order,
        then the prior) folded left to right, each product floor-divided by
        ``_divisor``; a staged product above ``maxint`` raises
        StagedOverflowError, mirroring a solver's integer ceiling."""
        divisor, scores = self._divisor, []
        for i in (0, 1):
            acc = rows[0][i]
            for row in rows[1:]:
                product = acc * row[i]
                if divisor != 1 and product > maxint:
                    raise StagedOverflowError(
                        f"staged product {acc}*{row[i]} = {product} exceeds maxint "
                        f"{maxint}; --maxint {self._covering_maxint()} covers every state"
                    )
                acc = product // divisor
            scores.append(acc)
        return scores

    def _grid_labels(self, domains: tuple[tuple[str, ...], ...], maxint: int
                     ) -> tuple[bytearray, Callable[[int], tuple[int, int]]] | None:
        """The label index (0 positive, 1 negative) ``_scores`` gives every cell
        of a grid, and a function giving one cell's ``_scores``; None when a
        staged ``maxint`` is below ``_covering_maxint()``.

        ``domains`` gives each feature's values in digit order; a cell's
        index reads its digits mixed-radix, feature 0 most significant.  The
        fold runs level by level in schema order up to the last feature, so
        each prefix product is computed once for every cell that shares it,
        and only these prefix products are kept.  The labels take the last
        feature's and the prior's steps one last digit at a time across all
        prefixes; a cell's scores take them when they are read.
        """
        if self._divisor != 1 and maxint < self._covering_maxint():
            return None
        divisor, prefixes, lasts = self._divisor, [], []
        for i in (0, 1):
            *levels, last = [[column[value][i] for value in domain]
                             for column, domain in zip(self._table, domains)]
            acc = [divisor]  # divisor * f // divisor is f
            for factors in levels:
                acc = [a * f // divisor for a in acc for f in factors]
            prefixes.append(acc)
            lasts.append(last)
        (pos, neg), (pos_last, neg_last), (pos_prior, neg_prior) = prefixes, lasts, self._prior
        radix = len(pos_last)
        labels = bytearray(len(pos) * radix)
        for digit in range(radix):
            p, n = pos_last[digit], neg_last[digit]
            labels[digit::radix] = bytes(map(
                operator.lt, [a * p // divisor * pos_prior // divisor for a in pos],
                [a * n // divisor * neg_prior // divisor for a in neg]))

        def scores(code: int) -> tuple[int, int]:
            prefix, digit = divmod(code, radix)
            return (pos[prefix] * pos_last[digit] // divisor * pos_prior // divisor,
                    neg[prefix] * neg_last[digit] // divisor * neg_prior // divisor)

        return labels, scores

    def _covering_maxint(self) -> int:
        """The smallest ``maxint`` under which no grid state overflows.

        No factor is negative, so the fold is monotone in every factor, and
        per label the largest product of any state is one of the products
        folded from the per-feature maximum factors, prior step included.
        """
        largest = 0
        for i in (0, 1):
            tops = [max(row[i] for row in column.values()) for column in self._table]
            acc = tops[0]
            for factor in tops[1:] + [self._prior[i]]:
                largest = max(largest, acc * factor)
                acc = acc * factor // self._divisor
        return largest


class NaiveBayesModel(_Model):
    """Exact-rational model. ``labels`` is ordered with the positive label first."""


class PercentModel(_Model):
    """Integer-percentage twin of NaiveBayesModel; every distribution sums to 100."""

    _total, _kind, _divisor = 100, "percent ", 10


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

    try:
        schema = FeatureSchema(
            tuple((name, tuple(domains[name])) for name in feature_order)
        )
    except SchemaError as exc:
        raise ModelFormatError(f"bad feature table: {exc}") from exc
    model = NaiveBayesModel(schema=schema, labels=labels, prior=prior, conditional=cond)
    return model, "class" if class_column is None else class_column
