"""Feature schemas and entities.

A schema is an ordered list of categorical features, each with a finite
ordered domain.  Feature order is significant everywhere downstream: the
classifier folds conditional probabilities in schema order, and emitted
program text lays out atom arguments positionally.  Datasets are read, and
models trained from them, in ``_training``.

Text is checked where it becomes an object, by one policy that every
reader and writer shares (model files, emitted programs, queries).  Values,
labels and entity ids are DLV constants: a lowercase-initial identifier or
a run of digits (``Sunny`` would read as a variable).  Feature names and
the class column are letter-initial identifiers, so that they lowercase to
constants.  Anything else raises DataError.  The one rule for printing
answer values back out (``render_value``) lives here too.  The CLI never
calls ``render_row``, which joins a whole row; it stays public because the
benchmark's traced runner renders ``explain`` and ``query`` rows with it,
and the tests check how ``query`` prints rows against it.
"""

from __future__ import annotations

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


def render_value(value: str | int | frozenset[str]) -> str:
    """A query answer value as the CLI prints it; a set prints sorted in braces."""
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    return str(value)


def render_row(row: tuple[str | int | frozenset[str], ...]) -> str:
    return ", ".join(render_value(value) for value in row)
