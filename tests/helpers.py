"""Helpers that only tests need: DLV statement normalization, CSV output, a
classification-counting model, the fewest-change filter of a full search and
the commands of the README's CLI walkthrough."""

from __future__ import annotations

import csv
import io
import re
import shlex
from collections import Counter
from pathlib import Path

from xresp import DEFAULT_MAXINT, Dataset

_TOKEN_RE = re.compile(
    r":-|:~|!=|>=|<=|#[A-Za-z]+|[A-Za-z_][A-Za-z0-9_]*|\d+|[(){},.<>=*/+]|\S"
)


def normalize_tokens(text: str) -> str:
    """Whitespace-insensitive normal form: tokens joined by single spaces."""
    out: list[str] = []
    for raw in text.splitlines():
        line = raw.split("%", 1)[0]
        out.extend(_TOKEN_RE.findall(line))
    return " ".join(out)


def split_statements(text: str) -> list[str]:
    """Normalized statements, in order.  ``#include`` lines stand alone."""
    statements: list[str] = []
    body_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("%", 1)[0]
        if line.strip().startswith("#include"):
            statements.append(normalize_tokens(line.strip()))
            continue
        body_lines.append(line)
    buffer = "\n".join(body_lines)
    for chunk in buffer.split("."):
        normalized = normalize_tokens(chunk)
        if normalized:
            statements.append(normalized)
    return statements


def readme_walkthrough(readme: Path) -> list[tuple[list[str], list[str]]]:
    """Each ``$`` command of the README's "CLI walkthrough", as an argument
    list, with the output lines its ``sh`` block shows after it."""
    text = readme.read_text(encoding="utf-8")
    section = text[text.index("## CLI walkthrough"):text.index("## Performance")]
    commands: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ "):
                command = line[2:]
                while command.endswith("\\"):
                    command = command[:-1] + next(lines)
                commands.append((shlex.split(command), []))
            elif commands:
                commands[-1][1].append(line)
    for _, shown in commands:
        while shown and not shown[-1]:
            shown.pop()
    return commands


def serialize_dataset(dataset: Dataset) -> str:
    """Render a dataset back to its file format (used for round-trip checks)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(dataset.schema.names) + [dataset.class_column])
    for values, label in dataset.rows:
        writer.writerow(list(values) + [label])
    return out.getvalue()


def fewest_changes(versions) -> tuple:
    """The versions of ``versions`` that change the fewest features, in their
    order: the full search filtered, which the truncated search must equal."""
    best = min((len(v.changed) for v in versions), default=0)
    return tuple(v for v in versions if len(v.changed) == best)


class CountingModel:
    """Mixed by ``CountingModel.of`` into a copy of either model: counts how
    often each state is classified, and the size of every grid it folds.
    ``calls`` and ``folds`` belong to each instance and are not fields, so
    equality ignores them."""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "calls", Counter())
        object.__setattr__(self, "folds", [])

    @classmethod
    def of(cls, model):
        counting = type(f"Counting{type(model).__name__}", (cls, type(model)), {})
        return counting(
            schema=model.schema,
            labels=model.labels,
            prior=model.prior,
            conditional=model.conditional,
        )

    def classify(self, values, maxint=DEFAULT_MAXINT):
        self.calls[tuple(values)] += 1
        return super().classify(values, maxint)

    def _grid_labels(self, domains, maxint):
        fold = super()._grid_labels(domains, maxint)
        if fold is not None:
            self.folds.append(len(fold[0]))
        return fold
