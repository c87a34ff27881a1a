"""Text helpers that only tests need: DLV statement normalization and CSV output."""

from __future__ import annotations

import csv
import io
import re

from xresp import Dataset

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


def serialize_dataset(dataset: Dataset) -> str:
    """Render a dataset back to its file format (used for round-trip checks)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(dataset.schema.names) + [dataset.class_column])
    for values, label in dataset.rows:
        writer.writerow(list(values) + [label])
    return out.getvalue()
