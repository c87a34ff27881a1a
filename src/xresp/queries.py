"""Conjunctive queries over the atom sets of counterfactual models.

Every counterfactual version, seen as a stable model, is materialized as a
set of ground atoms: the shared original entity (annotation ``o``), the
state trace the search recorded (``do``/``tr`` states with their ``cls``
and staged ``pb_num`` atoms), the flipped terminal (``s``), and the
version's explanation machinery (``expl``, ``cause``, ``cont``,
``invResp``, ``fullExpl``).  The trace is materialized as recorded,
dependency-propagated values included; it is never replayed.  Feature names appear lowercased as constants; contingency
sets are set-valued arguments.

Query text copies the solver convention: comma-separated literals ending in
``?``, e.g. ``fullExpl(E,U,R,S), R<3?``.  Identifiers starting uppercase
are variables, ``_`` is anonymous, ``{a,b}``/``{}`` are set literals, and
comparisons may use ``<``, ``<=``, ``=``, ``!=`` (ordered ones only between
integers).

An answer row echoes the matched value of every non-constant argument
position, in positional order; constants echo nothing.  Brave answers hold
in some model, cautious answers in all models.  Rows are deduplicated and
sorted canonically; sets render as ``{a,b}`` (alphabetical, no spaces) and
row values join with a comma and space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .engine import CounterfactualVersion
from .naive_bayes import DEFAULT_MAXINT, NaiveBayesModel, PercentModel
from .schema import Entity

Value = Union[str, int, frozenset]


class QueryError(ValueError):
    """Malformed query text or a query inconsistent with the atom inventory."""


# ---------------------------------------------------------------------------
# Model atom sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelAtomSet:
    """Ground atoms of one counterfactual model, grouped by predicate."""

    atoms: Mapping[str, frozenset[tuple[Value, ...]]]

    def tuples(self, predicate: str) -> frozenset[tuple[Value, ...]]:
        return self.atoms.get(predicate, frozenset())


def atoms_of(
    version: CounterfactualVersion,
    model: NaiveBayesModel | PercentModel,
    original: Entity,
    *,
    include_pb_num: bool = True,
    maxint: int = DEFAULT_MAXINT,
) -> ModelAtomSet:
    """Materialize the atom set of one version.

    ``model`` supplies the classifier (staged for a PercentModel, whose
    pb_num atoms are included unless suppressed; exact models yield no
    pb_num atoms).
    """
    schema = model.schema
    eid = version.eid
    lower = {name: name.lower() for name in schema.names}

    states = version.states
    if states[0] != tuple(original.values) or states[-1] != version.final:
        # the caller mixed versions and originals from different runs
        raise QueryError("version states do not run from original to final")

    atoms: dict[str, set[tuple[Value, ...]]] = {
        "ent": set(), "cls": set(), "expl": set(), "cause": set(),
        "cont": set(), "invResp": set(), "fullExpl": set(),
    }
    if include_pb_num and isinstance(model, PercentModel):
        atoms["pb_num"] = set()

    atoms["ent"].add((eid, *states[0], "o"))
    for state in states[1:]:
        atoms["ent"].add((eid, *state, "do"))
    for state in states:
        label, f_pos, f_neg = model.classify(state, maxint)
        atoms["ent"].add((eid, *state, "tr"))
        atoms["cls"].add((eid, *state, label))
        if "pb_num" in atoms:
            atoms["pb_num"].add((eid, *state, model.labels[0], f_pos))
            atoms["pb_num"].add((eid, *state, model.labels[1], f_neg))
    atoms["ent"].add((eid, *version.final, "s"))

    changed_lower = frozenset(lower[name] for name in version.changed)
    inv_resp = len(version.changed)
    for name in version.changed:
        cause = lower[name]
        original_value = original.values[schema.index(name)]
        contingency = frozenset(changed_lower - {cause})
        atoms["expl"].add((eid, cause, original_value))
        atoms["cause"].add((eid, cause))
        atoms["cont"].add((eid, cause, contingency))
        atoms["invResp"].add((eid, cause, inv_resp))
        atoms["fullExpl"].add((eid, cause, inv_resp, contingency))

    return ModelAtomSet(
        atoms={pred: frozenset(tuples) for pred, tuples in atoms.items()}
    )


def model_atom_sets(
    versions: Iterable[CounterfactualVersion],
    model: NaiveBayesModel | PercentModel,
    original: Entity,
    *,
    include_pb_num: bool = True,
    maxint: int = DEFAULT_MAXINT,
) -> list[ModelAtomSet]:
    return [
        atoms_of(v, model, original, include_pb_num=include_pb_num, maxint=maxint)
        for v in versions
    ]


# ---------------------------------------------------------------------------
# Query syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Anonymous:
    slot: int  # position marker; each _ is distinct


@dataclass(frozen=True)
class Constant:
    value: Value


Term = Union[Variable, Anonymous, Constant]


@dataclass(frozen=True)
class AtomPattern:
    predicate: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Comparison:
    op: str  # <, <=, =, !=
    left: Term
    right: Term


@dataclass(frozen=True)
class Query:
    text: str
    atoms: tuple[AtomPattern, ...]
    comparisons: tuple[Comparison, ...]


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ATOM_TEXT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\((.*)\)$")
_COMPARISON_RE = re.compile(r"^(.*?)(<=|!=|<|=)(.*)$")


def parse_query(text: str) -> Query:
    """Parse one query; the trailing ``?`` is optional."""
    stripped = text.strip()
    if stripped.endswith("?"):
        stripped = stripped[:-1].strip()
    if not stripped:
        raise QueryError("empty query")

    literals = _split_top_level(stripped)
    atoms: list[AtomPattern] = []
    comparisons: list[Comparison] = []
    anon_counter = 0

    for literal in literals:
        match = _ATOM_TEXT_RE.match(literal)
        if match:
            predicate, arg_text = match.groups()
            if not arg_text.strip():
                raise QueryError(f"atom {predicate!r} needs at least one argument")
            args: list[Term] = []
            for piece in _split_top_level(arg_text):
                term, anon_counter = _parse_term(piece, anon_counter)
                args.append(term)
            atoms.append(AtomPattern(predicate=predicate, args=tuple(args)))
            continue
        cmp_match = _COMPARISON_RE.match(literal)
        if cmp_match:
            left_text, op, right_text = cmp_match.groups()
            left, anon_counter = _parse_term(left_text.strip(), anon_counter)
            right, anon_counter = _parse_term(right_text.strip(), anon_counter)
            if isinstance(left, Anonymous) or isinstance(right, Anonymous):
                raise QueryError("comparisons cannot use anonymous terms")
            comparisons.append(Comparison(op=op, left=left, right=right))
            continue
        raise QueryError(f"cannot parse literal: {literal!r}")

    if not atoms:
        raise QueryError("query needs at least one atom literal")

    atom_vars = {
        term.name
        for pattern in atoms
        for term in pattern.args
        if isinstance(term, Variable)
    }
    for cmp in comparisons:
        for side in (cmp.left, cmp.right):
            if isinstance(side, Variable) and side.name not in atom_vars:
                raise QueryError(
                    f"comparison variable {side.name} does not occur in any atom"
                )

    return Query(text=text.strip(), atoms=tuple(atoms), comparisons=tuple(comparisons))


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses and braces."""
    pieces: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise QueryError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            piece = "".join(current).strip()
            if not piece:
                raise QueryError(f"empty literal in {text!r}")
            pieces.append(piece)
            current = []
        else:
            current.append(ch)
    piece = "".join(current).strip()
    if not piece:
        raise QueryError(f"empty literal in {text!r}")
    pieces.append(piece)
    return pieces


def _parse_term(text: str, anon_counter: int) -> tuple[Term, int]:
    if text == "_":
        return Anonymous(slot=anon_counter), anon_counter + 1
    if text.startswith("{"):
        if not text.endswith("}"):
            raise QueryError(f"unterminated set literal: {text!r}")
        inner = text[1:-1].strip()
        members = (
            frozenset(piece.strip() for piece in inner.split(","))
            if inner
            else frozenset()
        )
        return Constant(value=members), anon_counter
    if re.fullmatch(r"-?\d+", text):
        return Constant(value=int(text)), anon_counter
    if not _IDENT_RE.match(text):
        raise QueryError(f"bad term: {text!r}")
    if text[0].isupper():
        return Variable(name=text), anon_counter
    return Constant(value=text), anon_counter


def load_queries(text: str) -> list[Query]:
    """One query per non-empty line; ``%`` comments."""
    queries = []
    for raw in text.splitlines():
        line = raw.split("%", 1)[0].strip()
        if line:
            queries.append(parse_query(line))
    return queries


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def answer(
    query: Query,
    models: Sequence[ModelAtomSet],
    semantics: str,
) -> list[tuple[Value, ...]]:
    """Answer rows under brave (union) or cautious (intersection) semantics."""
    if semantics not in ("brave", "cautious"):
        raise QueryError(f"semantics must be 'brave' or 'cautious', got {semantics!r}")

    _validate_against(query, models)

    per_model: list[set[tuple[Value, ...]]] = []
    for model_atoms in models:
        rows: set[tuple[Value, ...]] = set()
        _evaluate(query, model_atoms, 0, {}, rows)
        per_model.append(rows)

    if semantics == "brave":
        merged: set[tuple[Value, ...]] = set()
        for rows in per_model:
            merged |= rows
    else:
        merged = set(per_model[0]) if per_model else set()
        for rows in per_model[1:]:
            merged &= rows

    return sorted(merged, key=_row_key)


def _validate_against(query: Query, models: Sequence[ModelAtomSet]) -> None:
    if not models:
        return
    known: dict[str, set[int]] = {}
    for model_atoms in models:
        for predicate, tuples in model_atoms.atoms.items():
            known.setdefault(predicate, set()).update(len(row) for row in tuples)
    for pattern in query.atoms:
        if pattern.predicate not in known:
            raise QueryError(f"unknown predicate: {pattern.predicate}")
        arities = known[pattern.predicate]
        if arities and len(pattern.args) not in arities:
            raise QueryError(
                f"arity mismatch for {pattern.predicate}: query has "
                f"{len(pattern.args)} arguments, models have {sorted(arities)}"
            )


def _evaluate(
    query: Query,
    model_atoms: ModelAtomSet,
    atom_index: int,
    binding: dict,
    rows: set[tuple[Value, ...]],
) -> None:
    if atom_index == len(query.atoms):
        if all(_holds(cmp, binding) for cmp in query.comparisons):
            rows.add(_echo(query, binding))
        return
    pattern = query.atoms[atom_index]
    for candidate in model_atoms.tuples(pattern.predicate):
        if len(candidate) != len(pattern.args):
            continue
        extended = _unify(pattern, candidate, binding)
        if extended is not None:
            _evaluate(query, model_atoms, atom_index + 1, extended, rows)


def _unify(pattern: AtomPattern, candidate: tuple, binding: dict) -> dict | None:
    extended = dict(binding)
    for term, value in zip(pattern.args, candidate):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif isinstance(term, Variable):
            bound = extended.get(term.name, _UNBOUND)
            if bound is _UNBOUND:
                extended[term.name] = value
            elif bound != value:
                return None
        else:  # anonymous: always matches, remembered for the echo
            extended[("anon", term.slot, id(pattern))] = value
    # anonymous slots are keyed per pattern instance; stash under slot too
    return extended


_UNBOUND = object()


def _holds(cmp: Comparison, binding: dict) -> bool:
    left = _resolve(cmp.left, binding)
    right = _resolve(cmp.right, binding)
    if cmp.op == "=":
        return left == right
    if cmp.op == "!=":
        return left != right
    if not isinstance(left, int) or not isinstance(right, int):
        raise QueryError(
            f"ordered comparison {cmp.op} needs integer operands, got "
            f"{left!r} and {right!r}"
        )
    if cmp.op == "<":
        return left < right
    return left <= right


def _resolve(term: Term, binding: dict) -> Value:
    if isinstance(term, Constant):
        return term.value
    assert isinstance(term, Variable)
    return binding[term.name]


def _echo(query: Query, binding: dict) -> tuple[Value, ...]:
    values: list[Value] = []
    for pattern in query.atoms:
        for term in pattern.args:
            if isinstance(term, Variable):
                values.append(binding[term.name])
            elif isinstance(term, Anonymous):
                values.append(binding[("anon", term.slot, id(pattern))])
    return tuple(values)


def _row_key(row: tuple[Value, ...]) -> tuple:
    key = []
    for value in row:
        if isinstance(value, int):
            key.append((0, value, ""))
        elif isinstance(value, str):
            key.append((1, 0, value))
        else:
            key.append((2, 0, ",".join(sorted(value))))
    return tuple(key)


def render_value(value: Value) -> str:
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value)) + "}"
    return str(value)


def render_row(row: tuple[Value, ...]) -> str:
    return ", ".join(render_value(value) for value in row)
