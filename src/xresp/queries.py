"""Conjunctive queries over the atom sets of counterfactual models.

Every counterfactual version, seen as a stable model, is materialized as a
set of ground atoms: the shared original entity (annotation ``o``), the
state trace the search recorded (``do``/``tr`` states with their ``cls``
and staged ``pb_num`` atoms), the flipped terminal (``s``), and the
version's explanation machinery (``expl``, ``cause``, ``cont``,
``invResp``, ``fullExpl``).  The trace is materialized as recorded,
dependency-propagated values included; it is never replayed.  Feature
names appear lowercased as constants; contingency sets are set-valued
arguments.

Models are materialized per predicate, on demand.  The predicates and their
arities depend only on the model (``pb_num`` only for a staged one), so a
query can be checked before any search; a predicate's tuples are built the
first time they are read.  ``cls`` and ``pb_num`` take their scores only
from the search that built the versions: in the answer set a version stands
for, every state's class is the one that decided the search.  Versions the
search did not score with the same model object and ceiling are refused.
Versions with the same changed features share their explanation tables.

Query text copies the solver convention: comma-separated literals ending in
``?``, e.g. ``fullExpl(E,U,R,S), R<3?``.  Constants follow the text
policy of ``schema``; identifiers starting uppercase are variables, ``_`` is
anonymous, ``{a,b}``/``{}`` are sets of constants, any other term (``_X``)
is refused, and comparisons may use ``<``, ``<=``, ``=``, ``!=`` (ordered
ones only between integers).  Entity values are strings, so an integer
constant matches both the integer and the string it is written as: ``1``
matches ``1`` and ``"1"``.

A query is compiled once; it is then evaluated once per distinct
combination of the tables its atoms name, so models sharing tables share
the work.  An answer row echoes the matched value of every non-constant
argument position, in positional order; constants echo nothing.  Brave
answers hold in some model, cautious answers in all models.  Rows are
deduplicated and sorted canonically.  ``render_row`` (defined in ``schema``)
prints sets as ``{a,b}`` (alphabetical, no spaces) and joins row values
with a comma and space.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .engine import CounterfactualVersion
from .naive_bayes import DEFAULT_MAXINT, NaiveBayesModel, PercentModel
from .schema import _CONSTANT_RE, Entity
# answers print through the text rules in schema; kept importable from here
from .schema import render_row, render_value

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


class _LazyAtoms(Mapping):
    """Read-only predicate -> tuple-set mapping of one version.

    The predicates and their arities (``arity``, shared by every version
    of one materialization) are fixed up front; a predicate's frozenset is
    built the first time it is read and kept.
    """

    def __init__(self, arity: Mapping[str, int],
                 build: Callable[[str], frozenset[tuple[Value, ...]]]) -> None:
        self.arity = arity
        self._build = build
        self._tables: dict[str, frozenset[tuple[Value, ...]]] = {}

    def __getitem__(self, predicate: str) -> frozenset[tuple[Value, ...]]:
        table = self._tables.get(predicate)
        if table is None:
            if predicate not in self.arity:
                raise KeyError(predicate)
            table = self._tables[predicate] = self._build(predicate)
        return table

    def __iter__(self) -> Iterator[str]:
        return iter(self.arity)

    def __len__(self) -> int:
        return len(self.arity)


def _arities(model: NaiveBayesModel | PercentModel) -> dict[str, int]:
    """Predicate -> arity in the atom set of any version; staged models add pb_num."""
    width = len(model.schema)
    arity = {
        "ent": width + 2, "cls": width + 2, "expl": 3, "cause": 2,
        "cont": 3, "invResp": 3, "fullExpl": 4,
    }
    if isinstance(model, PercentModel):
        arity["pb_num"] = width + 3
    return arity


class _Materializer:
    """Builds the lazy atom sets of one run's versions, sharing the work.

    State scores come from the search that built each version, which must
    have used this model object and ceiling.  The explanation tables of a
    changed-feature set are built once and shared by every version that
    changes exactly those features.
    """

    def __init__(self, model: NaiveBayesModel | PercentModel, original: Entity,
                 maxint: int) -> None:
        self.model = model
        self.original_values = tuple(original.values)
        self.maxint = maxint
        self.arity = _arities(model)
        self._explanations: dict[tuple[str, frozenset[str]], dict] = {}

    def atom_set(self, version: CounterfactualVersion) -> ModelAtomSet:
        if version.states[0] != self.original_values:
            # the caller mixed versions and originals from different runs
            raise QueryError("version states do not start from the original entity")
        scores = version._scores
        if scores is None or scores.model is not self.model or scores.maxint != self.maxint:
            # cls atoms from another classification belong to no answer set
            raise QueryError("version was not searched with this model and maxint")
        return ModelAtomSet(atoms=_LazyAtoms(self.arity, partial(self._table, version)))

    def _table(self, version: CounterfactualVersion,
               predicate: str) -> frozenset[tuple[Value, ...]]:
        eid, states = version.eid, version.states
        if predicate == "ent":
            return frozenset(
                [(eid, *states[0], "o"), (eid, *version.final, "s")]
                + [(eid, *state, "do") for state in states[1:]]
                + [(eid, *state, "tr") for state in states]
            )
        if predicate == "cls":
            score = version._scores.by_state
            return frozenset((eid, *state, score[state][0]) for state in states)
        if predicate == "pb_num":
            score = version._scores.by_state
            return frozenset(
                (eid, *state, label, num)
                for state in states
                for label, num in zip(self.model.labels, score[state][1:])
            )
        key = (eid, version.changed)
        tables = self._explanations.get(key)
        if tables is None:
            tables = self._explanations[key] = self._explanation_tables(*key)
        return tables[predicate]

    def _explanation_tables(self, eid: str, changed: frozenset[str]) -> dict:
        schema = self.model.schema
        changed_lower = frozenset(name.lower() for name in changed)
        inv_resp = len(changed)
        atoms: dict[str, list[tuple[Value, ...]]] = {
            "expl": [], "cause": [], "cont": [], "invResp": [], "fullExpl": [],
        }
        for name in changed:
            cause = name.lower()
            contingency = changed_lower - {cause}
            atoms["expl"].append((eid, cause, self.original_values[schema.index(name)]))
            atoms["cause"].append((eid, cause))
            atoms["cont"].append((eid, cause, contingency))
            atoms["invResp"].append((eid, cause, inv_resp))
            atoms["fullExpl"].append((eid, cause, inv_resp, contingency))
        return {pred: frozenset(tuples) for pred, tuples in atoms.items()}


def model_atom_sets(
    versions: Iterable[CounterfactualVersion],
    model: NaiveBayesModel | PercentModel,
    original: Entity,
    *,
    maxint: int = DEFAULT_MAXINT,
) -> list[ModelAtomSet]:
    """The atom sets of ``versions``, sharing explanation tables.

    ``cls`` and, for a staged model, ``pb_num`` read the scores the search
    recorded for each version's states; nothing is classified here.  A
    version that ``enumerate_counterfactuals`` did not build with this same
    ``model`` object and ``maxint`` raises QueryError.
    """
    materializer = _Materializer(model, original, maxint)
    return [materializer.atom_set(v) for v in versions]


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
    # how an integer constant was written; it matches that string too
    spelling: str | None = field(default=None, compare=False)


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


_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")
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
        if not all(_CONSTANT_RE.fullmatch(member) for member in members):
            raise QueryError(f"bad term: {text!r} (set members are constants)")
        return Constant(value=members), anon_counter
    if re.fullmatch(r"-?\d+", text):
        return Constant(value=int(text), spelling=text), anon_counter
    if _CONSTANT_RE.fullmatch(text):
        return Constant(value=text), anon_counter
    if _VARIABLE_RE.fullmatch(text):
        return Variable(name=text), anon_counter
    raise QueryError(f"bad term: {text!r}")


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
    """Answer rows under brave (union) or cautious (intersection) semantics.

    The query is evaluated once per distinct combination of the table
    objects its atoms name, so models that share tables share the work.  A
    single-atom query is evaluated once: over the union of the tables
    (brave), or over the smallest table, keeping a row only while every
    other table holds an atom that yields it (cautious).
    """
    if semantics not in ("brave", "cautious"):
        raise QueryError(f"semantics must be 'brave' or 'cautious', got {semantics!r}")
    if not models:
        return []
    _check_arities(query, models)

    plan = _Plan(query)
    predicates = [pattern.predicate for pattern in query.atoms]
    distinct: dict[tuple[int, ...], tuple[frozenset, ...]] = {}
    for model_atoms in models:
        tables = tuple(model_atoms.tuples(predicate) for predicate in predicates)
        distinct.setdefault(tuple(map(id, tables)), tables)

    if len(predicates) == 1:
        tables = sorted((table for (table,) in distinct.values()), key=len)
        if semantics == "brave":
            rows = plan.rows((frozenset().union(*tables),))
        else:
            rows = plan.rows((tables[0],))
            for table in tables[1:]:
                rows = {row for row in rows if plan.yields(row, table)}
    elif semantics == "brave":
        rows = set().union(*(plan.rows(tables) for tables in distinct.values()))
    else:
        rows = None
        for tables in distinct.values():
            rows = plan.rows(tables) if rows is None else rows & plan.rows(tables)
            if not rows:
                break
    return _sorted_rows(rows)


def _check_query(query: Query, model: NaiveBayesModel | PercentModel) -> None:
    """Check ``query`` against ``model``'s atom sets before any search."""
    _check_inventory(query, {p: {n} for p, n in _arities(model).items()})


def _check_arities(query: Query, models: Sequence[ModelAtomSet]) -> None:
    """Every queried predicate must occur in some model, at the query's arity.

    Lazy atom sets declare their arities; plain mappings are scanned, for
    the queried predicates only.
    """
    names = {pattern.predicate for pattern in query.atoms}
    known: dict[str, set[int]] = {}
    inventories: set[int] = set()
    for model_atoms in models:
        atoms = model_atoms.atoms
        if isinstance(atoms, _LazyAtoms):
            if id(atoms.arity) in inventories:
                continue
            inventories.add(id(atoms.arity))
            found = {p: {atoms.arity[p]} for p in names if p in atoms.arity}
        else:
            found = {p: {len(row) for row in atoms[p]} for p in names if p in atoms}
        for predicate, arities in found.items():
            known.setdefault(predicate, set()).update(arities)
    _check_inventory(query, known)


def _check_inventory(query: Query, known: Mapping[str, set[int]]) -> None:
    for pattern in query.atoms:
        if pattern.predicate not in known:
            raise QueryError(f"unknown predicate: {pattern.predicate}")
        arities = known[pattern.predicate]
        if arities and len(pattern.args) not in arities:
            raise QueryError(
                f"arity mismatch for {pattern.predicate}: query has "
                f"{len(pattern.args)} arguments, models have {sorted(arities)}"
            )


def _accepted(term: Constant) -> frozenset[Value]:
    """The values a constant matches.

    Entity values are strings, so an integer constant also matches the
    string it was written as: ``1`` matches ``"1"`` as well as ``1``.
    """
    if isinstance(term.value, int):
        return frozenset({term.value, term.spelling or str(term.value)})
    return frozenset({term.value})


class _Plan:
    """A query compiled to slot operations over a list of bound values.

    Each atom becomes a step: an arity, constant checks ``(position,
    accepted values)``, binds ``(position, slot)`` for the first occurrence
    of a variable or an ``_``, and checks ``(position, slot)`` for a
    variable already bound.  ``echo`` lists the slot of every non-constant
    argument position in reading order.
    """

    def __init__(self, query: Query) -> None:
        slot_of: dict[str, int] = {}
        self.steps: list[tuple[int, tuple, tuple, tuple]] = []
        self.echo: list[int] = []
        slots = 0
        for pattern in query.atoms:
            constants, binds, checks, layout = [], [], [], []
            for position, term in enumerate(pattern.args):
                if isinstance(term, Constant):
                    constants.append((position, _accepted(term)))
                    layout.append((None, _accepted(term)))
                    continue
                layout.append((len(self.echo), None))
                if isinstance(term, Variable) and term.name in slot_of:
                    slot = slot_of[term.name]
                    checks.append((position, slot))
                else:
                    slot, slots = slots, slots + 1
                    if isinstance(term, Variable):
                        slot_of[term.name] = slot
                    binds.append((position, slot))
                self.echo.append(slot)
            self.steps.append(
                (len(pattern.args), tuple(constants), tuple(binds), tuple(checks))
            )
        # per argument position: (echo index, None) or (None, accepted
        # values), to rebuild an atom from its answer row; only ``yields``
        # reads it, for one-atom queries, whose last atom is the only one
        self._layout: list[tuple[int | None, frozenset | None]] = layout
        self._slots = slots
        self._tests = [_compile_comparison(cmp, slot_of) for cmp in query.comparisons]

    def rows(self, tables: Sequence[frozenset]) -> set[tuple[Value, ...]]:
        """The answer rows of one model whose atoms' tables are ``tables``."""
        out: set[tuple[Value, ...]] = set()
        self._extend(tables, 0, [None] * self._slots, out)
        return out

    def _extend(self, tables, depth: int, slots: list, out: set) -> None:
        if depth == len(self.steps):
            if all(test(slots) for test in self._tests):
                out.add(tuple([slots[slot] for slot in self.echo]))
            return
        arity, constants, binds, checks = self.steps[depth]
        for atom in tables[depth]:
            if len(atom) != arity or any(
                atom[position] not in accepted for position, accepted in constants
            ):
                continue
            for position, slot in binds:
                slots[slot] = atom[position]
            if any(atom[position] != slots[slot] for position, slot in checks):
                continue
            self._extend(tables, depth + 1, slots, out)

    def yields(self, row: tuple[Value, ...], table: frozenset) -> bool:
        """Whether ``table`` holds an atom the single-atom query answers with ``row``.

        ``row`` must be an answer of this query on some table, so any atom
        rebuilt from it passes the filters; only membership is left.
        """
        choices = [accepted if index is None else (row[index],)
                   for index, accepted in self._layout]
        return any(atom in table for atom in product(*choices))


def _compile_comparison(cmp: Comparison, slot_of: Mapping[str, int]) -> Callable[[list], bool]:
    def operand(term: Term) -> Callable[[list], Value]:
        if isinstance(term, Variable):
            slot = slot_of[term.name]
            return lambda slots: slots[slot]
        return lambda slots: term.value

    left, right = operand(cmp.left), operand(cmp.right)
    if cmp.op in ("=", "!="):
        # a constant compares the way it matches an atom argument
        if isinstance(cmp.right, Constant):
            accepted = _accepted(cmp.right)
            same = lambda slots: left(slots) in accepted
        elif isinstance(cmp.left, Constant):
            accepted = _accepted(cmp.left)
            same = lambda slots: right(slots) in accepted
        else:
            same = lambda slots: left(slots) == right(slots)
        return same if cmp.op == "=" else lambda slots: not same(slots)

    def ordered(slots: list) -> bool:
        a, b = left(slots), right(slots)
        if not isinstance(a, int) or not isinstance(b, int):
            raise QueryError(
                f"ordered comparison {cmp.op} needs integer operands, got "
                f"{a!r} and {b!r}"
            )
        return a < b if cmp.op == "<" else a <= b

    return ordered


def _sorted_rows(rows: Iterable[tuple[Value, ...]]) -> list[tuple[Value, ...]]:
    """Integers before strings before sets, each kind in its natural order."""
    keys: dict[Value, tuple] = {}  # values repeat across rows; key each once

    def value_key(value: Value) -> tuple:
        key = keys.get(value)
        if key is None:
            if isinstance(value, int):
                key = (0, value)
            elif isinstance(value, str):
                key = (1, value)
            else:
                key = (2, ",".join(sorted(value)))
            keys[value] = key
        return key

    return sorted(rows, key=lambda row: tuple(map(value_key, row)))
