"""Conjunctive queries over the atom sets of counterfactual models.

Every counterfactual version, seen as a stable model, is a set of ground
atoms: the shared original entity (annotation ``o``), the states of its
intervention chain (``do``/``tr`` states with their ``cls`` and staged
``pb_num`` atoms), the flipped terminal (``s``), and the version's
explanation machinery (``expl``, ``cause``, ``cont``, ``invResp``,
``fullExpl``).  The search result walks its chains, decodes their cells
and expands explanations; this module turns them into atoms.  Feature names
appear lowercased as constants; contingency sets are set-valued arguments.
The predicates and their arities depend only on the model (``pb_num`` only
for a staged one), so a query can be checked before any search.

``model_atom_sets`` is a view over one search result, and ``answer`` reads
the result rather than one atom set per version.  Explanation atoms depend
only on the changed set: their tables are built once per changed-feature
mask, straight from the result's explanation rows (no ``Explanation``
record is made), and a query naming only them decodes no chain.  It runs
once per mask; with one atom under brave semantics it runs once, over the
union of the masks' tables, since one atom's rows are those of its atoms
one by one.  A one-atom ``ent``, ``cls`` or ``pb_num`` query runs
once, over the atoms of the cells on some chain (brave) or on every chain
(cautious); when no intervened feature is changed in every version, the
original alone is on every chain and no chain is walked.  Each cell's atoms
are built once per predicate: a ``cls`` atom takes the label the search
holds, and only ``pb_num`` atoms read the scores its scorer computes.
Only a query joining a chain predicate with another atom runs per version.
``answer`` folds the rows of these runs into one union (brave) or
intersection (cautious).  A result searched with another model object or
ceiling is refused: its ``cls`` atoms would belong to no answer set.

Query text copies the solver convention: comma-separated literals ending in
``?``, e.g. ``fullExpl(E,U,R,S), R<3?``.  Constants follow the text
policy of ``schema``; identifiers starting uppercase are variables, ``_`` is
anonymous, ``{a,b}``/``{}`` are sets of constants, any other term (``_X``)
is refused, and comparisons may use ``<``, ``<=``, ``=``, ``!=`` (ordered
ones only between integers).  Entity values are strings, so an integer
constant matches both the integer and the string it is written as: ``1``
matches ``1`` and ``"1"``.

An answer row echoes the matched value of every non-constant argument
position, in positional order; constants echo nothing.  Brave answers hold
in some model, cautious answers in all models.  One atom of distinct
variables and no comparison echoes each atom whole, so its atoms of the
query's arity are its rows as they stand.  Rows are deduplicated and sorted
canonically.  Rows of strings alone sort as plain tuples, which is that
order; otherwise values repeat across rows, so each distinct value is
keyed once and rows sort by their values' ranks.  ``render_row`` (defined
in ``schema``) prints sets as ``{a,b}`` (alphabetical, no spaces) and
joins row values with a comma and space.  A string renders as itself, so
the CLI joins rows of strings as they stand; other answers it renders
once per distinct value with ``render_value`` and joins those texts the
same way.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from types import MappingProxyType

from . import _lines, _Record
from .engine import _require_result
from .naive_bayes import DEFAULT_MAXINT, NaiveBayesModel, PercentModel
from .schema import _CONSTANT_RE, Entity

TYPE_CHECKING = False  # typing, which defines it, costs every run its import
if TYPE_CHECKING:
    from collections.abc import Callable, Collection, Mapping

    from .engine import _SearchResult

Value = str | int | frozenset


class QueryError(ValueError):
    """Malformed query text or a query inconsistent with the atom inventory."""


# ---------------------------------------------------------------------------
# Model atom sets
# ---------------------------------------------------------------------------


class ModelAtomSet(_Record):
    """Ground atoms of one counterfactual model, grouped by predicate."""

    atoms: Mapping[str, frozenset[tuple[Value, ...]]]

    def tuples(self, predicate: str) -> frozenset[tuple[Value, ...]]:
        return self.atoms.get(predicate, frozenset())


_CHAIN = ("ent", "cls", "pb_num")  # read from chains of cells; the rest from masks
_EXPLAINED = ("expl", "cause", "cont", "invResp", "fullExpl")


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


class _ResultAtomSets(Sequence):
    """The atom sets of one search result's versions, in version order.

    Explanation tables are built once per changed-feature mask, a chain
    cell's atoms once per predicate; reading an element gets a read-only
    mapping of that version's tables.
    """

    def __init__(self, result: _SearchResult) -> None:
        model = result.scorer.model
        self.result, self.model, self.arity = result, model, _arities(model)
        self._by_mask: dict[int, dict[str, frozenset[tuple[Value, ...]]]] = {}
        self._by_cell: dict[str, dict[int, list[tuple[Value, ...]]]] = {
            predicate: {} for predicate in _CHAIN}
        # feature names as constants, and each distinct contingency so named
        self._lower = {name: name.lower() for name in model.schema.names}
        self._lowered: dict[frozenset[str], frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self.result)

    def __getitem__(self, index: int) -> ModelAtomSet:
        tables = self._version_tables(tuple(self.arity), self.result.ordered[index])
        return ModelAtomSet(MappingProxyType(dict(zip(self.arity, map(frozenset, tables)))))

    def _tables(self, predicates: list[str], semantics: str) -> list[tuple]:
        """Table combinations whose answer under ``semantics`` is every version's."""
        masks = self.result.masks
        if len(predicates) > 1 and any(predicate in _CHAIN for predicate in predicates):
            return [self._version_tables(predicates, code) for code in self.result.found]
        if predicates[0] in _CHAIN:
            # a chain row names one atom (a position holds one kind of value), so the
            # cautious rows are those of the cells on every chain
            cells = self.result.on_chains(every=semantics == "cautious")
            return [(self._chain_table(predicates[0], cells),)]
        if len(predicates) == 1 and semantics == "brave":
            # one atom's rows are its atoms' rows, so the brave rows are those
            # of the union of the masks' tables
            return [(set().union(*(self._explanations(mask)[predicates[0]]
                                   for mask in masks)),)]
        return [tuple(self._explanations(mask)[predicate] for predicate in predicates)
                for mask in masks]

    def _version_tables(self, predicates, code: int) -> tuple[Collection, ...]:
        """The tables ``predicates`` name in the version found at ``code``."""
        explanations, chain = self._explanations(self.result.found[code]), self.result.chain(code)
        return tuple(explanations[predicate] if predicate in explanations
                     else self._chain_table(predicate, chain) for predicate in predicates)

    def _chain_table(self, predicate: str, cells: list[int]) -> list[tuple[Value, ...]]:
        """The ``predicate`` atoms of ``cells``: per cell a ``tr`` state, an ``o``
        (start) or ``do`` state, an ``s`` state if it is a version's, a ``cls``
        atom with the label the search holds, and ``pb_num`` atoms with the
        scores its scorer computes.  Only the ``ent`` atoms of a cell past the
        original read the versions' cells: the original is never a version.
        Distinct cells have distinct atoms, so the list holds each atom once."""
        result, by_cell, atoms = self.result, self._by_cell[predicate], []
        eid, state, scorer, names = result.eid, result.state, result.scorer, self.model.labels
        labels = scorer.labels  # the label index of each cell, as the search classified it
        for code in cells:
            if (cell_atoms := by_cell.get(code)) is None:
                values = state(code)
                if predicate == "cls":
                    cell_atoms = [(eid, *values, names[labels[code]])]
                elif predicate == "pb_num":
                    cell_atoms = [(eid, *values, label, num)
                                  for label, num in zip(names, scorer.score(code)[1:])]
                elif code == result.start:
                    cell_atoms = [(eid, *values, "tr"), (eid, *values, "o")]
                else:
                    cell_atoms = [(eid, *values, "tr"), (eid, *values, "do")]
                    if code in result.found:
                        cell_atoms.append((eid, *values, "s"))
                by_cell[code] = cell_atoms
            atoms += cell_atoms
        return atoms

    def _explanations(self, mask: int) -> dict[str, frozenset[tuple[Value, ...]]]:
        """The explanation tables of the versions that change the features of ``mask``."""
        if (tables := self._by_mask.get(mask)) is None:
            eid, lower, inv_resp = self.result.eid, self._lower, mask.bit_count()
            rows = []  # per explanation, its atom of each predicate
            for cause, value, contingency in self.result.explanation_rows(mask):
                cause = lower[cause]
                if (rest := self._lowered.get(contingency)) is None:
                    rest = self._lowered[contingency] = frozenset(map(lower.__getitem__, contingency))
                rows.append(((eid, cause, value), (eid, cause), (eid, cause, rest),
                             (eid, cause, inv_resp), (eid, cause, inv_resp, rest)))
            tables = self._by_mask[mask] = dict(zip(_EXPLAINED, map(frozenset, zip(*rows))))
        return tables


def model_atom_sets(
    versions: _SearchResult,
    model: NaiveBayesModel | PercentModel,
    original: Entity,
    *,
    maxint: int = DEFAULT_MAXINT,
) -> Sequence[ModelAtomSet]:
    """A view of the atom sets of ``versions``, a result of ``enumerate_counterfactuals``.

    ``cls`` and ``pb_num`` read the search's scorer, the label it holds
    and the scores it computes from the fold; nothing is classified.
    Any other ``versions`` raises TypeError; a result searched from another
    entity than ``original``, or not with this ``model`` object and
    ``maxint``, raises QueryError.
    """
    _require_result(versions, "model_atom_sets")
    if versions.original != tuple(original.values):
        # the caller mixed versions and originals from different runs
        raise QueryError("version states do not start from the original entity")
    scorer = versions.scorer
    if scorer.model is not model or scorer.maxint != maxint:
        # cls atoms from another classification belong to no answer set
        raise QueryError("version was not searched with this model and maxint")
    return _ResultAtomSets(versions)


# ---------------------------------------------------------------------------
# Query syntax
# ---------------------------------------------------------------------------


class Variable(_Record):
    name: str


class Anonymous(_Record):
    """The term ``_``: each one is distinct."""


class Constant(_Record):
    value: Value
    # how an integer constant was written; it matches that string too
    spelling: str | None = None
    _uncompared = ("spelling",)


Term = Variable | Anonymous | Constant


class AtomPattern(_Record):
    predicate: str
    args: tuple[Term, ...]


class Comparison(_Record):
    op: str  # <, <=, =, !=
    left: Term
    right: Term


class Query(_Record):
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

    for literal in literals:
        match = _ATOM_TEXT_RE.match(literal)
        if match:
            predicate, arg_text = match.groups()
            if not arg_text.strip():
                raise QueryError(f"atom {predicate!r} needs at least one argument")
            args = tuple(map(_parse_term, _split_top_level(arg_text)))
            atoms.append(AtomPattern(predicate=predicate, args=args))
            continue
        cmp_match = _COMPARISON_RE.match(literal)
        if cmp_match:
            left_text, op, right_text = cmp_match.groups()
            left, right = _parse_term(left_text.strip()), _parse_term(right_text.strip())
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


def _parse_term(text: str) -> Term:
    if text == "_":
        return Anonymous()
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
        return Constant(value=members)
    if re.fullmatch(r"-?\d+", text):
        return Constant(value=int(text), spelling=text)
    if _CONSTANT_RE.fullmatch(text):
        return Constant(value=text)
    if _VARIABLE_RE.fullmatch(text):
        return Variable(name=text)
    raise QueryError(f"bad term: {text!r}")


def load_queries(text: str) -> list[Query]:
    """One query per non-empty line; ``%`` comments.  A query that does not
    parse raises QueryError naming its line."""
    queries = []
    for lineno, line in _lines(text):
        try:
            queries.append(parse_query(line))
        except QueryError as exc:
            raise QueryError(f"line {lineno}: {exc}") from None
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

    ``models`` is the view ``model_atom_sets`` returns, or any sequence of
    atom sets.  The query runs once per combination of tables its source
    yields: one per atom set, or from the view one per changed set, per
    version, or over the chain cells (see the module notes).  One fold
    takes the union (brave) or the intersection (cautious) of their rows;
    a cautious fold stops once it is empty.  A query is checked against
    the view's model even when the view is empty; an empty sequence of
    atom sets answers nothing.
    """
    if semantics not in ("brave", "cautious"):
        raise QueryError(f"semantics must be 'brave' or 'cautious', got {semantics!r}")
    predicates = [pattern.predicate for pattern in query.atoms]
    if isinstance(models, _ResultAtomSets):
        _check_query(query, models.model)
        combinations = models._tables(predicates, semantics)
    else:
        if not models:
            return []
        _check_arities(query, models)
        # an atom set may hold a predicate at several arities: keep the pattern's
        combinations = (tuple({atom for atom in model_atoms.tuples(pattern.predicate)
                               if len(atom) == len(pattern.args)} for pattern in query.atoms)
                        for model_atoms in models)
    plan, rows = _Plan(query), None
    for tables in combinations:
        got = plan.rows(tables)
        if rows is None:
            rows = got
        else:
            if not isinstance(rows, set):  # a table passed through as it stands
                rows = set(rows)
            if semantics == "brave":
                rows.update(got)
            else:
                rows.intersection_update(got)
        if not rows and semantics == "cautious":
            break
    return _sorted_rows(rows or ())


def _check_query(query: Query, model: NaiveBayesModel | PercentModel) -> None:
    """Check ``query`` against ``model``'s atom sets before any search."""
    _check_inventory(query, {p: {n} for p, n in _arities(model).items()})


def _check_arities(query: Query, models: Sequence[ModelAtomSet]) -> None:
    """Every queried predicate must occur in some model, at the query's arity."""
    names = {pattern.predicate for pattern in query.atoms}
    known: dict[str, set[int]] = {}
    for model_atoms in models:
        for predicate in names & model_atoms.atoms.keys():
            known.setdefault(predicate, set()).update(map(len, model_atoms.atoms[predicate]))
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

    Each atom becomes a step: constant checks ``(position, accepted
    values)``, binds ``(position, slot)`` for the first occurrence of a
    variable or an ``_``, and checks ``(position, slot)`` for a variable
    already bound.  ``echo`` lists the slot of every non-constant argument
    position in reading order.  Each table holds the atoms of its pattern's
    arity alone and no atom twice, so a one-atom query that echoes each atom
    whole passes its table through as its rows.
    """

    def __init__(self, query: Query) -> None:
        slot_of: dict[str, int] = {}
        self.steps: list[tuple[tuple, tuple, tuple]] = []
        self.echo: list[int] = []
        slots = 0
        for pattern in query.atoms:
            constants, binds, checks = [], [], []
            for position, term in enumerate(pattern.args):
                if isinstance(term, Constant):
                    constants.append((position, _accepted(term)))
                    continue
                if isinstance(term, Variable) and term.name in slot_of:
                    slot = slot_of[term.name]
                    checks.append((position, slot))
                else:
                    slot, slots = slots, slots + 1
                    if isinstance(term, Variable):
                        slot_of[term.name] = slot
                    binds.append((position, slot))
                self.echo.append(slot)
            self.steps.append((tuple(constants), tuple(binds), tuple(checks)))
        self._slots = slots
        self._tests = [_compile_comparison(cmp, slot_of) for cmp in query.comparisons]
        # one atom with neither a constant, a repeated variable nor a comparison
        # echoes every position in order, so its rows are its atoms
        self._whole = (len(self.steps) == 1 and not self._tests
                       and self.echo == list(range(len(query.atoms[0].args))))

    def rows(self, tables: Sequence[Collection]) -> Collection[tuple[Value, ...]]:
        """The distinct answer rows of one model whose atoms' tables are ``tables``."""
        if self._whole:  # each row is its atom
            return tables[0]
        out: set[tuple[Value, ...]] = set()
        self._extend(tables, 0, [None] * self._slots, out)
        return out

    def _extend(self, tables, depth: int, slots: list, out: set) -> None:
        if depth == len(self.steps):
            if all(test(slots) for test in self._tests):
                out.add(tuple([slots[slot] for slot in self.echo]))
            return
        constants, binds, checks = self.steps[depth]
        for atom in tables[depth]:
            for position, accepted in constants:
                if atom[position] not in accepted:
                    break
            else:
                for position, slot in binds:
                    slots[slot] = atom[position]
                for position, slot in checks:
                    if atom[position] != slots[slot]:
                        break
                else:
                    self._extend(tables, depth + 1, slots, out)


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


def _sorted_rows(rows: Collection[tuple[Value, ...]]) -> list[tuple[Value, ...]]:
    """Integers before strings before sets, each kind in its natural order."""
    def value_key(value: Value) -> tuple:
        if isinstance(value, int):
            return (0, value)
        if isinstance(value, str):
            return (1, value)
        return (2, ",".join(sorted(value)))

    values = set().union(*rows)
    if set(map(type, values)) <= {str}:
        return sorted(rows)  # every key is (1, value): strings order as they stand
    # values repeat across rows: key each distinct value once, then compare
    # rows by the values' dense ranks, which order as their keys do
    ranked = sorted(values, key=value_key)
    rank = {value: i for i, value in enumerate(ranked)}
    return sorted(rows, key=lambda row: tuple(map(rank.__getitem__, row)))
