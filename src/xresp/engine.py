"""Counterfactual enumeration, explanations, and x-Resp scores.

The search realizes counterfactual-intervention semantics as breadth-first
reachability over entities:

* the start state is the original entity, which must carry the original
  label;
* from any state that still has the original label, changing one feature to
  any different in-domain value yields a successor, subject to domain
  constraints (forbidden combinations prune states, dependency targets are
  overwritten rather than freely intervened, immutable features are never
  touched);
* the exact original tuple is never re-entered;
* a state whose label differs is terminal and reported as a counterfactual
  version, with the states of one shortest intervention chain recorded
  (dependency-propagated values included); the last of them is the
  version's ``final`` state.

The search runs level by level: a state at depth k differs from the
original in exactly k intervened free features, plus whatever dependency
targets propagation overwrote, so every version found at depth k changes at
least k features.  A minimum-change search therefore stops before the first
depth that exceeds the fewest changes found so far.  The truncation is
exact: a level is built only from the levels before it (their frontier and
the cells they reached), so every level the truncated search runs equals
the full search's.  Stopping at the first depth holding a flip would not be
exact: a dependency can give a shallower version as many changed features
as a deeper one, or more.

States are searched as integer cell codes: a state's value indices read as
mixed-radix digits, feature 0 most significant.  An immutable feature keeps
only its original value, so the grid leaves out cells no search can reach;
forbidden combinations and dependencies are checks on digits.  The moves
out of a state are one table of (intervened set, code step) pairs per set
of features intervened so far, built the first time a state of that set is
expanded.  The breadth-first search keeps each version as its cell and a
bitmask of its changed features, and each reached cell's parent: the cell
it was first reached from, the original being its own.  Only the result
walks the recorded chains and decodes cells, each at most once, by looking
each block of consecutive features up in a table of that block's cells.
It also expands each changed-feature mask into explanation rows, plain
(cause, original value, contingency) tuples whose contingency set is built
once per contingency mask; ``explanations_of`` alone makes records of them,
and the query layer makes atoms.

A full search first asks the model to fold the labels of every cell of the
grid, level by level in schema order as ``classify`` computes them, so each
prefix product is computed once for all the cells that share it.  The fold
keeps those prefix products and one label byte per cell; a cell's scores
are computed from its prefix product when the query layer reads them.
Only the staged model can refuse: it folds only when ``maxint`` is at
least its covering ceiling, the largest staged product of any state, so no
folded cell can overflow.  Otherwise, and for minimum-change searches
(which often stop after a few states) and grids of more than
``_FOLD_LIMIT`` cells, each cell is scored on demand through ``classify``,
each at most once; a staged overflow then raises at the first overflowing
cell the search reaches.  Either way the result keeps the search's scorer,
and the query layer reads each chain cell's score from it: nothing is
classified twice.

A full search over a folded grid without dependencies runs its levels as
bitmaps, one Python integer with a bit per cell, in the manner of the
bitmap frontiers of Beamer, Asanovic and Patterson (*Direction-Optimizing
Breadth-First Search*, SC 2012).  Without dependencies a state at depth k
changes exactly k features, so a level is the union, over each feature i
and each other digit d of it, of the frontier's cells still at i's original
digit shifted by d's code step; its admissible cells that keep the label
are the next frontier and the others are versions.  The result's length
and changed-feature masks come from the bitmap of the version cells, the
masks split out feature by feature, and explanations and x-resp scores read
nothing else.  The breadth-first search, with its parents, runs only when
the versions' cells or chains are first read (``counterfactuals``,
``query``).  Every other search runs it at once.  The parents follow the
scorer: a folded grid keeps them in a list with one slot per cell, -1 until
the cell is reached, and an on-demand search in a dict of the cells it
reaches.

Every feature changed in a version is a cause; the remaining changed
features form its contingency set, and the inverse responsibility
``inv_resp`` of the explanation is ``|contingency| + 1``, the total number
of changes.  Like ``final``, it is derived, never stored.  The x-Resp
score of a feature is the reciprocal of its minimum inverse
responsibility, or 0 when the feature is changed in no version.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from . import _Record
from .naive_bayes import DEFAULT_MAXINT, NaiveBayesModel, PercentModel
from .schema import Entity, FeatureSchema, validate_values

if TYPE_CHECKING:
    from .constraints import ConstraintSet


class CounterfactualVersion(_Record):
    """A label-flipping variant of the original entity.

    ``states`` runs from the original tuple to ``final``, its last state;
    consecutive states differ in one intervened feature plus whatever
    dependency propagation then overwrote.  ``changed`` names the features
    in which ``final`` differs from the original.
    """

    eid: str
    changed: frozenset[str]
    states: tuple[tuple[str, ...], ...]

    @property
    def final(self) -> tuple[str, ...]:
        return self.states[-1]


class Explanation(_Record):
    """A cause feature value with its contingency set.

    ``inv_resp``, the inverse responsibility, is ``len(contingency) + 1``:
    the number of features the explaining versions change.
    """

    eid: str
    cause_feature: str
    cause_value: str
    contingency: frozenset[str]

    def __post_init__(self) -> None:
        if self.cause_feature in self.contingency:
            raise ValueError("cause feature cannot appear in its own contingency")

    @property
    def inv_resp(self) -> int:
        return len(self.contingency) + 1


class ResponsibilityReport(_Record):
    """Per-feature x-Resp scores."""

    scores: Mapping[str, Fraction]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# A grid with more cells than this is scored on demand, not folded: the fold
# keeps a label byte for every cell and a prefix product for every cell of
# all but the last feature, the level-bitmap search a few integers of one bit
# per cell, and the breadth-first search one parent slot per cell.
_FOLD_LIMIT = 1 << 20
# A cell's label index as the character of its bit in a binary numeral.
_BITS = bytes.maketrans(b"\x00\x01", b"01")
# The most cells of one block of consecutive features that ``_Grid.decode``
# reads from a table.
_BLOCK_CELLS = 1 << 10


class _Grid:
    """The cells one search can reach, numbered by mixed-radix integer codes.

    Feature 0 is the most significant digit.  An immutable feature keeps
    only its original value, so its digit is always 0.  Forbidden
    combinations and dependencies are compiled to checks on digits; ``None``
    constrains nothing.  ``targets`` holds the places of the dependency
    targets.
    """

    def __init__(self, schema: FeatureSchema, original: tuple[str, ...],
                 cs: ConstraintSet | None) -> None:
        forbidden, dependencies, immutable = ((), (), frozenset()) if cs is None else (
            cs.forbidden, cs.dependencies, cs.immutable)
        self.targets = [schema.index(dep.target) for dep in dependencies]
        self.domains = tuple(
            (value,) if name in immutable else domain
            for (name, domain), value in zip(schema.features, original)
        )
        self.size = 1
        weights = []
        for domain in reversed(self.domains):
            weights.append(self.size)
            self.size *= len(domain)
        self.weights = weights[::-1]
        self._digits = [{v: d for d, v in enumerate(dom)} for dom in self.domains]

        # the (weight, radix, digit) conditions of each forbidden combination;
        # one naming another value of an immutable feature never matches
        self._forbidden = []
        for combo in forbidden:
            bindings = [(schema.index(name), value) for name, value in combo.items()]
            if all(value in self._digits[i] for i, value in bindings):
                self._forbidden.append([
                    (self.weights[i], len(self.domains[i]), self._digits[i][value])
                    for i, value in bindings
                ])
        # (source place, target place, target digit per source digit)
        self._dependencies = []
        for dep in dependencies:
            s, t = schema.index(dep.source), schema.index(dep.target)
            image = tuple(self._digits[t][dep.mapping[v]] for v in self.domains[s])
            self._dependencies.append(
                (self.weights[s], len(self.domains[s]),
                 self.weights[t], len(self.domains[t]), image)
            )

    def encode(self, values: tuple[str, ...]) -> int:
        return sum(
            digits[value] * weight
            for digits, value, weight in zip(self._digits, values, self.weights)
        )

    def decode(self, code: int) -> tuple[str, ...]:
        values = ()
        for weight, size, table in self._blocks:
            values += table[code // weight % size]
        return values

    @cached_property
    def _blocks(self) -> list[tuple[int, int, list[tuple[str, ...]]]]:
        """Consecutive features grouped into blocks of at most ``_BLOCK_CELLS``
        cells (a larger domain is a block of its own), each as its weight, its
        number of cells and the values of each of its cells in digit order."""
        blocks, end = [], len(self.domains)
        while end:
            start, size = end - 1, len(self.domains[end - 1])
            while start and size * len(self.domains[start - 1]) <= _BLOCK_CELLS:
                start -= 1
                size *= len(self.domains[start])
            blocks.append((self.weights[end - 1], size,
                           list(product(*self.domains[start:end]))))
            end = start
        return blocks[::-1]

    def moves(self, start: int) -> list[tuple[int, int, list[int]]]:
        """Per feature a search from cell ``start`` intervenes on (neither
        immutable nor a dependency target): its place, its digit in
        ``start`` and the code steps to each of its other digits."""
        moves = []
        for i, (weight, domain) in enumerate(zip(self.weights, self.domains)):
            digit = start // weight % len(domain)
            if i not in self.targets and len(domain) > 1:
                moves.append((i, digit, [(d - digit) * weight
                                         for d in range(len(domain)) if d != digit]))
        return moves

    def cells_at(self, weight: int, radix: int, digit: int) -> int:
        """The bitmap (bit c for cell c) of the cells whose digit of ``weight``
        and ``radix`` is ``digit``: one run of ``weight`` bits per period of
        ``weight * radix`` cells, repeated by doubling."""
        cells, period = ((1 << weight) - 1) << digit * weight, weight * radix
        while period < self.size:
            cells |= cells << period
            period *= 2
        return cells & ((1 << self.size) - 1)

    def changed_masks(self, cells: int, start: int) -> list[int]:
        """The distinct bitmasks of the features in which the cells of bitmap
        ``cells`` differ from cell ``start``.

        The cells are split feature by feature, most significant first: a
        digit's cells are a run of bits per period, so shifting each run down
        leaves a bitmap over the remaining features, and the runs of the
        cells that agree on which features changed so far are merged.
        """
        parts = {0: cells} if cells else {}
        for i, (weight, domain) in enumerate(zip(self.weights, self.domains)):
            radix = len(domain)
            if radix == 1:  # an immutable feature never changes
                continue
            low, digit, split = (1 << weight) - 1, start // weight % radix, {}
            for mask, part in parts.items():
                moved = 0
                for d in range(radix):
                    if d != digit:
                        moved |= (part >> d * weight) & low
                if same := (part >> digit * weight) & low:
                    split[mask] = split.get(mask, 0) | same
                if moved:
                    split[mask | 1 << i] = split.get(mask | 1 << i, 0) | moved
            parts = split
        return list(parts)

    def admits(self, code: int) -> bool:
        """False iff the cell fully matches some forbidden combination."""
        return not any(
            all(code // weight % radix == digit for weight, radix, digit in conditions)
            for conditions in self._forbidden
        )

    def propagate(self, code: int) -> int:
        """Overwrite dependency targets from their sources, to a fixed point.

        Dependencies are applied in declaration order; they are acyclic and
        no feature is the target of two, so the passes reach a fixed point.
        """
        moved = True
        while moved:
            moved = False
            for s_weight, s_radix, t_weight, t_radix, image in self._dependencies:
                want = image[code // s_weight % s_radix]
                have = code // t_weight % t_radix
                if want != have:
                    code += (want - have) * t_weight
                    moved = True
        return code


class _FoldedCells:
    """Every cell's label index (0 positive, 1 negative) in ``labels``, as the
    model folded the grid under ``maxint``; a cell's scores are computed
    from the fold when read, as ``classify`` returns them.
    """

    def __init__(self, model: NaiveBayesModel | PercentModel,
                 fold: tuple[bytearray, Callable[[int], tuple[int, int]]],
                 maxint: int) -> None:
        self.model, self.maxint = model, maxint
        self.labels, self._scores = fold

    def score(self, code: int) -> tuple:
        model, (pos, neg) = self.model, self._scores(code)
        if model._divisor == 1:
            pos, neg = Fraction(pos, model._denominator), Fraction(neg, model._denominator)
        return model.labels[self.labels[code]], pos, neg


class _CellsOnDemand(dict):
    """Cell code -> label index, classified when first read."""

    def __init__(self, model: NaiveBayesModel | PercentModel, grid: _Grid,
                 maxint: int) -> None:
        super().__init__()
        self.model, self.grid, self.maxint = model, grid, maxint
        self.labels = self  # read like ``_FoldedCells.labels``
        self._scores: dict[int, tuple] = {}

    def __missing__(self, code: int) -> int:
        score = self._scores[code] = self.model.classify(
            self.grid.decode(code), self.maxint
        )
        label = self[code] = self.model.labels.index(score[0])
        return label

    def score(self, code: int) -> tuple:
        self[code]
        return self._scores[code]


class _Unseen(dict):
    """Cell code -> the cell it was first reached from; an unseen cell reads -1."""

    def __missing__(self, code: int) -> int:
        return -1


class _SearchResult(Sequence):
    """The versions one search found, kept as cells until they are read.

    ``found`` maps each version's cell, in the order the search reached it,
    to the bitmask of its changed features (bit i for feature i), ``masks``
    each distinct mask to its changed set, and ``parent`` each reached cell
    to the cell it was first reached from: a list over the grid when the
    grid was folded, else a dict of the reached cells.  The original is its
    own parent, the root of every chain.  ``search()`` runs the
    breadth-first search that builds ``parent`` and ``found``.  Given
    ``versions``, the bitmap of the version cells a level-bitmap search
    found, the length and ``masks`` come from it and the search runs when
    ``found`` or ``parent`` is first read; otherwise it runs at once.  Only
    this class walks ``parent`` and decodes cells, each at most once;
    ``len``, ``bool``, ``changed_sets`` and ``explanation_rows`` read
    neither, and the first index or iteration decodes every version's chain.
    """

    def __init__(self, eid: str, original: tuple[str, ...], schema: FeatureSchema,
                 grid: _Grid, scorer: _FoldedCells | _CellsOnDemand, start: int,
                 search: Callable[[], tuple[list[int] | _Unseen, dict[int, int]]],
                 versions: int | None = None) -> None:
        self.eid, self.original, self.schema = eid, original, schema
        self.grid, self.scorer, self.start, self._search = grid, scorer, start, search
        # each feature mask's names, and per feature its bit, name and original value
        self._sets: dict[int, frozenset[str]] = {0: frozenset()}
        self._causes = [(1 << i, name, value)
                        for i, (name, value) in enumerate(zip(schema.names, original))]
        if versions is None:
            self._count, masks = len(self.found), set(self.found.values())
        else:
            self._count, masks = versions.bit_count(), grid.changed_masks(versions, start)
        self.masks = {mask: self._named(mask) for mask in masks}
        self.changed_sets = frozenset(self.masks.values())
        self._states = {start: original}

    @cached_property
    def _tree(self) -> tuple[list[int] | _Unseen, dict[int, int]]:
        return self._search()

    @property
    def parent(self) -> list[int] | _Unseen:
        return self._tree[0]

    @property
    def found(self) -> dict[int, int]:
        return self._tree[1]

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._decoded[index]

    def __iter__(self):
        return iter(self._decoded)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SearchResult):
            other = other._decoded
        return self._decoded == other

    def __repr__(self) -> str:
        return repr(self._decoded)

    def state(self, code: int) -> tuple[str, ...]:
        """The values of cell ``code``, decoded once."""
        if (values := self._states.get(code)) is None:
            values = self._states[code] = self.grid.decode(code)
        return values

    def chain(self, code: int) -> list[int]:
        """The cells from the original to ``code``."""
        cells, parent = [code], self.parent
        while code != self.start:
            code = parent[code]
            cells.append(code)
        return cells[::-1]

    def on_chains(self, every: bool) -> list[int]:
        """The cells on some version's chain, or on every chain if ``every``.

        Each cell is visited once: a walk up from a version stops at a cell
        an earlier walk took, the original's own parent included.  The
        chains are the root paths of one tree, so the cells on every chain
        are a prefix of the first chain, cut where a later walk meets it.
        """
        parent, codes = self.parent, iter(self.found)
        if not every:
            taken = set()
            for code in codes:
                while code not in taken:
                    taken.add(code)
                    code = parent[code]
            return list(taken)
        if (first := next(codes, None)) is None:
            return []
        prefix = self.chain(first)
        depth = {code: i for i, code in enumerate(prefix)}
        taken, end = set(prefix), len(prefix)
        for code in codes:
            while code not in taken:
                taken.add(code)
                code = parent[code]
            if code in depth:
                end = min(end, depth[code] + 1)
        return prefix[:end]

    def _named(self, mask: int) -> frozenset[str]:
        """The names of the features of ``mask``, built once per mask from
        those of the mask without its lowest feature."""
        if (names := self._sets.get(mask)) is None:
            low = mask & -mask
            names = self._sets[mask] = (self._named(mask ^ low)
                                        | {self.schema.names[low.bit_length() - 1]})
        return names

    def explanation_rows(self, mask: int) -> list[tuple[str, str, frozenset[str]]]:
        """Per feature of ``mask`` as a cause: its name, its original value and
        the rest of the mask's features as its contingency."""
        return [(name, value, self._named(mask ^ bit))
                for bit, name, value in self._causes if mask & bit]

    @cached_property
    def ordered(self) -> list[int]:
        """The found cells in version order: by number of changes, then final state."""
        found, state = self.found, self.state
        return sorted(found, key=lambda c: (found[c].bit_count(), state(c)))

    def fewest_changes(self) -> _SearchResult:
        """This result restricted to the versions with the fewest changed features."""
        best = min(map(int.bit_count, self.masks), default=0)
        parent = self.parent
        found = {code: m for code, m in self.found.items() if m.bit_count() == best}
        return _SearchResult(self.eid, self.original, self.schema, self.grid, self.scorer,
                             self.start, lambda: (parent, found))

    @cached_property
    def _decoded(self) -> tuple[CounterfactualVersion, ...]:
        parent, found, state = self.parent, self.found, self.state
        # the states from the original to each cell, built once per cell
        paths: dict[int, tuple[tuple[str, ...], ...]] = {self.start: (self.original,)}

        def path(code: int) -> tuple[tuple[str, ...], ...]:
            if code not in paths:
                paths[code] = path(parent[code]) + (state(code),)
            return paths[code]

        return tuple(CounterfactualVersion(self.eid, self.masks[found[code]], path(code))
                     for code in self.ordered)


def enumerate_counterfactuals(
    model: NaiveBayesModel | PercentModel,
    entity: Entity,
    constraints: ConstraintSet | None = None,
    *,
    strict: bool = False,
    maxint: int = DEFAULT_MAXINT,
    min_change: bool = False,
) -> Sequence[CounterfactualVersion]:
    """All label-flipping entities reachable by admissible interventions.

    Each step changes one feature, each feature at most once, and chains
    only continue from states that keep the original label; a state
    whose label flips is terminal and becomes a version.  Pass a
    PercentModel to classify with the staged integer pipeline (the default
    pairing) or a NaiveBayesModel for exact rationals.

    The result is an immutable sequence of versions sorted by the number of
    changed features, then by ``final``.  Its length, truth value and
    ``changed_sets`` (all ``explanations_of`` reads) come from the search's
    cells, and from its level bitmaps alone when the grid was folded and no
    dependency applies; the first index or iteration decodes every
    version's chain.

    ``strict`` tightens admissibility twice over: interventions only run
    when the original label is the positive one, and forbidden combinations
    apply to the original entity as well (discarding everything when the
    original itself is inadmissible).  An empty result is legal and means no
    counterfactual version exists under the constraints.

    ``min_change`` returns ``min_change_versions`` of the result without
    building it whole: depth k of the search changes at least k features,
    so the search stops once k exceeds the fewest changes found so far.
    Every shallower level runs exactly as in the full search, so the answer
    is the same; states past the stop are never classified, so a staged
    overflow there no longer ends the search.
    """
    schema = model.schema
    validate_values(schema, entity.values)
    if constraints is not None and constraints.schema != schema:
        raise ValueError("constraint set was built against a different schema")
    original = tuple(entity.values)
    grid = _Grid(schema, original, constraints)
    if (not min_change and grid.size <= _FOLD_LIMIT
            and (fold := model._grid_labels(grid.domains, maxint)) is not None):
        cells = _FoldedCells(model, fold, maxint)
    else:
        cells = _CellsOnDemand(model, grid, maxint)
    start = grid.encode(original)
    original_label = cells.labels[start]
    # a strict search from a negative or inadmissible original searches nothing
    searched = not strict or (original_label == 0 and grid.admits(start))
    search = partial(_search, grid, cells, start, original_label, searched, min_change)
    versions = None
    if isinstance(cells, _FoldedCells) and not grid._dependencies:
        versions = _version_cells(grid, cells.labels, start, original_label, searched)
    result = _SearchResult(entity.eid, original, schema, grid, cells, start, search, versions)
    return result.fewest_changes() if min_change else result


def _version_cells(grid: _Grid, labels: bytearray, start: int, original_label: int,
                   searched: bool) -> int:
    """The bitmap of the version cells of a full search over a folded grid
    without dependencies, searched level by level.

    Without dependencies a cell at depth k changes exactly k features, so
    the levels are disjoint and need no seen set: a level's cells are the
    frontier's cells with some feature i still at its original digit,
    shifted to each other digit of i.  The admissible ones keep the label
    (the next frontier) or flip it (versions).
    """
    everything = (1 << grid.size) - 1
    negative = int(labels.translate(_BITS)[::-1], 2)  # bit c set iff cell c is negative
    keep = negative if original_label else everything ^ negative
    flip = everything ^ keep
    for conditions in grid._forbidden:
        forbidden = everything
        for weight, radix, digit in conditions:
            forbidden &= grid.cells_at(weight, radix, digit)
        keep &= ~forbidden
        flip &= ~forbidden
    # per free feature: the cells at its original digit, and the code steps
    # to each other digit
    moves = [(grid.cells_at(grid.weights[i], len(grid.domains[i]), digit), steps)
             for i, digit, steps in grid.moves(start)]
    frontier, versions = (1 << start) if searched else 0, 0
    while frontier:
        reached = 0
        for at_original, steps in moves:
            if cells := frontier & at_original:
                for step in steps:
                    reached |= cells << step if step > 0 else cells >> -step
        versions |= reached & flip
        frontier = reached & keep
    return versions


def _search(grid: _Grid, cells: _FoldedCells | _CellsOnDemand, start: int,
            original_label: int, searched: bool,
            min_change: bool) -> tuple[list[int] | _Unseen, dict[int, int]]:
    """The breadth-first search: each reached cell's parent and each version's
    cell with its changed-feature mask, in the order it was reached.

    A folded grid keeps the parents in a list with one slot per cell, -1
    until the cell is reached, a search scored on demand in a dict of the
    cells it reaches; either way the parents double as the seen set.
    """
    labels = cells.labels
    parent = [-1] * grid.size if isinstance(cells, _FoldedCells) else _Unseen()
    parent[start] = start  # the original is its own parent

    # per free feature: its bit, and the code steps to each other value
    moves = [(1 << i, steps) for i, _, steps in grid.moves(start)]
    # per dependency target: its bit, its place and its original digit
    targets = [(1 << i, grid.weights[i], len(grid.domains[i]),
                start // grid.weights[i] % len(grid.domains[i])) for i in grid.targets]
    propagate_cell = grid.propagate if grid._dependencies else None
    admits_cell = grid.admits if grid._forbidden else None

    # per set of intervened features: the (intervened set after the move,
    # code step) of each move that intervenes a feature not yet in it
    tables: dict[int, list[tuple[int, int]]] = {}
    # each version's cell -> the bits of the features it changes
    found: dict[int, int] = {}
    # (cell, bits of the features intervened on to reach it)
    frontier = [(start, 0)] if searched else []
    # the fewest changed features of any version found so far; no version
    # changes more than every feature
    best = len(grid.domains)
    depth = 0

    while frontier and not (min_change and depth >= best):
        next_frontier = []
        for code, intervened in frontier:
            if (table := tables.get(intervened)) is None:
                # each feature is intervened at most once
                table = tables[intervened] = [
                    (intervened | bit, step)
                    for bit, steps in moves if not intervened & bit for step in steps
                ]
            for moved, step in table:
                successor = code + step
                if propagate_cell:
                    successor = propagate_cell(successor)
                if parent[successor] >= 0:
                    continue
                if admits_cell and not admits_cell(successor):
                    continue
                parent[successor] = code
                if labels[successor] == original_label:
                    next_frontier.append((successor, moved))
                    continue
                # an intervened feature never returns to its original value;
                # a dependency target is changed if it moved
                mask = moved
                for t_bit, t_weight, t_radix, t_digit in targets:
                    if successor // t_weight % t_radix != t_digit:
                        mask |= t_bit
                found[successor] = mask
                if min_change:
                    best = min(best, mask.bit_count())
        frontier = next_frontier
        depth += 1
    return parent, found


def min_change_versions(versions: _SearchResult) -> _SearchResult:
    """The fewest-change versions of a result of ``enumerate_counterfactuals``,
    as ``min_change=True`` finds them; anything else raises TypeError."""
    if not isinstance(versions, _SearchResult):
        raise TypeError("min_change_versions takes a result of enumerate_counterfactuals, "
                        f"not {type(versions).__name__}")
    return versions.fewest_changes()


# ---------------------------------------------------------------------------
# Explanations and scores
# ---------------------------------------------------------------------------


def explanations_of(
    versions: _SearchResult,
    original: Entity,
    schema: FeatureSchema,
) -> tuple[Explanation, ...]:
    """One explanation per (version, changed feature), deduplicated by content.

    ``versions`` is a result of ``enumerate_counterfactuals``.  The cause
    keeps the feature's original value; the contingency is the version's
    remaining changed features.  A single-change version yields the empty
    contingency.  A cause and its contingency fix the changed set, so each
    of the result's distinct ``changed_sets`` is expanded once and no
    version is read.  A result searched from another entity than
    ``original``, or over another schema than ``schema``, raises ValueError.
    """
    if not isinstance(versions, _SearchResult):
        raise TypeError("explanations_of takes a result of enumerate_counterfactuals, "
                        f"not {type(versions).__name__}")
    if versions.original != tuple(original.values):
        raise ValueError("version states do not start from the original entity")
    if versions.schema != schema:
        raise ValueError("schema is not the one the versions were searched over")
    rows = [row for mask in versions.masks for row in versions.explanation_rows(mask)]
    # a cause and its contingency fix the row, and a contingency's rank orders
    # as (inv_resp, sorted members): rank each distinct contingency once
    ranked = sorted({contingency for _, _, contingency in rows},
                    key=lambda contingency: (len(contingency), sorted(contingency)))
    rank = {contingency: i for i, contingency in enumerate(ranked)}
    return tuple(Explanation(versions.eid, cause, value, contingency)
                 for cause, _, value, contingency in sorted(
                     (cause, rank[contingency], value, contingency)
                     for cause, value, contingency in rows))


def xresp(
    explanations: Iterable[Explanation], schema: FeatureSchema
) -> ResponsibilityReport:
    """Per-feature score 1/(minimum inv_resp), or 0 for features never changed;
    a cause feature that ``schema`` lacks raises SchemaError."""
    best: dict[str, int] = {}
    for ex in explanations:
        best[ex.cause_feature] = min(ex.inv_resp, best.get(ex.cause_feature, ex.inv_resp))
    for name in best:
        schema.index(name)
    return ResponsibilityReport(scores={
        name: Fraction(1, best[name]) if name in best else Fraction(0)
        for name in schema.names
    })
