"""The breadth-first search with parents, and the on-demand scorer, which
only runs that read version cells or chains (``counterfactuals``,
``query``), search for minimum change or score on demand import."""

from __future__ import annotations

TYPE_CHECKING = False  # typing, which defines it, costs every run its import
if TYPE_CHECKING:
    from .engine import _FoldedCells, _Grid
    from .naive_bayes import NaiveBayesModel, PercentModel


class _CellsOnDemand(dict):
    """Cell code -> label index, classified when first read; ``seed`` is the
    original's classification when the caller already made it."""

    def __init__(self, model: NaiveBayesModel | PercentModel, grid: _Grid,
                 maxint: int, seed: tuple | None = None) -> None:
        super().__init__()
        self.model, self.grid, self.maxint = model, grid, maxint
        self.labels = self  # read like ``_FoldedCells.labels``
        self._scores: dict[int, tuple] = {}
        if seed is not None:
            self._scores[grid.start], self[grid.start] = seed, model.labels.index(seed[0])

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


def _search(grid: _Grid, cells: _FoldedCells | _CellsOnDemand, original_label: int,
            searched: bool, min_change: bool) -> tuple[list[int] | _Unseen, dict[int, int]]:
    """The breadth-first search: each reached cell's parent and each version's
    cell with its changed-feature mask, in the order it was reached, or with
    ``min_change`` only the fewest-change versions of the truncated search.

    A folded grid keeps the parents in a list with one slot per cell, -1
    until the cell is reached, a search scored on demand in a dict of the
    cells it reaches; either way the parents double as the seen set.
    """
    labels, start = cells.labels, grid.start
    parent = _Unseen() if isinstance(cells, _CellsOnDemand) else [-1] * grid.size
    parent[start] = start  # the original is its own parent

    # per free feature: its bit, and the code steps to each other value
    moves = [(1 << i, steps) for i, _, steps in grid.moves()]
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
    if min_change:
        # a deeper level, or a dependency, can add versions with more changes
        found = {code: mask for code, mask in found.items() if mask.bit_count() == best}
    return parent, found
