"""A fixed pure-Python job that measures how fast the machine is right now.

``run.py`` spawns it between consecutive measured invocations, the same
way it spawns ``xresp``, and divides each invocation's CPU time by the
mean CPU time of the runs of this job just before and just after it.  The
job imports nothing from the package under test and never changes, so a
slower program raises the ratio while a slower machine raises both times
alike.  Its work mimics the program's: interpreter start-up, a few
standard-library imports, then exact fractions, dictionaries, sets,
sorting and a breadth-first search over tuples.  It prints one checksum, which
``run.py`` compares with ``CHECKSUM``.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

CHECKSUM = "0002625f"  # what main() prints; run.py fails a run on any other output
ROUNDS = 10


@dataclass(frozen=True)
class Row:
    key: tuple[int, ...]
    weight: Fraction


def _table(rng: random.Random) -> list[Row]:
    text = io.StringIO()
    writer = csv.writer(text)
    for _ in range(300):
        writer.writerow([rng.randrange(4) for _ in range(6)] + [rng.randrange(1, 50)])
    pattern = re.compile(r"^[0-9,]+$")
    rows = []
    for fields in csv.reader(io.StringIO(text.getvalue())):
        assert pattern.match(",".join(fields))
        *key, weight = map(int, fields)
        rows.append(Row(tuple(key), Fraction(weight, 7)))
    return rows


def _search(start: tuple[int, ...], limit: int) -> int:
    seen = {start}
    queue = deque([start])
    while queue and len(seen) < limit:
        state = queue.popleft()
        for i, j in itertools.combinations(range(len(state)), 2):
            nxt = list(state)
            nxt[i], nxt[j] = nxt[j], nxt[i]
            t = tuple(nxt)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen)


def work() -> int:
    rng = random.Random(20240607)
    acc = 0
    for _ in range(ROUNDS):
        rows = _table(rng)
        totals: dict[tuple[int, ...], Fraction] = {}
        for row in rows:
            totals[row.key[:3]] = totals.get(row.key[:3], Fraction(0)) + row.weight
        best = sorted(totals.items(), key=lambda kv: (kv[1], kv[0]))
        acc += sum(int(v * 100) for _, v in best[:20])
        acc += _search(tuple(range(7)), 1500)
    return acc


def main() -> None:
    print(f"{work() & 0xFFFFFFFF:08x}")


if __name__ == "__main__":
    main()
