"""The benchmark's four workloads: their invocation pools and run cycles.

A *pool* is every invocation a workload can run, with the input files they
read.  ``record.py`` ran each pool invocation once on the seed commit and
stored its stdout digest and wall time in ``expected.json``.

A run repeats one *cycle*: for each dataset, the pool entity with the
lowest recorded cost in that workload, in an order drawn from the run's
seed.  The entity set is fixed rather than drawn per seed because an
invocation's cost depends strongly on its entity (by 10-25% within the
cheapest quarter of a pool) while a run of the expensive workloads holds
only 10 to 15 invocations, too few to average that out: seed-drawn
entities made two seeds' medians differ by more than any useful regression
bound.  For the same reason a cycle is short, three to eight invocations,
so that a run measures each one several times; and the entities
are the cheapest, so that each invocation still spends most of its time
in the layer its workload targets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import gen

WORKLOADS = ("explain", "query", "min_change", "solve")
# Entities a cycle takes from each dataset, per workload; the cheapest first.
EXPLAIN_ENTITIES = {"8x3": 1, "6x5": 1, "9x3": 1}
QUERY_ENTITIES = {"8x3": 1, "6x5": 1, "9x3": 1}
MIN_CHANGE_ENTITIES = {"9x3": 1, "10x3": 1}
EMIT_ENTITIES = {"8x3": 1, "6x5": 1, "9x3": 1}
SOLVE_PROGRAMS = 1  # per atom count


@dataclass(frozen=True)
class Invocation:
    key: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Pool:
    datasets: tuple[str, ...]  # shape names; set-up trains <shape>.csv -> <shape>.model
    files: dict[str, str]  # work-dir file name -> content
    invocations: dict[str, Invocation]

    def write_files(self, work) -> None:
        """Write every input file into the directory ``work``."""
        for name, text in self.files.items():
            (work / name).write_text(text, encoding="utf-8")

    def digest(self) -> str:
        """Digest of every input and argument list, to detect a stale record."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(f"{name}\0{self.files[name]}\0".encode())
        for key in sorted(self.invocations):
            h.update(f"{key}\0{chr(1).join(self.invocations[key].argv)}\0".encode())
        return h.hexdigest()


def _maxint_args(shape: tuple[int, int], classifier: str) -> tuple[str, ...]:
    maxint = gen.needed_maxint(shape[0])
    if classifier != "staged" or maxint is None:
        return ()
    return ("--maxint", str(maxint))


def entity_key(workload: str, shape: str, i: int, variant: str) -> str:
    return f"{workload}/{shape}/e{i:02d}/{variant}"


def pool(workload: str) -> Pool:
    files: dict[str, str] = {}
    invocations: dict[str, Invocation] = {}

    def add(key: str, *argv: str) -> None:
        invocations[key] = Invocation(key, tuple(argv))

    shapes = gen.MIN_CHANGE_SHAPES if workload == "min_change" else gen.STAGED_SHAPES
    for shape in shapes:
        name = gen.shape_name(shape)
        schema, csv_text = gen.dataset(shape, 0)
        files[f"{name}.csv"] = csv_text
        classifier = "exact" if workload == "min_change" else "staged"
        extra = _maxint_args(shape, classifier)
        if workload == "query":
            files[f"{name}.q"] = gen.query_text(schema)
        if workload == "min_change":
            files[f"{name}.mcq"] = gen.min_change_query_text(schema)
        for i, values in enumerate(gen.entities(schema, 0)):
            base = ("--model", f"{name}.model", "--entity", ",".join(values), *extra)
            cons = f"{name}-e{i:02d}.cons"
            if workload in ("explain", "solve"):
                files[cons] = gen.constraints_text(schema, i)
            if workload == "explain":
                add(entity_key(workload, name, i, "plain"), "explain", *base)
                add(entity_key(workload, name, i, "constrained"),
                    "explain", *base, "--constraints", cons)
            elif workload == "query":
                for semantics in ("brave", "cautious"):
                    add(entity_key(workload, name, i, semantics),
                        "query", *base, "--queries", f"{name}.q", f"--{semantics}")
            elif workload == "min_change":
                exact = ("--classifier", "exact", "--min-change")
                add(entity_key(workload, name, i, "counterfactuals"),
                    "counterfactuals", *base, *exact)
                add(entity_key(workload, name, i, "query"),
                    "query", *base, *exact, "--queries", f"{name}.mcq", "--brave")
            else:
                add(entity_key("emit", name, i, "plain"), "emit-dlv", *base)
                add(entity_key("emit", name, i, "constrained"),
                    "emit-dlv", *base, "--constraints", cons, "--weak")
    if workload == "solve":
        for n_atoms in gen.PROGRAM_SIZES:
            for j in range(gen.POOL_PROGRAMS):
                program = f"p{n_atoms}-{j}.lp"
                files[program] = gen.ground_program(n_atoms, j)
                add(f"solve/{n_atoms}/p{j}", "solve-asp", program)
    datasets = tuple(gen.shape_name(s) for s in shapes)
    return Pool(datasets, files, invocations)


# ---------------------------------------------------------------------------
# Run plans
# ---------------------------------------------------------------------------


def _cheapest(costs: dict[str, float], workload: str, shape: str, count: int) -> list[int]:
    """The ``count`` entities of ``shape`` with the lowest recorded cost in ``workload``."""
    totals = [0.0] * gen.POOL_ENTITIES
    prefix = f"{workload}/{shape}/e"
    for key, cost in costs.items():
        if key.startswith(prefix):
            totals[int(key[len(prefix):len(prefix) + 2])] += cost
    return sorted(range(gen.POOL_ENTITIES), key=lambda i: (totals[i], i))[:count]


def cycle(workload: str, seed: int, costs: dict[str, float]) -> list[str]:
    """The invocation keys one cycle of a run with ``seed`` runs, in order."""
    keys: list[str] = []
    if workload == "explain":
        for shape, count in EXPLAIN_ENTITIES.items():
            for i in _cheapest(costs, workload, shape, count):
                keys += [entity_key(workload, shape, i, v) for v in ("plain", "constrained")]
    elif workload == "query":
        for shape, count in QUERY_ENTITIES.items():
            for i in _cheapest(costs, workload, shape, count):
                semantics = ("brave", "cautious")[len(keys) % 2]
                keys.append(entity_key(workload, shape, i, semantics))
    elif workload == "min_change":
        for shape, count in MIN_CHANGE_ENTITIES.items():
            for i in _cheapest(costs, workload, shape, count):
                keys += [entity_key(workload, shape, i, v) for v in ("counterfactuals", "query")]
    else:
        for n_atoms in gen.PROGRAM_SIZES:
            programs = [f"solve/{n_atoms}/p{j}" for j in range(gen.POOL_PROGRAMS)]
            keys += sorted(programs, key=lambda k: (costs[k], k))[:SOLVE_PROGRAMS]
        for n, (shape, count) in enumerate(EMIT_ENTITIES.items()):
            for i in _cheapest(costs, "emit", shape, count):
                keys.append(entity_key("emit", shape, i, ("plain", "constrained")[n % 2]))
    random.Random(seed).shuffle(keys)
    return keys

