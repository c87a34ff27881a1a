"""Seeded inputs for the xresp benchmark.

Every input is a pure function of a seed, written as a plain file that the
``xresp`` CLI reads; nothing here imports the package under test.  The
instance generator follows the idea of ``tests/oracles.py::random_instance``,
scaled up to 200 rows and with a planted noisy linear signal, so that the
classifier has a real decision boundary.  ``workloads.py`` builds each
workload's pool from these generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VALUE_POOL = (
    "red", "blue", "green", "amber", "teal", "plum", "gray", "gold",
    "ruby", "jade",
)
N_ROWS = 200
# Entities per dataset in a workload's pool.
POOL_ENTITIES = 24
# Ground programs per atom count in the pool.
POOL_PROGRAMS = 3
PROGRAM_SIZES = (14, 15, 16, 17, 18)

# (features, domain size) of the datasets each workload trains on.
STAGED_SHAPES = ((8, 3), (6, 5), (9, 3))
MIN_CHANGE_SHAPES = ((9, 3), (10, 3))
# The staged fold multiplies by a percentage (at most 100) and divides by 10
# after every factor, so with n features and the prior the last product is
# at most 10^(n+3).  Above five features that exceeds the default ceiling
# of 10^8, and on these datasets the default does overflow mid-search (at
# (8x3) and (9x3)), so staged runs pass the ceiling they need.
DEFAULT_MAXINT = 10**8


def shape_name(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


def needed_maxint(n_features: int) -> int | None:
    """The ``--maxint`` a staged run at ``n_features`` needs, or None for the default."""
    bound = 10 ** (n_features + 3)
    return bound if bound > DEFAULT_MAXINT else None


# ---------------------------------------------------------------------------
# Classification instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schema:
    names: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]


def schema_of(shape: tuple[int, int], rng: random.Random) -> Schema:
    n_features, domain_size = shape
    names = tuple(f"f{i}" for i in range(n_features))
    domains = tuple(
        tuple(rng.sample(VALUE_POOL, domain_size)) for _ in range(n_features)
    )
    return Schema(names, domains)


def dataset(shape: tuple[int, int], seed: int) -> tuple[Schema, str]:
    """A 200-row categorical CSV with labels from a noisy planted linear score."""
    rng = random.Random(f"dataset/{shape_name(shape)}/{seed}")
    schema = schema_of(shape, rng)
    weights = [
        {value: rng.gauss(0.0, 1.0) for value in domain} for domain in schema.domains
    ]
    rows = []
    for i in range(N_ROWS):
        # the first rows deal out every domain in order, so first-occurrence
        # inference recovers the domain order the generator chose
        values = [
            domain[i] if i < len(domain) else rng.choice(domain)
            for domain in schema.domains
        ]
        score = sum(w[v] for w, v in zip(weights, values)) + rng.gauss(0.0, 1.0)
        rows.append(values + ["pos" if score > 0 else "neg"])
    rows[0][-1] = "pos"
    rows[1][-1] = "neg"
    lines = [",".join(schema.names + ("label",))]
    lines.extend(",".join(row) for row in rows)
    return schema, "\n".join(lines) + "\n"


def entities(schema: Schema, seed: int, count: int = POOL_ENTITIES) -> list[tuple[str, ...]]:
    rng = random.Random(f"entities/{len(schema.names)}/{seed}")
    return [tuple(rng.choice(domain) for domain in schema.domains) for _ in range(count)]


def constraints_text(schema: Schema, seed: int) -> str:
    """One forbid, one depend and one immutable directive over distinct features."""
    rng = random.Random(f"constraints/{len(schema.names)}/{seed}")
    a, b, source, target, frozen = rng.sample(range(len(schema.names)), 5)
    names, domains = schema.names, schema.domains
    mapping = ", ".join(
        f"{value}->{rng.choice(domains[target])}" for value in domains[source]
    )
    return (
        f"forbid {names[a]}={rng.choice(domains[a])}, {names[b]}={rng.choice(domains[b])}\n"
        f"depend {names[source]} -> {names[target]}: {mapping}\n"
        f"immutable {names[frozen]}\n"
    )


def query_text(schema: Schema) -> str:
    """The four queries of the ``query`` workload, at this schema's arity."""
    free = ",".join(f"X{i}" for i in range(len(schema.names)))
    return (
        "% comparison filter\n"
        "fullExpl(E,U,R,S), R < 3?\n"
        "% lookup bound by a constant\n"
        f"invResp(e,{schema.names[0]},R)?\n"
        "% two-atom join\n"
        "cause(E,U), cont(E,U,S)?\n"
        "% wide scan\n"
        f"cls(E,{free},L)?\n"
    )


def min_change_query_text(schema: Schema) -> str:
    """Final states and change counts of the minimum-change models."""
    free = ",".join(f"X{i}" for i in range(len(schema.names)))
    return f"ent(E,{free},s)?\ninvResp(E,U,R)?\n"


# ---------------------------------------------------------------------------
# Ground disjunctive programs
# ---------------------------------------------------------------------------


def ground_program(n_atoms: int, seed: int) -> str:
    """A ground disjunctive program with negation over exactly ``n_atoms`` atoms."""
    rng = random.Random(f"program/{n_atoms}/{seed}")
    atoms = [f"a{i}" for i in range(n_atoms)]
    lines = []
    for i in range(n_atoms):
        # each atom heads one rule, so every atom occurs in the program
        head = [atoms[i]]
        if rng.random() < 0.5:
            head.append(rng.choice([a for a in atoms if a != atoms[i]]))
        rest = [a for a in atoms if a not in head]
        body = rng.sample(rest, rng.randint(0, 2))
        body += [f"not {a}" for a in rng.sample(rest, rng.randint(0, 2)) if a not in body]
        rule = " v ".join(head)
        lines.append(f"{rule} :- {', '.join(body)}." if body else f"{rule}.")
    for _ in range(rng.randint(1, 3)):
        lines.append(f":- {rng.choice(atoms)}, not {rng.choice(atoms)}.")
    return "\n".join(lines) + "\n"
