"""Independent definition-checking oracles and random generators for tests.

Everything here is deliberately written from the definitions, without
reusing the package's algorithms, so agreement is meaningful: the score
oracle multiplies a label's prior and conditionals as Fractions (exact) or
folds its percentages by hand (staged); the stable
model oracle enumerates subsets and applies the reduct/minimal-model
definitions over plain sets; the strict actual-cause oracle searches all
contingency assignments directly and ignores path reachability; ``admits``
and ``propagate`` apply constraints to value tuples, and the per-state
search builds, propagates and classifies every state as a value tuple with
them, the way the search did before it read integer cell codes; the random
generators produce small ground programs and datasets from a seeded Random
instance.  The query oracles materialize a version's atoms eagerly, straight
from its recorded states, and answer a query by trying every combination of
one tuple per atom in every model.  ``_build_parser`` builds the CLI's
command line with argparse, the reference for the CLI's own option table.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction
from itertools import combinations, product

from xresp import (
    DEFAULT_MAXINT,
    ConstraintError,
    ConstraintSet,
    CounterfactualVersion,
    Entity,
    Explanation,
    FeatureSchema,
    GroundProgram,
    PercentModel,
    QueryError,
    Rule,
    WeakConstraint,
)
from xresp.cli import (
    _MAXINT_DEFAULT_HELP,
    _cmd_classify,
    _cmd_counterfactuals,
    _cmd_emit,
    _cmd_explain,
    _cmd_query,
    _cmd_solve,
    _cmd_train,
)
from xresp.queries import Constant, Variable
from xresp.schema import validate_values

# ---------------------------------------------------------------------------
# Classifier scores
# ---------------------------------------------------------------------------


def oracle_scores(model, values: tuple[str, ...]) -> tuple:
    """``(label, positive score, negative score)`` from the definition.

    Exact: each label's prior times the product of its conditionals, as
    Fractions.  Staged: the label's percentages folded by hand in schema
    order, ``// 10`` after every product, the prior last; no ceiling is
    checked.  Ties go to the positive label.
    """
    scores = []
    for label in model.labels:
        factors = [model.conditional[(name, value, label)]
                   for (name, _), value in zip(model.schema.features, values)]
        factors.append(model.prior[label])
        if isinstance(model, PercentModel):
            score = factors[0]
            for factor in factors[1:]:
                score = score * factor // 10
        else:
            score = Fraction(1)
            for factor in factors:
                score *= factor
        scores.append(score)
    label = model.labels[0] if scores[0] >= scores[1] else model.labels[1]
    return (label, *scores)


# ---------------------------------------------------------------------------
# Definitional stable-model oracle
# ---------------------------------------------------------------------------


def oracle_satisfies(rules, candidate: frozenset[str]) -> bool:
    for head, pos, neg in rules:
        if pos <= candidate and not (neg & candidate):
            if not (head & candidate):
                return False
    return True


def oracle_stable_models(program: GroundProgram) -> set[frozenset[str]]:
    """All stable models by brute force over every subset of the atoms."""
    atoms = sorted(program.atoms)
    rules = [(set(r.head), set(r.pos), set(r.neg)) for r in program.rules]

    stable: set[frozenset[str]] = set()
    for size in range(len(atoms) + 1):
        for chosen in combinations(atoms, size):
            candidate = frozenset(chosen)
            reduct_rules = [
                (head, pos, set())
                for head, pos, neg in rules
                if not (neg & candidate)
            ]
            if not oracle_satisfies(reduct_rules, candidate):
                continue
            if any(
                oracle_satisfies(reduct_rules, frozenset(sub))
                for k in range(len(candidate))
                for sub in combinations(sorted(candidate), k)
            ):
                continue
            stable.add(candidate)
    return stable


def oracle_minimal_models(program: GroundProgram) -> set[frozenset[str]]:
    """Subset-minimal models of a negation-free program, by brute force."""
    assert all(not r.neg for r in program.rules), "negation-free programs only"
    atoms = sorted(program.atoms)
    rules = [(set(r.head), set(r.pos), set()) for r in program.rules]
    models = [
        frozenset(chosen)
        for size in range(len(atoms) + 1)
        for chosen in combinations(atoms, size)
        if oracle_satisfies(rules, frozenset(chosen))
    ]
    return {m for m in models if not any(other < m for other in models)}


def oracle_min_violation_models(program: GroundProgram) -> set[frozenset[str]]:
    """Stable models filtered to minimum weak-constraint violation count."""
    stable = oracle_stable_models(program)
    if not stable or not program.weak:
        return stable

    def violations(candidate: frozenset[str]) -> int:
        return sum(
            1
            for wc in program.weak
            if wc.pos <= candidate and not (wc.neg & candidate)
        )

    best = min(violations(s) for s in stable)
    return {s for s in stable if violations(s) == best}


# ---------------------------------------------------------------------------
# Tuple-level constraint semantics
# ---------------------------------------------------------------------------


def empty_constraints(schema: FeatureSchema) -> ConstraintSet:
    return ConstraintSet(schema=schema)


def admits(constraints: ConstraintSet, values: tuple[str, ...]) -> bool:
    """False iff some forbidden partial assignment is fully matched."""
    schema = constraints.schema
    for combo in constraints.forbidden:
        if all(values[schema.index(name)] == value for name, value in combo.items()):
            return False
    return True


def propagate(constraints: ConstraintSet, values: tuple[str, ...]) -> tuple[str, ...]:
    """Overwrite dependency targets from their sources, to a fixed point.

    Dependencies are applied in declaration order; passes repeat until the
    values stop changing, which acyclicity guarantees after at most one
    pass per dependency.
    """
    if not constraints.dependencies:
        return values
    schema = constraints.schema
    current = list(values)
    for _ in range(len(constraints.dependencies) + 1):
        changed = False
        for dep in constraints.dependencies:
            src_value = current[schema.index(dep.source)]
            image = dep.mapping[src_value]
            tgt_index = schema.index(dep.target)
            if current[tgt_index] != image:
                current[tgt_index] = image
                changed = True
        if not changed:
            return tuple(current)
    raise ConstraintError("dependency propagation did not converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# Per-state reference search
# ---------------------------------------------------------------------------


def oracle_versions(
    model,
    entity: Entity,
    constraints=None,
    *,
    strict: bool = False,
    maxint: int = DEFAULT_MAXINT,
    min_change: bool = False,
) -> tuple[CounterfactualVersion, ...]:
    """``enumerate_counterfactuals`` as a breadth-first search over value tuples.

    Every state is built as a tuple, propagated and checked with
    ``propagate`` and ``admits`` above, and classified with ``model.classify``
    when it is reached, in the search's order, so a staged overflow raises
    at the first state that overflows.  Chains are carried whole.
    """
    schema = model.schema
    validate_values(schema, entity.values)
    cs = constraints if constraints is not None else empty_constraints(schema)
    if cs.schema != schema:
        raise ValueError("constraint set was built against a different schema")
    original = tuple(entity.values)
    # strict admissibility discards an inadmissible original unclassified
    if strict and not admits(cs, original):
        return ()
    original_label = model.classify(original, maxint)[0]
    if strict and original_label != model.labels[0]:
        return ()

    blocked = cs.immutable | cs.dependency_targets
    free_features = [
        (i, dom)
        for i, (name, dom) in enumerate(schema.features)
        if name not in blocked
    ]

    seen: set[tuple[str, ...]] = {original}
    found: list[CounterfactualVersion] = []
    frontier: list[tuple[tuple[str, ...], ...]] = [(original,)]
    best = len(schema)
    depth = 0

    while frontier and not (min_change and depth >= best):
        next_frontier: list[tuple[tuple[str, ...], ...]] = []
        for chain in frontier:
            state = chain[-1]
            for index, domain in free_features:
                if state[index] != original[index]:
                    continue
                for new_value in domain:
                    if new_value == state[index]:
                        continue
                    candidate = list(state)
                    candidate[index] = new_value
                    successor = propagate(cs, tuple(candidate))
                    if successor == original or successor in seen:
                        continue
                    if not admits(cs, successor):
                        continue
                    seen.add(successor)
                    successor_chain = chain + (successor,)
                    successor_label = model.classify(successor, maxint)[0]
                    if successor_label != original_label:
                        changed = frozenset(
                            name
                            for name, old, new in zip(schema.names, original, successor)
                            if old != new
                        )
                        found.append(CounterfactualVersion(
                            eid=entity.eid, changed=changed, states=successor_chain,
                        ))
                        best = min(best, len(changed))
                    else:
                        next_frontier.append(successor_chain)
        frontier = next_frontier
        depth += 1

    if min_change:
        found = [v for v in found if len(v.changed) == best]
    return tuple(sorted(found, key=lambda v: (len(v.changed), v.final)))


def oracle_explanations(versions, entity: Entity, schema: FeatureSchema) -> set[Explanation]:
    """The explanations of the definition: every feature a version changes
    is a cause with its original value, and the version's other changed
    features are its contingency."""
    return {
        Explanation(version.eid, cause, entity.values[schema.index(cause)],
                    version.changed - {cause})
        for version in versions
        for cause in version.changed
    }


# ---------------------------------------------------------------------------
# Brute-force oracle for the strict actual-cause definition
# ---------------------------------------------------------------------------


def strict_actual_cause(
    model,
    entity: Entity,
    feature: str,
    *,
    maxint: int = DEFAULT_MAXINT,
) -> tuple[bool, int | None]:
    """Direct search over contingency sets, ignoring path reachability.

    The feature's value x is an actual cause with contingency Y (new values
    Y') when changing Y alone preserves the original label while
    additionally changing x flips it.  Returns whether any (x', Y, Y')
    works and the minimum |Y| that does.  Contingency values are only drawn
    from non-original values: keeping a feature at its original value is
    the same as leaving it out of Y, so minimal sizes are unaffected.
    """
    schema = model.schema
    validate_values(schema, entity.values)

    def label_of(values: tuple[str, ...]) -> str:
        return model.classify(values, maxint)[0]

    feature_index = schema.index(feature)

    original = tuple(entity.values)
    original_label = label_of(original)
    x_alternatives = [
        v for v in schema.domain(feature) if v != original[feature_index]
    ]
    others = [
        (i, dom)
        for i, (name, dom) in enumerate(schema.features)
        if name != feature
    ]

    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            value_choices = [
                [v for v in dom if v != original[i]] for i, dom in combo
            ]
            for assignment in product(*value_choices):
                contingent = list(original)
                for (i, _), value in zip(combo, assignment):
                    contingent[i] = value
                if label_of(tuple(contingent)) != original_label:
                    continue
                for x_new in x_alternatives:
                    flipped = list(contingent)
                    flipped[feature_index] = x_new
                    if label_of(tuple(flipped)) != original_label:
                        return True, size
    return False, None


# ---------------------------------------------------------------------------
# Eager atom sets and brute-force query answers
# ---------------------------------------------------------------------------


def oracle_atoms_of(
    version,
    model,
    original: Entity,
    *,
    maxint: int = DEFAULT_MAXINT,
) -> dict[str, frozenset[tuple]]:
    """Every predicate of one version's model, built at once."""
    schema = model.schema
    eid = version.eid
    lower = {name: name.lower() for name in schema.names}
    states = version.states

    atoms: dict[str, set[tuple]] = {
        "ent": set(), "cls": set(), "expl": set(), "cause": set(),
        "cont": set(), "invResp": set(), "fullExpl": set(),
    }
    if isinstance(model, PercentModel):
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

    return {pred: frozenset(tuples) for pred, tuples in atoms.items()}


def _oracle_equal(term, value) -> bool:
    """A constant equals a value it was written as: ``1`` is 1 and "1"."""
    return value == term.value or value == term.spelling


def _oracle_comparison(cmp, binding) -> bool:
    left, right = cmp.left, cmp.right
    if cmp.op in ("=", "!="):
        if isinstance(left, Constant) and isinstance(right, Constant):
            equal = _oracle_equal(left, right.value) or _oracle_equal(right, left.value)
        elif isinstance(left, Constant):
            equal = _oracle_equal(left, binding[right.name])
        elif isinstance(right, Constant):
            equal = _oracle_equal(right, binding[left.name])
        else:
            equal = binding[left.name] == binding[right.name]
        return equal if cmp.op == "=" else not equal
    a, b = (
        side.value if isinstance(side, Constant) else binding[side.name]
        for side in (left, right)
    )
    if not isinstance(a, int) or not isinstance(b, int):
        raise QueryError("ordered comparison needs integer operands")
    return a < b if cmp.op == "<" else a <= b


def oracle_answer(query, models, semantics: str) -> set[tuple]:
    """Answer rows from the definition, as a set.

    In each model, every way to pick one tuple per query atom is a
    candidate.  It matches when each constant equals its tuple value, each
    variable takes one value throughout, and every comparison holds; it
    then echoes the value at every non-constant position.  Brave answers
    are the union of the models' rows, cautious answers the intersection.
    """
    per_model = []
    for model in models:
        rows = set()
        tables = [
            [t for t in model.tuples(p.predicate) if len(t) == len(p.args)]
            for p in query.atoms
        ]
        for picked in product(*tables):
            binding: dict[str, object] = {}
            echo = []
            matches = True
            for pattern, atom in zip(query.atoms, picked):
                for term, value in zip(pattern.args, atom):
                    if isinstance(term, Constant):
                        matches = matches and _oracle_equal(term, value)
                        continue
                    echo.append(value)
                    if isinstance(term, Variable):
                        matches = matches and binding.setdefault(term.name, value) == value
            if matches and all(_oracle_comparison(c, binding) for c in query.comparisons):
                rows.add(tuple(echo))
        per_model.append(rows)
    if not per_model:
        return set()
    if semantics == "brave":
        return set().union(*per_model)
    return set.intersection(*per_model)


# ---------------------------------------------------------------------------
# Random ground programs
# ---------------------------------------------------------------------------


def random_program(rng: random.Random) -> GroundProgram:
    """A small ground disjunctive program with negation (no weak constraints)."""
    n_atoms = rng.randint(2, 8)
    atoms = [f"a{i}" for i in range(n_atoms)]
    n_rules = rng.randint(1, 6)

    rules = []
    for _ in range(n_rules):
        head = frozenset(rng.sample(atoms, rng.randint(0, min(2, n_atoms))))
        rest = [a for a in atoms if a not in head]
        rng.shuffle(rest)
        n_pos = rng.randint(0, min(2, len(rest)))
        pos = frozenset(rest[:n_pos])
        n_neg = rng.randint(0, min(2, len(rest) - n_pos))
        neg = frozenset(rest[n_pos : n_pos + n_neg])
        rules.append(Rule(head=head, pos=pos, neg=neg))
    # a few facts so programs are not trivially empty
    for _ in range(rng.randint(0, 2)):
        rules.append(Rule(head=frozenset({rng.choice(atoms)}), pos=frozenset(), neg=frozenset()))

    return GroundProgram(atoms=frozenset(atoms), rules=tuple(rules), weak=())


def random_wide_program(rng: random.Random) -> GroundProgram:
    """A ground program of up to 10 atoms whose bodies may use head atoms.

    Unlike ``random_program``, a body may mention its own head (``a :- a.``,
    ``a :- not a.``, ``a v b :- a.``), some atoms never occur in a head,
    constraints are drawn on purpose, and weak constraints may be present.
    """
    n_atoms = rng.randint(1, 10)
    atoms = [f"a{i}" for i in range(n_atoms)]
    heads = atoms[: rng.randint(1, n_atoms)]  # the rest occur only in bodies

    def literals(k: int) -> frozenset[str]:
        return frozenset(rng.sample(atoms, rng.randint(0, min(k, n_atoms))))

    rules = []
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.15:
            head = frozenset()
        else:
            head = frozenset(rng.sample(heads, rng.randint(1, min(3, len(heads)))))
        rules.append(Rule(head=head, pos=literals(2), neg=literals(2)))
    weak = tuple(
        WeakConstraint(pos=literals(2), neg=literals(1))
        for _ in range(rng.randint(0, 2))
    )
    return GroundProgram(atoms=frozenset(atoms), rules=tuple(rules), weak=weak)


def random_positive_program(rng: random.Random) -> GroundProgram:
    program = random_program(rng)
    rules = tuple(
        Rule(head=r.head, pos=r.pos, neg=frozenset()) for r in program.rules
    )
    return GroundProgram(atoms=program.atoms, rules=rules, weak=())


# ---------------------------------------------------------------------------
# Random classification instances
# ---------------------------------------------------------------------------

_VALUE_POOL = ["red", "blue", "green", "amber", "teal", "plum", "gray", "gold"]


def random_instance(rng: random.Random):
    """(csv_text, entity_values) for a random small categorical dataset."""
    n_features = rng.randint(3, 5)
    names = [f"f{i}" for i in range(n_features)]
    domains = [
        rng.sample(_VALUE_POOL, rng.randint(2, 4)) for _ in range(n_features)
    ]
    labels = ["pos", "neg"]

    # the first len(domain) rows of each column deal out the whole domain, so
    # every value occurs and first-occurrence inference keeps domain order
    rows = []
    n_rows = rng.randint(6, 20)
    for i in range(n_rows):
        values = [
            domain[i] if i < len(domain) else rng.choice(domain)
            for domain in domains
        ]
        rows.append(values + [rng.choice(labels)])
    rows[0][-1] = "pos"
    rows[1][-1] = "neg"

    header = ",".join(names + ["label"])
    csv_text = header + "\n" + "\n".join(",".join(row) for row in rows)
    entity_values = tuple(rng.choice(domain) for domain in domains)
    return csv_text, entity_values


def random_grid_entity(rng: random.Random, schema) -> tuple[str, ...]:
    return tuple(rng.choice(domain) for _, domain in schema.features)


def all_grid_tuples(schema):
    return product(*(domain for _, domain in schema.features))


# ---------------------------------------------------------------------------
# The argparse reference parser
# ---------------------------------------------------------------------------

# The CLI's command line built with argparse: the option table's parser must
# give the same values for every argument list this one accepts, and exit 2
# for every one it refuses.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xresp",
        description=(
            "Counterfactual explanations and responsibility scores for "
            "naive-Bayes classifications."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a classifier and persist it")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument(
        "--positive-label",
        help="label treated as positive (default: the majority label)",
    )
    p_train.add_argument("--out", help="model file (default: stdout)")
    p_train.set_defaults(handler=_cmd_train)

    p_classify = sub.add_parser("classify", help="classify one entity")
    _add_model_source(p_classify)
    _add_entity(p_classify)
    _add_backend_flags(p_classify)
    p_classify.set_defaults(handler=_cmd_classify)

    p_cf = sub.add_parser(
        "counterfactuals", help="enumerate label-flipping entity versions"
    )
    _add_model_source(p_cf)
    _add_entity(p_cf)
    _add_backend_flags(p_cf)
    _add_engine_flags(p_cf)
    p_cf.add_argument(
        "--min-change",
        action="store_true",
        help="keep only versions with the fewest changed features",
    )
    p_cf.set_defaults(handler=_cmd_counterfactuals)

    p_explain = sub.add_parser(
        "explain", help="responsibility scores and full explanations"
    )
    _add_model_source(p_explain)
    _add_entity(p_explain)
    _add_backend_flags(p_explain)
    _add_engine_flags(p_explain)
    p_explain.set_defaults(handler=_cmd_explain, min_change=False)

    p_query = sub.add_parser(
        "query", help="answer queries over the counterfactual models"
    )
    _add_model_source(p_query)
    _add_entity(p_query)
    _add_backend_flags(p_query)
    _add_engine_flags(p_query)
    p_query.add_argument("--queries", required=True, help="query file, one per line")
    semantics = p_query.add_mutually_exclusive_group(required=True)
    semantics.add_argument(
        "--brave",
        dest="semantics",
        action="store_const",
        const="brave",
        help="answers true in some model",
    )
    semantics.add_argument(
        "--cautious",
        dest="semantics",
        action="store_const",
        const="cautious",
        help="answers true in all models",
    )
    p_query.add_argument(
        "--min-change",
        action="store_true",
        help="query only the minimum-change models",
    )
    p_query.set_defaults(handler=_cmd_query)

    p_emit = sub.add_parser(
        "emit-dlv", help="emit the counterfactual intervention program"
    )
    _add_model_source(p_emit)
    _add_entity(p_emit)
    p_emit.add_argument("--constraints", help="domain-knowledge file")
    p_emit.add_argument(
        "--weak",
        action="store_true",
        help="append the change-minimizing weak constraints",
    )
    p_emit.add_argument(
        "--maxint",
        type=int,
        help=f"#maxint ceiling written into the program {_MAXINT_DEFAULT_HELP}",
    )
    p_emit.add_argument("--out", help="output file (default: stdout)")
    # emit-dlv always writes the staged program
    p_emit.set_defaults(handler=_cmd_emit, classifier="staged")

    p_solve = sub.add_parser(
        "solve-asp", help="stable models of a ground disjunctive program"
    )
    p_solve.add_argument("program", help="program file")
    p_solve.set_defaults(handler=_cmd_solve)

    return parser


def _add_model_source(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="training CSV (trains on the fly)")
    source.add_argument("--model", help="persisted model file")


def _add_entity(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--entity", required=True, help="comma-separated feature values"
    )
    sub.add_argument("--eid", default="e", help="entity identifier (default: e)")


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--classifier",
        choices=("staged", "exact"),
        default="staged",
        help="staged integer pipeline (default) or exact rationals",
    )
    sub.add_argument(
        "--maxint",
        type=int,
        help=f"overflow ceiling for staged products {_MAXINT_DEFAULT_HELP}",
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--constraints", help="domain-knowledge file")
    sub.add_argument(
        "--strict",
        action="store_true",
        help=(
            "positive-to-negative flips only, and forbidden combinations "
            "also apply to the original entity"
        ),
    )
