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
  (dependency-propagated values included).

The search runs level by level: a state at depth k differs from the
original in exactly k intervened free features, plus whatever dependency
targets propagation overwrote, so every version found at depth k changes at
least k features.  A minimum-change search therefore stops before the first
depth that exceeds the fewest changes found so far.  The truncation is
exact: a level is built only from the levels before it (their frontier and
the ``seen`` set), so every level the truncated search runs equals the
full search's.  Stopping at the first depth holding a flip would not be
exact: a dependency can give a shallower version as many changed features
as a deeper one, or more.

Every feature changed in a version is a cause; the remaining changed
features form its contingency set, and the inverse responsibility of the
explanation is the total number of changes.  The x-Resp score of a feature
is the reciprocal of its minimum inverse responsibility, or 0 when the
feature is changed in no version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .constraints import ConstraintSet, admits, empty_constraints, propagate
from .naive_bayes import DEFAULT_MAXINT, NaiveBayesModel, PercentModel
from .schema import Entity, FeatureSchema, validate_values


@dataclass(frozen=True)
class CounterfactualVersion:
    """A label-flipping variant of the original entity.

    ``states`` runs from the original tuple to ``final``; consecutive states
    differ in one intervened feature plus whatever dependency propagation
    then overwrote.
    """

    eid: str
    final: tuple[str, ...]
    changed: frozenset[str]
    states: tuple[tuple[str, ...], ...]
    label: str


@dataclass(frozen=True)
class Explanation:
    """A cause feature value with its contingency set.

    ``inv_resp`` is always ``len(contingency) + 1``; the witnessing version
    is carried for reporting but ignored by equality so explanation sets
    deduplicate by content.
    """

    eid: str
    cause_feature: str
    cause_value: str
    contingency: frozenset[str]
    inv_resp: int
    witness: CounterfactualVersion = field(compare=False)

    def __post_init__(self) -> None:
        if self.cause_feature in self.contingency:
            raise ValueError("cause feature cannot appear in its own contingency")
        if self.inv_resp != len(self.contingency) + 1:
            raise ValueError("inv_resp must equal |contingency| + 1")


@dataclass(frozen=True)
class ResponsibilityReport:
    """Per-feature x-Resp scores plus one minimum-contingency witness each."""

    scores: Mapping[str, Fraction]
    witnesses: Mapping[str, CounterfactualVersion]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_counterfactuals(
    model: NaiveBayesModel | PercentModel,
    entity: Entity,
    constraints: ConstraintSet | None = None,
    *,
    strict: bool = False,
    maxint: int = DEFAULT_MAXINT,
    min_change: bool = False,
) -> tuple[CounterfactualVersion, ...]:
    """All label-flipping entities reachable by admissible interventions.

    Each step changes one feature, each feature at most once, and chains
    only continue from states that keep the original label; a state
    whose label flips is terminal and becomes a version.  Pass a
    PercentModel to classify with the staged integer pipeline (the default
    pairing) or a NaiveBayesModel for exact rationals.

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
    cs = constraints if constraints is not None else empty_constraints(schema)
    if cs.schema != schema:
        raise ValueError("constraint set was built against a different schema")
    original = tuple(entity.values)
    original_label = model.classify(original, maxint)[0]
    if strict:
        if original_label != model.labels[0]:
            return ()
        if not admits(cs, original):
            return ()

    blocked = cs.immutable | cs.dependency_targets
    free_features = [
        (i, dom)
        for i, (name, dom) in enumerate(schema.features)
        if name not in blocked
    ]

    seen: set[tuple[str, ...]] = {original}
    found: list[CounterfactualVersion] = []
    # each frontier entry is the chain of states from the original to its tip
    frontier: list[tuple[tuple[str, ...], ...]] = [(original,)]
    # the fewest changed features of any version found so far; no version
    # changes more than every feature
    best = len(schema)
    depth = 0

    while frontier and not (min_change and depth >= best):
        next_frontier: list[tuple[tuple[str, ...], ...]] = []
        for chain in frontier:
            state = chain[-1]
            for index, domain in free_features:
                # each feature is intervened at most once: once a value
                # differs from the original it is settled for the chain
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
                        version = _version(entity.eid, successor_chain,
                                           successor_label, schema)
                        found.append(version)
                        best = min(best, len(version.changed))
                    else:
                        next_frontier.append(successor_chain)
        frontier = next_frontier
        depth += 1

    if min_change:
        return min_change_versions(found)
    return tuple(sorted(found, key=lambda v: (len(v.changed), v.final)))


def _version(
    eid: str,
    states: tuple[tuple[str, ...], ...],
    label: str,
    schema: FeatureSchema,
) -> CounterfactualVersion:
    changed = frozenset(
        name
        for name, old, new in zip(schema.names, states[0], states[-1])
        if old != new
    )
    return CounterfactualVersion(
        eid=eid, final=states[-1], changed=changed, states=states, label=label
    )


def min_change_versions(
    versions: Iterable[CounterfactualVersion],
) -> tuple[CounterfactualVersion, ...]:
    """The versions with the fewest changed features; empty input stays empty."""
    pool = list(versions)
    if not pool:
        return ()
    best = min(len(v.changed) for v in pool)
    return tuple(
        sorted(
            (v for v in pool if len(v.changed) == best),
            key=lambda v: (len(v.changed), v.final),
        )
    )


# ---------------------------------------------------------------------------
# Explanations and scores
# ---------------------------------------------------------------------------


def explanations_of(
    versions: Iterable[CounterfactualVersion],
    original: Entity,
    schema: FeatureSchema,
) -> tuple[Explanation, ...]:
    """One explanation per (version, changed feature), deduplicated by content.

    The cause keeps the feature's original value; the contingency is the
    version's remaining changed features.  A single-change version yields
    the empty contingency.
    """
    seen: dict[tuple, Explanation] = {}
    for version in versions:
        for cause in version.changed:
            contingency = frozenset(version.changed - {cause})
            key = (version.eid, cause, contingency)
            if key in seen:
                continue
            seen[key] = Explanation(
                eid=version.eid,
                cause_feature=cause,
                cause_value=original.values[schema.index(cause)],
                contingency=contingency,
                inv_resp=len(version.changed),
                witness=version,
            )
    return tuple(
        sorted(
            seen.values(),
            key=lambda ex: (ex.cause_feature, ex.inv_resp, sorted(ex.contingency)),
        )
    )


def xresp(
    explanations: Iterable[Explanation], schema: FeatureSchema
) -> ResponsibilityReport:
    """Per-feature score 1/(minimum inv_resp), or 0 for features never changed."""
    best: dict[str, Explanation] = {}
    for ex in explanations:
        current = best.get(ex.cause_feature)
        if current is None or ex.inv_resp < current.inv_resp:
            best[ex.cause_feature] = ex

    scores: dict[str, Fraction] = {}
    witnesses: dict[str, CounterfactualVersion] = {}
    for name in schema.names:
        if name in best:
            scores[name] = Fraction(1, best[name].inv_resp)
            witnesses[name] = best[name].witness
        else:
            scores[name] = Fraction(0)
    return ResponsibilityReport(scores=scores, witnesses=witnesses)
