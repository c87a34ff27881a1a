"""Emit the counterfactual-intervention program as DLV-Complex text.

The generated program is self-contained: domain facts, the original entity
(annotation ``o``), percentage facts, staged-arithmetic probability rules,
transition and classification rules, a disjunctive intervention rule driven
by per-feature chosen/diffchoice predicates, the stop rule, the
explanation/contingency/responsibility machinery over set terms, the rules
of the domain knowledge given, and optional weak constraints minimizing the
number of changed features.

Naming is derived from the schema: each feature contributes a predicate
suffix (its shortest unique lowercase prefix: ``p_o_c``, ``dom_o`` for
``Outlook``) and a body variable (the suffix uppercased, lengthened when it
would collide with the reserved rule variables or a staged percentage
``P1``, ``P2``, ...; a name such as ``p1`` that is itself a staged
percentage gets ``P1f`` instead).  Feature names themselves appear
lowercased as constants, e.g. ``expl(E,humidity,H)``.  Names,
values, labels and entity ids are written as they are: the schema, model
and entity refused any text that is not a DLV constant when they were built
(see ``schema``).

``parse_facts`` recovers the percent model and entity from emitted text, so
emit -> parse -> emit is a fixed point.
"""

from __future__ import annotations

import re
import textwrap
from typing import TYPE_CHECKING

from . import _lines, _Record
from .naive_bayes import DEFAULT_MAXINT, PercentModel
from .schema import Entity, FeatureSchema, validate_values

if TYPE_CHECKING:
    from .constraints import ConstraintSet


class EmitError(ValueError):
    """Schema cannot be rendered (e.g. indistinguishable feature names)."""


class FactParseError(ValueError):
    """Emitted-fact text cannot be parsed back."""


# Variables with fixed roles in the generated rules; feature variables must
# not collide with these, nor with the staged percentages P1, P2, ...
_RESERVED_VARS = {"E", "V", "D", "F", "U", "X", "Z", "I", "Co", "S", "M", "R"}
_STAGED_PERCENT_RE = re.compile(r"P[0-9]+")


class EmitterOptions(_Record):
    """Whether to append the weak constraints, and the ``#maxint`` to declare."""

    include_weak_constraints: bool = False
    maxint: int = DEFAULT_MAXINT

    def __post_init__(self) -> None:
        if self.maxint < 1:
            raise EmitError("maxint must be >= 1")


class _FeatureNames(_Record):
    name: str        # lowercased constant, e.g. "humidity"
    suffix: str      # predicate suffix, e.g. "h"
    var: str         # body variable, e.g. "H"
    var_p: str       # its primed twin, e.g. "Hp"


def _unique_prefixes(names: list[str]) -> list[str]:
    """Shortest prefix of each name that is unique among all names."""
    prefixes = []
    for name in names:
        for length in range(1, len(name) + 1):
            if sum(1 for other in names if other.startswith(name[:length])) == 1:
                prefixes.append(name[:length])
                break
        else:
            colliders = sorted(n for n in names if n.startswith(name) and n != name)
            raise EmitError(
                f"feature name {name!r} cannot be disambiguated from: "
                f"{', '.join(colliders)}"
            )
    return prefixes


def _feature_names(schema: FeatureSchema) -> list[_FeatureNames]:
    lowered = [name.lower() for name in schema.names]
    prefixes = _unique_prefixes(lowered)

    taken = set(_RESERVED_VARS)
    out: list[_FeatureNames] = []
    for name, prefix in zip(lowered, prefixes):
        for length in range(len(prefix), len(name) + 1):
            var = name[:length].upper()
            staged = _STAGED_PERCENT_RE.fullmatch(var)
            if not staged and var not in taken and var + "p" not in taken:
                break
        else:
            if not staged:
                raise EmitError(f"cannot derive a distinct variable for {name!r}")
            # the whole name reads as a staged percentage: suffix it instead
            # (every other variable is upper case, or that plus p: none clashes)
            var += "f"
        taken.add(var)
        taken.add(var + "p")
        out.append(_FeatureNames(name=name, suffix=prefix, var=var, var_p=var + "p"))
    return out


def _stage_vars(count: int, features: list[_FeatureNames]) -> list[str]:
    """Accumulator letters for the staged probability rules (A, B, C, ...)."""
    used = set(_RESERVED_VARS) | {f.var for f in features} | {f.var_p for f in features}
    letters = [c for c in "ABCDFGHIJKLMNOPQRSTUWXYZ" if c not in used]
    if count > len(letters):
        raise EmitError("schema has too many features for staged rule naming")
    return letters[:count]


def _wrap(statement: str) -> str:
    return textwrap.fill(
        statement, width=78, subsequent_indent="    ", break_long_words=False,
        break_on_hyphens=False,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

# Causes, contingency sets and responsibility: the same text for every schema.
_CONTINGENCY_RULES = """\
cause(E,U) :- expl(E,U,X).
cauCont(E,U,I) :- expl(E,U,X), expl(E,I,Z), U != I.
preCont(E,U,{I}) :- cauCont(E,U,I).
preCont(E,U,#union(Co,{I})) :- cauCont(E,U,I), preCont(E,U,Co), not
    #member(I,Co).
cont(E,U,Co) :- preCont(E,U,Co), not HoleIn(E,U,Co).
HoleIn(E,U,Co) :- preCont(E,U,Co), cauCont(E,U,I), not #member(I,Co).
tmpCont(E,U) :- cont(E,U,Co), not #card(Co,0).
cont(E,U,{}) :- cause(E,U), not tmpCont(E,U).

invResp(E,U,R) :- cont(E,U,S), #card(S,M), R = M+1, #int(R).

fullExpl(E,U,R,S) :- expl(E,U,X), cont(E,U,S), invResp(E,U,R)."""


def emit_cip(
    pmodel: PercentModel,
    entity: Entity,
    constraints: ConstraintSet | None = None,
    options: EmitterOptions | None = None,
) -> str:
    """Render the complete program for one entity as DLV-Complex text.

    Every constraint is compiled in, as rules or as a blocked intervention.
    With every feature blocked, the intervention rule has no disjuncts and
    is a constraint, so the program has no answer set, as the search finds
    no version.  A constraint set built against another schema raises
    EmitError.
    """
    opts = options or EmitterOptions()
    schema = pmodel.schema
    cs = constraints
    forbidden, dependencies, blocked = ((), (), frozenset()) if cs is None else (
        cs.forbidden, cs.dependencies, cs.immutable | cs.dependency_targets)
    validate_values(schema, entity.values)
    if cs is not None and cs.schema != schema:
        raise EmitError("constraint set was built against a different schema")
    if len(schema) < 2:
        raise EmitError("emitting needs at least two features")
    features = _feature_names(schema)
    positive, negative = pmodel.labels

    blocks = [f"#include<ListAndSet>\n#maxint = {opts.maxint}."]

    # --- facts ------------------------------------------------------------
    dom_lines = []
    for feat, (_, domain) in zip(features, schema.features):
        dom_lines.append(" ".join(f"dom_{feat.suffix}({v})." for v in domain))
    blocks.append("\n".join(dom_lines))

    blocks.append(f"entSchema({','.join(f.name for f in features)}).")
    blocks.append(f"ent({entity.eid},{','.join(entity.values)},o).")
    blocks.append(" ".join(f"p({l}, {pmodel.prior[l]})." for l in pmodel.labels))

    for feat, (name, domain) in zip(features, schema.features):
        lines = []
        for label in pmodel.labels:
            lines.append(
                " ".join(
                    f"p_{feat.suffix}_c({v}, {label}, "
                    f"{pmodel.conditional[(name, v, label)]})."
                    for v in domain
                )
            )
        blocks.append("\n".join(lines))

    # --- staged probability rules ------------------------------------------
    all_vars = ",".join(f.var for f in features)
    ent_tr = f"ent(E,{all_vars},tr)"
    stages = _stage_vars(len(features) - 1, features)

    # prob_i stages the product so far (P1 for prob_1) times feature i's factor
    first = features[0]
    prev_atom, prev_p = f"p_{first.suffix}_c({first.var}, V, P1)", "P1"
    prob_rules = []
    for i, (feat, acc) in enumerate(zip(features[1:], stages), start=1):
        acc_p = acc + "p"
        head = f"prob_{i}(E,{all_vars},V,{acc_p})"
        body = [
            ent_tr,
            prev_atom,
            f"p_{feat.suffix}_c({feat.var}, V, P{i + 1})",
            f"{acc} = {prev_p}*P{i + 1}",
            f"{acc_p} = {acc}/10",
            f"#int({acc})",
            f"#int({acc_p})",
            "p(V, D)",
        ]
        prob_rules.append(_wrap(f"{head} :- {', '.join(body)}."))
        prev_atom, prev_p = head, acc_p
    pb_body = [
        ent_tr,
        prev_atom,
        "p(V, D)",
        f"F = {prev_p}*D",
        "Fp = F/10",
        "#int(F)",
        "#int(Fp)",
    ]
    prob_rules.append(_wrap(f"pb_num(E,{all_vars},V,Fp) :- {', '.join(pb_body)}."))
    blocks.append("\n".join(prob_rules))

    # --- transition and classification --------------------------------------
    blocks.append(
        f"ent(E,{all_vars},tr) :- ent(E,{all_vars},o).\n"
        f"ent(E,{all_vars},tr) :- ent(E,{all_vars},do)."
    )
    f_pos, f_neg = f"F{positive}", f"F{negative}"
    scores = ", ".join(f"pb_num(E,{all_vars},{label},F{label})" for label in pmodel.labels)
    blocks.append("\n".join(
        _wrap(f"cls(E,{all_vars},{label}) :- {ent_tr}, {scores}, {f_pos} {op} {f_neg}.")
        for label, op in ((positive, ">="), (negative, "<"))
    ))

    # --- disjunctive intervention rule ---------------------------------------
    intervenable = [f for f, name in zip(features, schema.names) if name not in blocked]

    cls_yes = f"cls(E,{all_vars},{positive})"
    disjuncts = []
    for feat in intervenable:
        head_vars = ",".join(
            f.var_p if f is feat else f.var for f in features
        )
        disjuncts.append(f"ent(E,{head_vars},do)")
    body = [f"{f.var} != {f.var_p}" for f in intervenable]
    body += [ent_tr, cls_yes]
    body += [
        f"chosen_{f.suffix}({all_vars},{f.var_p})" for f in intervenable
    ]
    body += [f"dom_{f.suffix}({f.var_p})" for f in intervenable]
    blocks.append(_wrap(f"{' v '.join(disjuncts)} :- {', '.join(body)}.".lstrip()))

    chosen_rules = []
    for feat in intervenable:
        chosen_rules.append(
            _wrap(
                f"chosen_{feat.suffix}({all_vars},U) :- {ent_tr}, {cls_yes}, "
                f"dom_{feat.suffix}(U), U != {feat.var}, "
                f"not diffchoice_{feat.suffix}({all_vars},U)."
            )
        )
        chosen_rules.append(
            _wrap(
                f"diffchoice_{feat.suffix}({all_vars},U) :- "
                f"chosen_{feat.suffix}({all_vars},Up), U != Up, "
                f"dom_{feat.suffix}(U)."
            )
        )
    blocks.append("\n".join(chosen_rules))

    blocks.append(f":- ent(E,{all_vars},do), ent(E,{all_vars},o).")
    blocks.append(
        f"ent(E,{all_vars},s) :- ent(E,{all_vars},do), cls(E,{all_vars},{negative})."
    )
    blocks.append(f":- ent(E,{all_vars},o), not entAux(E).")
    blocks.append(f"entAux(E) :- ent(E,{all_vars},s).")

    # --- explanations, contingencies, responsibility -------------------------
    primed_vars = ",".join(f.var_p for f in features)
    ent_o = f"ent(E,{all_vars},o)"
    ent_s = f"ent(E,{primed_vars},s)"
    # feature f differs between o and s: the expl body and the weak constraint
    changes = [f"{ent_o}, {ent_s}, {f.var} != {f.var_p}" for f in features]
    blocks.append("\n".join(
        _wrap(f"expl(E,{f.name},{f.var}) :- {change}.")
        for f, change in zip(features, changes)
    ))

    blocks.append(_CONTINGENCY_RULES)

    # --- domain knowledge -----------------------------------------------------
    knowledge = [
        f":- ent(E,{','.join(combo.get(name, '_') for name in schema.names)},tr)."
        for combo in forbidden
    ]
    for dep in dependencies:
        target = schema.index(dep.target)
        for sval in schema.domain(dep.source):
            body = [
                sval if name == dep.source else f.var
                for f, name in zip(features, schema.names)
            ]
            head = body[:target] + [dep.mapping[sval]] + body[target + 1:]
            knowledge.append(f"ent(E,{','.join(head)},tr) :- ent(E,{','.join(body)},tr).")
    blocks.append("\n".join(knowledge))

    # --- weak constraints -------------------------------------------------------
    if opts.include_weak_constraints:
        blocks.append("\n".join(f":~ {change}." for change in changes))

    return "\n\n".join(block for block in blocks if block) + "\n"


# ---------------------------------------------------------------------------
# Fact recovery
# ---------------------------------------------------------------------------

_FACT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\((.*)\)$")


def _fact_statements(text: str) -> list[tuple[int, str]]:
    """Dot-terminated statements with their starting line numbers.

    ``#include`` lines are dropped; rules and weak constraints are skipped
    (facts only); wrapped rule bodies therefore never masquerade as facts.
    """
    statements: list[tuple[int, str]] = []
    current: list[str] = []
    start_line = 1
    for lineno, line in _lines(text):
        if line.startswith("#include"):
            continue
        for ch in line:
            if not current:
                start_line = lineno
            if ch == ".":
                statement = "".join(current).strip()
                if statement:
                    statements.append((start_line, statement))
                current = []
            else:
                current.append(ch)
    leftover = "".join(current).strip()
    if leftover:
        raise FactParseError(f"line {start_line}: unterminated statement: {leftover!r}")
    return [
        (lineno, stmt)
        for lineno, stmt in statements
        if ":-" not in stmt and ":~" not in stmt and not stmt.startswith("#maxint")
    ]


def parse_facts(text: str) -> tuple[PercentModel, Entity]:
    """Recover the percent model and o-annotated entity from emitted text."""
    dom: dict[str, list[str]] = {}
    schema_names: list[str] | None = None
    entity: tuple[str, tuple[str, ...]] | None = None
    priors: list[tuple[str, int]] = []
    cond: dict[tuple[str, str, str], int] = {}  # (suffix, value, label) -> pct
    suffixed: dict[str, tuple[int, str]] = {}  # suffix -> (line, predicate) of its first fact

    for lineno, statement in _fact_statements(text):
        match = _FACT_RE.match(re.sub(r"\s+", "", statement))
        if not match:
            raise FactParseError(f"line {lineno}: not a fact: {statement!r}")
        pred, arg_text = match.groups()
        args = arg_text.split(",") if arg_text else []
        try:
            if pred.startswith("dom_"):
                dom.setdefault(pred[4:], []).append(args[0])
                suffixed.setdefault(pred[4:], (lineno, pred))
            elif pred == "entSchema":
                if schema_names is not None:
                    raise FactParseError(f"line {lineno}: repeated entSchema fact")
                schema_names = args
            elif pred == "ent":
                if args[-1] == "o":
                    if entity is not None:
                        raise FactParseError(
                            f"line {lineno}: repeated o-annotated ent fact"
                        )
                    entity = (args[0], tuple(args[1:-1]))
            elif pred == "p":
                priors.append((args[0], int(args[1])))
            elif pred.startswith("p_") and pred.endswith("_c"):
                key = (pred[2:-2], args[0], args[1])
                if key in cond:
                    raise FactParseError(
                        f"line {lineno}: repeated {pred} fact for {args[0]},{args[1]}"
                    )
                cond[key] = int(args[2])
                suffixed.setdefault(key[0], (lineno, pred))
            else:
                raise FactParseError(
                    f"line {lineno}: unrecognized fact predicate {pred!r}"
                )
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FactParseError):
                raise
            raise FactParseError(
                f"line {lineno}: malformed fact: {statement!r}"
            ) from exc

    if schema_names is None:
        raise FactParseError("missing entSchema fact")
    if entity is None:
        raise FactParseError("missing o-annotated ent fact")
    if len(priors) != 2:
        raise FactParseError(f"expected 2 prior facts, found {len(priors)}")

    suffixes = _unique_prefixes(schema_names)
    for suffix, (lineno, pred) in suffixed.items():
        if suffix not in suffixes:
            raise FactParseError(f"line {lineno}: {pred} names no feature of entSchema")
    features = []
    for name, suffix in zip(schema_names, suffixes):
        if suffix not in dom:
            raise FactParseError(f"missing dom_{suffix} facts for feature {name}")
        features.append((name, tuple(dom[suffix])))
    schema = FeatureSchema(tuple(features))

    labels = (priors[0][0], priors[1][0])
    conditional: dict[tuple[str, str, str], int] = {}
    for (suffix, value, label), pct in cond.items():
        name = schema_names[suffixes.index(suffix)]
        conditional[(name, value, label)] = pct

    pmodel = PercentModel(
        schema=schema,
        labels=labels,
        prior={label: pct for label, pct in priors},
        conditional=conditional,
    )
    eid, values = entity
    validate_values(schema, values)
    return pmodel, Entity(eid=eid, values=values)
