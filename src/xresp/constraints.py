"""Domain knowledge for the counterfactual search.

Three kinds of constraints restrict which intervened entities are
admissible:

* forbidden combinations — partial assignments that no intermediate or
  final search state may match (the original entity is exempt unless the
  engine runs in strict mode);
* functional dependencies — a target feature's value is overwritten from a
  source feature's value after every intervention, and free interventions
  on the target are disabled;
* immutable features — never intervened at all.

The search applies them to integer cell codes (``engine._Grid``).
"""

from __future__ import annotations

from typing import Mapping

from . import _lines, _read, _Record
from .schema import FeatureSchema


class ConstraintError(ValueError):
    """Constraint references unknown features/values or is self-contradictory."""


class Dependency(_Record):
    source: str
    target: str
    mapping: Mapping[str, str]  # total over the source domain


class ConstraintSet(_Record):
    schema: FeatureSchema
    forbidden: tuple[Mapping[str, str], ...] = ()
    dependencies: tuple[Dependency, ...] = ()
    immutable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        names = set(self.schema.names)
        for combo in self.forbidden:
            if not combo:
                raise ConstraintError("forbidden combination needs at least one binding")
            for name, value in combo.items():
                if name not in names:
                    raise ConstraintError(f"forbidden combination: unknown feature {name}")
                if value not in self.schema.domain(name):
                    raise ConstraintError(
                        f"forbidden combination: {value!r} not in domain of {name}"
                    )
        source_of: dict[str, str] = {}
        for dep in self.dependencies:
            if dep.source not in names or dep.target not in names:
                raise ConstraintError(
                    f"dependency {dep.source} -> {dep.target}: unknown feature"
                )
            if dep.source == dep.target:
                raise ConstraintError(f"dependency on itself: {dep.source}")
            src_dom = set(self.schema.domain(dep.source))
            if set(dep.mapping) != src_dom:
                raise ConstraintError(
                    f"dependency {dep.source} -> {dep.target} must map every "
                    f"source value; got {sorted(dep.mapping)} vs {sorted(src_dom)}"
                )
            tgt_dom = self.schema.domain(dep.target)
            for sval, tval in dep.mapping.items():
                if tval not in tgt_dom:
                    raise ConstraintError(
                        f"dependency {dep.source} -> {dep.target}: image {tval!r} "
                        f"not in domain of {dep.target}"
                    )
            if dep.target in source_of:
                raise ConstraintError(f"{dep.target} is the target of two dependencies")
            source_of[dep.target] = dep.source
        for name in self.immutable:
            if name not in names:
                raise ConstraintError(f"immutable: unknown feature {name}")
        clash = source_of.keys() & self.immutable
        if clash:
            raise ConstraintError(
                f"feature(s) both dependency target and immutable: {', '.join(sorted(clash))}"
            )
        # every target has one source, so walking up from a target on a cycle
        # returns to it within len(source_of) steps
        for target in source_of:
            node = source_of[target]
            for _ in source_of:
                if node == target:
                    raise ConstraintError(f"cyclic dependencies involving {target}")
                node = source_of.get(node)

    @property
    def dependency_targets(self) -> frozenset[str]:
        return frozenset(dep.target for dep in self.dependencies)


# ---------------------------------------------------------------------------
# Constraints file format
# ---------------------------------------------------------------------------
#
#   % comment
#   forbid Temperature=high, Wind=strong
#   depend Temperature -> Humidity: high->normal, medium->high, low->high
#   immutable Outlook   % a comment may end any line
#
# Lines are read by the package's one rule (``xresp._lines``), and a file's
# leading byte-order mark is skipped (``xresp._read``).


def parse_constraints(text: str, schema: FeatureSchema) -> ConstraintSet:
    forbidden: list[dict[str, str]] = []
    dependencies: list[Dependency] = []
    immutable: set[str] = set()

    for lineno, line in _lines(text):
        if line.startswith("forbid "):
            combo: dict[str, str] = {}
            for part in line[len("forbid "):].split(","):
                if "=" not in part:
                    raise ConstraintError(
                        f"line {lineno}: expected Feature=value, got {part.strip()!r}"
                    )
                name, value = map(str.strip, part.split("=", 1))
                if name in combo:
                    raise ConstraintError(f"line {lineno}: feature {name} is bound twice")
                combo[name] = value
            forbidden.append(combo)
        elif line.startswith("depend "):
            head, _, mapping_text = line[len("depend "):].partition(":")
            if "->" not in head or not mapping_text.strip():
                raise ConstraintError(
                    f"line {lineno}: expected 'depend Src -> Tgt: v->w, ...'"
                )
            source, _, target = head.partition("->")
            mapping: dict[str, str] = {}
            for part in mapping_text.split(","):
                if "->" not in part:
                    raise ConstraintError(
                        f"line {lineno}: expected v->w, got {part.strip()!r}"
                    )
                sval, tval = map(str.strip, part.split("->", 1))
                if sval in mapping:
                    raise ConstraintError(f"line {lineno}: source value {sval} is mapped twice")
                mapping[sval] = tval
            dependencies.append(
                Dependency(source=source.strip(), target=target.strip(), mapping=mapping)
            )
        elif line.startswith("immutable "):
            immutable.add(line[len("immutable "):].strip())
        else:
            raise ConstraintError(f"line {lineno}: unrecognized directive: {line!r}")

    return ConstraintSet(
        schema=schema,
        forbidden=tuple(forbidden),
        dependencies=tuple(dependencies),
        immutable=frozenset(immutable),
    )


def load_constraints(path: str, schema: FeatureSchema) -> ConstraintSet:
    return parse_constraints(_read(path), schema)
