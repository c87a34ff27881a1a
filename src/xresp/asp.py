"""A tiny kernel for ground disjunctive logic programs.

Rules have the shape ``a1 v a2 :- b1, b2, not c1.`` over propositional
atoms; an empty head (``:- body.``) is a hard constraint and ``:~ body.``
is a weak constraint.  ``%`` starts a comment anywhere on a line, as in
every input format.  ``stable_models`` is the one semantic routine, and it
works from first principles:

1. the reduct of a program w.r.t. a candidate atom set S deletes every rule
   whose negative body intersects S and strips the negative literals from
   the survivors;
2. S is stable iff S is a minimal model of its own reduct (for a
   negation-free program, the reduct is the program itself, so its stable
   models are its minimal models);
3. if weak constraints are present, only stable models violating the fewest
   of them are kept.

A depth-first search branches on one atom at a time and propagates each
partial assignment first: a rule whose body holds forces its last open head
atom, and an atom no rule can still support is forced false.  A total
assignment that survives is kept exactly when it meets 2.  The Herbrand base
is capped at 20 atoms, which only the XRESP_ASP_ATOM_CAP environment
variable overrides.
"""

from __future__ import annotations

import os
import re

from . import _lines, _Record

DEFAULT_ATOM_CAP = 20
ATOM_CAP_ENV = "XRESP_ASP_ATOM_CAP"

_ATOM_RE = re.compile(r"^[a-z_][A-Za-z0-9_]*$")
_HEAD_SPLIT_RE = re.compile(r"\s+v\s+")


class ProgramSyntaxError(ValueError):
    """Malformed program text; message carries the line number."""


class EnumerationCapError(ValueError):
    """Herbrand base larger than the atom cap."""


class Rule(_Record):
    head: frozenset[str]  # empty head = hard constraint
    pos: frozenset[str]
    neg: frozenset[str]


class WeakConstraint(_Record):
    pos: frozenset[str]
    neg: frozenset[str]


class GroundProgram(_Record):
    atoms: frozenset[str]
    rules: tuple[Rule, ...]
    weak: tuple[WeakConstraint, ...] = ()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_program(text: str) -> GroundProgram:
    """Parse program text read by ``xresp._lines``; a statement ends with
    ``.`` on the line where it starts."""
    rules: list[Rule] = []
    weak: list[WeakConstraint] = []

    for lineno, line in _lines(text):
        if not line.endswith("."):
            raise ProgramSyntaxError(f"line {lineno}: statement must end with '.'")
        for statement in line.split("."):
            statement = statement.strip()
            if not statement:
                continue
            _parse_statement(statement, lineno, rules, weak)

    atoms: set[str] = set()
    for rule in rules:
        atoms |= rule.head | rule.pos | rule.neg
    for wc in weak:
        atoms |= wc.pos | wc.neg
    return GroundProgram(atoms=frozenset(atoms), rules=tuple(rules), weak=tuple(weak))


def _parse_statement(
    statement: str, lineno: int, rules: list[Rule], weak: list[WeakConstraint]
) -> None:
    if statement.startswith(":~"):
        pos, neg = _parse_body(statement[2:], lineno)
        weak.append(WeakConstraint(pos=pos, neg=neg))
        return
    if statement.startswith(":-"):
        pos, neg = _parse_body(statement[2:], lineno)
        rules.append(Rule(head=frozenset(), pos=pos, neg=neg))
        return
    head_text, sep, body_text = statement.partition(":-")
    head = _parse_head(head_text, lineno)
    if sep:
        pos, neg = _parse_body(body_text, lineno)
    else:
        pos = neg = frozenset()
    rules.append(Rule(head=head, pos=pos, neg=neg))


def _parse_head(text: str, lineno: int) -> frozenset[str]:
    head: set[str] = set()
    for token in _HEAD_SPLIT_RE.split(text.strip()):
        token = token.strip()
        if not _ATOM_RE.match(token):
            raise ProgramSyntaxError(f"line {lineno}: bad head atom: {token!r}")
        head.add(token)
    return frozenset(head)


def _parse_body(text: str, lineno: int) -> tuple[frozenset[str], frozenset[str]]:
    pos: set[str] = set()
    neg: set[str] = set()
    for literal in text.split(","):
        literal = literal.strip()
        if literal.startswith("not ") or literal.startswith("not\t"):
            atom = literal[4:].strip()
            bucket = neg
        else:
            atom = literal
            bucket = pos
        if not _ATOM_RE.match(atom):
            raise ProgramSyntaxError(f"line {lineno}: bad body literal: {literal!r}")
        bucket.add(atom)
    return frozenset(pos), frozenset(neg)


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def _check_cap(program: GroundProgram) -> None:
    env = os.environ.get(ATOM_CAP_ENV)
    limit = DEFAULT_ATOM_CAP
    if env is not None:
        try:
            limit = int(env)
        except ValueError as exc:
            raise ValueError(f"{ATOM_CAP_ENV} must be an integer, got {env!r}") from exc
    if len(program.atoms) > limit:
        raise EnumerationCapError(
            f"Herbrand base has {len(program.atoms)} atoms; the stable-model "
            f"search is capped at {limit} (set {ATOM_CAP_ENV} to raise it)"
        )


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _propagate(true: int, false: int, rules: list, atoms: int) -> tuple[int, int] | None:
    """The fixpoint of both propagation rules, or None if the branch fails.

    A rule whose body holds and whose head has no true atom forces its one
    open head atom and fails with none.  A rule supports a head atom while
    its body is not false and no other head atom is true.  Every atom of a
    stable model has such a rule, or dropping the atom would leave a model
    of the reduct.
    """
    while True:
        supported = forced = 0
        for head, pos, neg in rules:
            if pos & false or neg & true:
                continue
            held = head & true
            if not held:
                supported |= head
                if pos & true == pos and neg & false == neg:
                    open_ = head & ~false
                    if not open_:
                        return None
                    if not open_ & (open_ - 1):
                        forced |= open_
            elif not held & (held - 1):
                supported |= held
        unsupported = atoms & ~supported
        if unsupported & true:
            return None
        if not (forced & ~true or unsupported & ~false):
            return true, false
        true |= forced
        false |= unsupported


def _is_minimal(model: int, rules: list) -> bool:
    """Whether no model of the reduct lies inside ``model`` minus one atom.

    Each search grows a set from empty by a head atom of a violated rule, so
    every model inside its bound contains a set the search reaches.
    """
    reduct = [(head & model, pos) for head, pos, neg in rules
              if not neg & model and pos & model == pos]
    for dropped in _bits(model):
        stack, seen = [0], {0}
        while stack:
            current = stack.pop()
            for head, pos in reduct:
                if pos & current == pos and not head & current:
                    grown = {current | bit for bit in _bits(head & ~dropped)} - seen
                    seen |= grown
                    stack.extend(grown)
                    break
            else:
                return False
    return True


def stable_models(program: GroundProgram) -> tuple[frozenset[str], ...]:
    """All stable models; with weak constraints, only minimum-violation ones.

    A negation-free program is its own reduct, so its stable models are its
    minimal models.  The cap comes from ``XRESP_ASP_ATOM_CAP`` (default 20).
    """
    _check_cap(program)
    order = sorted(program.atoms)
    bit = {atom: 1 << i for i, atom in enumerate(order)}

    def mask_of(atoms: frozenset[str]) -> int:
        return sum(bit[atom] for atom in atoms)

    rule_masks = [
        (mask_of(r.head), mask_of(r.pos), mask_of(r.neg)) for r in program.rules
    ]
    weak_pairs = [(mask_of(w.pos), mask_of(w.neg)) for w in program.weak]
    every_atom = (1 << len(order)) - 1

    # each branch fixes the lowest unassigned atom, so no total assignment
    # is reached twice
    stable_masks: list[int] = []
    stack = [(0, 0)]
    while stack:
        state = _propagate(*stack.pop(), rule_masks, every_atom)
        if state is None:
            continue
        true, false = state
        unassigned = every_atom & ~(true | false)
        if unassigned:
            lowest = unassigned & -unassigned
            stack.append((true, false | lowest))
            stack.append((true | lowest, false))
        elif _is_minimal(true, rule_masks):
            stable_masks.append(true)

    if program.weak and stable_masks:
        def violations(mask: int) -> int:
            return sum(
                1 for pos, neg in weak_pairs if pos & mask == pos and neg & mask == 0
            )
        best = min(violations(m) for m in stable_masks)
        stable_masks = [m for m in stable_masks if violations(m) == best]

    models = [frozenset(a for a in order if bit[a] & m) for m in stable_masks]
    return tuple(sorted(models, key=lambda model: tuple(sorted(model))))
