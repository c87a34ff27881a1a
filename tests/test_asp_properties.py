"""Randomized cross-checks of the stable-model kernel against the oracle.

The oracle in tests/oracles.py re-implements the reduct/minimality
definitions from scratch over plain sets, so set-equality on hundreds of
seeded random programs is strong evidence the bitmask kernel computes the
same semantics.
"""

import random

from xresp import GroundProgram, WeakConstraint, stable_models

from oracles import (
    oracle_min_violation_models,
    oracle_minimal_models,
    oracle_stable_models,
    random_positive_program,
    random_program,
)

N_PROGRAMS = 200
SEED = 20260814


def test_stable_models_match_definitional_oracle():
    rng = random.Random(SEED)
    nonempty = 0
    for _ in range(N_PROGRAMS):
        program = random_program(rng)
        got = set(stable_models(program))
        expected = oracle_stable_models(program)
        assert got == expected
        if got:
            nonempty += 1
    # the generator must exercise the interesting cases, not just UNSAT ones
    assert nonempty > N_PROGRAMS // 2


def test_stable_models_are_pairwise_incomparable():
    rng = random.Random(SEED + 1)
    for _ in range(N_PROGRAMS):
        models = stable_models(random_program(rng))
        for left in models:
            for right in models:
                if left is not right:
                    assert not left < right


def test_positive_programs_stable_equals_minimal():
    rng = random.Random(SEED + 2)
    for _ in range(N_PROGRAMS):
        program = random_positive_program(rng)
        got = set(stable_models(program))
        assert got == oracle_minimal_models(program)
        assert got == oracle_stable_models(program)


def test_weak_constraint_selection_matches_oracle():
    rng = random.Random(SEED + 3)
    for _ in range(N_PROGRAMS):
        base = random_program(rng)
        atoms = sorted(base.atoms)
        weak = []
        for _ in range(rng.randint(1, 2)):
            pos = frozenset(rng.sample(atoms, rng.randint(1, 2)))
            rest = [a for a in atoms if a not in pos]
            neg = frozenset(rng.sample(rest, rng.randint(0, min(1, len(rest)))))
            weak.append(WeakConstraint(pos=pos, neg=neg))
        program = GroundProgram(atoms=base.atoms, rules=base.rules, weak=tuple(weak))
        assert set(stable_models(program)) == oracle_min_violation_models(program)
