"""Randomized cross-checks of the stable-model kernel against the oracle.

The kernel searches partial assignments with propagation and checks each
total one for minimality; the oracle in tests/oracles.py instead tries every
subset against the reduct/minimality definitions over plain sets, so
agreement on hundreds of seeded random programs is strong evidence that the
search neither loses nor invents a model.  The wide programs let bodies
mention their own heads (self-supporting and self-defeating rules), which is
where the propagation's support rule has to stay sound.
"""

import random

from xresp import GroundProgram, WeakConstraint, stable_models

from oracles import (
    oracle_min_violation_models,
    oracle_minimal_models,
    oracle_stable_models,
    random_positive_program,
    random_program,
    random_wide_program,
)

N_PROGRAMS = 200
N_WIDE_PROGRAMS = 300
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


def test_wide_programs_match_the_oracle_in_order():
    rng = random.Random(SEED + 4)
    nonempty = several = weighed = 0
    for _ in range(N_WIDE_PROGRAMS):
        program = random_wide_program(rng)
        got = stable_models(program)
        if program.weak:
            expected = oracle_min_violation_models(program)
            stable = stable_models(GroundProgram(atoms=program.atoms, rules=program.rules))
            weighed += len(got) < len(stable)
        else:
            expected = stable = oracle_stable_models(program)
        # the kernel sorts its models by their sorted atoms
        assert list(got) == sorted(expected, key=lambda model: tuple(sorted(model)))
        nonempty += bool(stable)
        several += len(stable) > 1
    # satisfiable, multi-model and weak-filtered programs must all occur
    assert nonempty > N_WIDE_PROGRAMS // 2
    assert several > N_WIDE_PROGRAMS // 10
    assert weighed > N_WIDE_PROGRAMS // 60
