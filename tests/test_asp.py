"""Tests for the ground disjunctive stable-model kernel."""

from itertools import product

import pytest

from xresp.asp import (
    ATOM_CAP_ENV,
    DEFAULT_ATOM_CAP,
    EnumerationCapError,
    GroundProgram,
    ProgramSyntaxError,
    Rule,
    WeakConstraint,
    parse_program,
    stable_models,
)

from oracles import oracle_minimal_models, oracle_stable_models

DEMO_TEXT = """\
a v b :- c.
d :- b.
a v b :- e, not f.
e.
"""


def models_as_sets(models):
    return {tuple(sorted(m)) for m in models}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_demo_program():
    program = parse_program(DEMO_TEXT)
    assert program.atoms == frozenset({"a", "b", "c", "d", "e", "f"})
    assert len(program.rules) == 4
    assert program.weak == ()
    assert Rule(head=frozenset({"a", "b"}), pos=frozenset({"e"}),
                neg=frozenset({"f"})) in program.rules
    assert Rule(head=frozenset({"e"}), pos=frozenset(), neg=frozenset()) in program.rules


def test_parse_constraints_and_weak_constraints():
    program = parse_program(":- a, not b.\n:~ c.\n")
    assert program.rules == (
        Rule(head=frozenset(), pos=frozenset({"a"}), neg=frozenset({"b"})),
    )
    assert program.weak == (WeakConstraint(pos=frozenset({"c"}), neg=frozenset()),)
    assert program.atoms == frozenset({"a", "b", "c"})


def test_parse_multiple_statements_per_line_and_comments():
    program = parse_program("a. b :- a.  % trailing comment\n% whole-line comment\n")
    assert len(program.rules) == 2
    assert program.atoms == frozenset({"a", "b"})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a", "line 1: statement must end with '.'"),
        ("a.\nb :- X.", "line 2: bad body literal"),
        ("Foo.", "line 1: bad head atom"),
        ("a v .", "line 1: bad head atom"),
        ("a.\n\n:- b-c.", "line 3: bad body literal"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ProgramSyntaxError, match=fragment):
        parse_program(text)


# ---------------------------------------------------------------------------
# Reduct
# ---------------------------------------------------------------------------


def test_reduct_drops_blocked_rules_and_strips_negation():
    program = parse_program("a :- not b.\nb :- not a.\n")
    # for {a} the rule guarded by "not a" is dropped and the survivor is the
    # fact a; for {a, b} both rules are dropped and the empty set models the
    # reduct, so {a, b} is not minimal
    assert models_as_sets(stable_models(program)) == {("a",), ("b",)}
    assert set(stable_models(program)) == oracle_stable_models(program)


def test_reduct_of_negation_free_program_is_itself():
    # nothing is dropped or stripped: the stable models are the minimal models
    program = parse_program("a v b :- c.\nc.\n")
    assert models_as_sets(stable_models(program)) == {("a", "c"), ("b", "c")}
    assert set(stable_models(program)) == oracle_minimal_models(program)


# ---------------------------------------------------------------------------
# Positive programs: stable models are minimal models
# ---------------------------------------------------------------------------


def test_minimal_models_of_disjunctive_positive_program():
    program = parse_program("a v b.\nc :- a.\n")
    assert models_as_sets(stable_models(program)) == {("a", "c"), ("b",)}
    assert set(stable_models(program)) == oracle_minimal_models(program)


def test_minimal_models_exclude_supersets():
    program = parse_program("a v b.\n")
    assert models_as_sets(stable_models(program)) == {("a",), ("b",)}
    assert set(stable_models(program)) == oracle_minimal_models(program)


def test_negation_keeps_minimal_models_that_are_not_stable():
    # read classically, "a :- not b." is "a v b": both {a} and {b} are
    # minimal models, but nothing supports b, so only {a} is stable
    program = parse_program("a :- not b.\n")
    assert models_as_sets(stable_models(program)) == {("a",)}
    assert set(stable_models(program)) == oracle_stable_models(program)


# ---------------------------------------------------------------------------
# Stable models
# ---------------------------------------------------------------------------


def test_demo_program_has_exactly_two_stable_models():
    models = stable_models(parse_program(DEMO_TEXT))
    assert models_as_sets(models) == {("a", "e"), ("b", "d", "e")}


def test_hard_constraint_filters_stable_models():
    models = stable_models(parse_program(DEMO_TEXT + ":- a.\n"))
    assert models_as_sets(models) == {("b", "d", "e")}


def test_even_negation_loop_has_two_models():
    models = stable_models(parse_program("a :- not b.\nb :- not a.\n"))
    assert models_as_sets(models) == {("a",), ("b",)}


def test_odd_negation_loop_has_no_models():
    assert stable_models(parse_program("a :- not a.\n")) == ()


def test_self_support_is_not_stable():
    # a :- a. supports nothing: only the empty set is stable
    assert stable_models(parse_program("a :- a.\n")) == (frozenset(),)


def test_mutual_support_under_disjunction():
    program = parse_program("a v b.\na :- b.\nb :- a.\n")
    assert models_as_sets(stable_models(program)) == {("a", "b")}


def test_an_odd_loop_below_a_disjunction_kills_every_model():
    # every model holds b, so c :- b, not c. leaves no stable one.  With a
    # true, b is forced and a loses its support (a v b. has two true heads);
    # a search that kept a true past that point would treat b :- a. as
    # blocked and report {a, b}
    program = parse_program("a v b.\nb :- a.\nc :- b, not c.\n")
    assert stable_models(program) == ()
    assert oracle_stable_models(program) == set()


def test_weak_constraints_keep_minimum_violation_models():
    base = "a v b.\n"
    assert models_as_sets(stable_models(parse_program(base + ":~ a.\n"))) == {("b",)}
    # symmetric penalties keep both models
    both = stable_models(parse_program(base + ":~ a.\n:~ b.\n"))
    assert models_as_sets(both) == {("a",), ("b",)}
    # negated weak bodies count violations the same way
    negated = stable_models(parse_program(base + ":~ not a.\n"))
    assert models_as_sets(negated) == {("a",)}


def test_weak_constraints_ignored_when_no_stable_models():
    assert stable_models(parse_program("a :- not a.\n:~ a.\n")) == ()


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------


def test_brave_and_cautious_answers():
    models = stable_models(parse_program(DEMO_TEXT))

    def brave(atoms):
        return any(atoms <= model for model in models)

    def cautious(atoms):
        return all(atoms <= model for model in models)

    assert brave({"a"})
    assert not cautious({"a"})
    assert cautious({"e"})
    assert brave({"b", "d"})
    assert not brave({"a", "d"})
    assert not brave({"c"})


# ---------------------------------------------------------------------------
# Enumeration cap
# ---------------------------------------------------------------------------


def big_program(n):
    return parse_program("".join(f"x{i}.\n" for i in range(n)))


def test_default_cap_refuses_large_programs(monkeypatch):
    monkeypatch.delenv(ATOM_CAP_ENV, raising=False)
    program = big_program(DEFAULT_ATOM_CAP + 1)
    with pytest.raises(EnumerationCapError, match="capped at 20"):
        stable_models(program)
    # exactly at the cap is fine
    assert len(stable_models(big_program(DEFAULT_ATOM_CAP))) == 1


def test_cap_environment_variable(monkeypatch):
    program = big_program(DEFAULT_ATOM_CAP + 1)
    monkeypatch.setenv(ATOM_CAP_ENV, str(DEFAULT_ATOM_CAP + 1))
    (model,) = stable_models(program)
    assert len(model) == DEFAULT_ATOM_CAP + 1
    # the variable lowers the cap as well, and the refusal names it
    monkeypatch.setenv(ATOM_CAP_ENV, "5")
    with pytest.raises(EnumerationCapError, match=f"capped at 5 .*{ATOM_CAP_ENV}"):
        stable_models(program)
    monkeypatch.setenv(ATOM_CAP_ENV, "not-a-number")
    with pytest.raises(ValueError, match=ATOM_CAP_ENV):
        stable_models(program)


def test_ten_even_loops_at_the_cap_have_1024_models(monkeypatch):
    # each loop aI :- not bI. bI :- not aI. is stable with either atom alone,
    # so the 20-atom program's models are every choice of one atom per pair
    monkeypatch.delenv(ATOM_CAP_ENV, raising=False)
    program = parse_program("".join(
        f"a{i} :- not b{i}. b{i} :- not a{i}.\n" for i in range(10)
    ))
    assert len(program.atoms) == DEFAULT_ATOM_CAP
    models = stable_models(program)
    expected = {
        frozenset(f"{side}{i}" for i, side in enumerate(sides))
        for sides in product("ab", repeat=10)
    }
    assert len(models) == 1024
    assert set(models) == expected
    assert list(models) == sorted(models, key=lambda model: tuple(sorted(model)))


# ---------------------------------------------------------------------------
# Construction from data structures
# ---------------------------------------------------------------------------


def test_programs_can_be_built_without_text():
    program = GroundProgram(
        atoms=frozenset({"p", "q"}),
        rules=(Rule(head=frozenset({"p"}), pos=frozenset(), neg=frozenset({"q"})),),
    )
    assert models_as_sets(stable_models(program)) == {("p",)}
