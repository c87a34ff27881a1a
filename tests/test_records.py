"""Result and syntax types are immutable records.

Each record compares equal to a record of the same class with equal
fields, hashes like it, prints as ``Type(field=value, ...)`` and refuses
assignment.  The pinned ``repr`` strings were recorded before the records
stopped being dataclasses, so the change of base shows in no output.
"""

from fractions import Fraction as F

import pytest

from xresp import (
    ConstraintSet, CounterfactualVersion, Dataset, DEFAULT_MAXINT, Dependency,
    EmitterOptions, Entity, Explanation, FeatureSchema, GroundProgram,
    ModelAtomSet, NaiveBayesModel, PercentModel, ResponsibilityReport, Rule,
    WeakConstraint,
)
from xresp.queries import (
    Anonymous, AtomPattern, Comparison, Constant, Query, Variable,
)

SCHEMA = FeatureSchema((("A", ("x", "y")), ("B", ("u", "v"))))
CONDITIONAL = {
    (name, value, label): share
    for name, value, shares in (("A", "x", (1, 3)), ("A", "y", (3, 1)),
                                ("B", "u", (2, 2)), ("B", "v", (2, 2)))
    for label, share in zip(("yes", "no"), shares)
}
RULE = Rule(frozenset({"a"}), frozenset(), frozenset({"b"}))
ATOM = AtomPattern("ent", (Variable("E"), Anonymous(), Constant(1, "01")))

# type -> (field names, one record's field values)
RECORDS = {
    FeatureSchema: (("features",), (SCHEMA.features,)),
    Entity: (("eid", "values"), ("e", ("x", "u"))),
    Dataset: (("schema", "rows", "labels", "class_column"),
              (SCHEMA, ((("x", "u"), "yes"),), ("yes", "no"), "label")),
    NaiveBayesModel: (
        ("schema", "labels", "prior", "conditional"),
        (SCHEMA, ("yes", "no"), {"yes": F(1, 2), "no": F(1, 2)},
         {key: F(share, 4) for key, share in CONDITIONAL.items()}),
    ),
    PercentModel: (
        ("schema", "labels", "prior", "conditional"),
        (SCHEMA, ("yes", "no"), {"yes": 50, "no": 50},
         {key: 25 * share for key, share in CONDITIONAL.items()}),
    ),
    Dependency: (("source", "target", "mapping"), ("A", "B", {"x": "u", "y": "v"})),
    ConstraintSet: (
        ("schema", "forbidden", "dependencies", "immutable"),
        (SCHEMA, ({"A": "y"},), (), frozenset({"B"})),
    ),
    CounterfactualVersion: (
        ("eid", "changed", "states"),
        ("e", frozenset({"A"}), (("x", "u"), ("y", "u"))),
    ),
    Explanation: (("eid", "cause_feature", "cause_value", "contingency"),
                  ("e", "A", "x", frozenset({"B"}))),
    ResponsibilityReport: (("scores",), ({"A": F(1, 2), "B": F(0)},)),
    ModelAtomSet: (("atoms",), ({"cause": frozenset({("e", "a")})},)),
    EmitterOptions: (("include_weak_constraints", "maxint"), (True, 500)),
    Rule: (("head", "pos", "neg"), (frozenset({"a"}), frozenset(), frozenset({"b"}))),
    WeakConstraint: (("pos", "neg"), (frozenset({"a"}), frozenset())),
    GroundProgram: (("atoms", "rules", "weak"),
                    (frozenset({"a"}), (RULE,), (WeakConstraint(frozenset(), frozenset({"a"})),))),
    Variable: (("name",), ("E",)),
    Anonymous: ((), ()),
    Constant: (("value", "spelling"), (7, "007")),
    AtomPattern: (("predicate", "args"), ("ent", ATOM.args)),
    Comparison: (("op", "left", "right"), ("<", Variable("R"), Constant(2))),
    Query: (("text", "atoms", "comparisons"),
            ("ent(E,_,1), R < 2", (ATOM,), (Comparison("<", Variable("R"), Constant(2)),))),
}

# dict-valued fields are unhashable, so hashing these records fails as before
UNHASHABLE = {NaiveBayesModel, PercentModel, Dependency, ConstraintSet,
              ResponsibilityReport, ModelAtomSet}

REPRS = {
    "FeatureSchema": (
        "FeatureSchema(features=(('A', ('x', 'y')), ('B', ('u', 'v'))))"
    ),
    "Entity": (
        "Entity(eid='e', values=('x', 'u'))"
    ),
    "Dataset": (
        "Dataset(schema=FeatureSchema(features=(('A', ('x', 'y')), ('B', ('u', "
        "'v')))), rows=((('x', 'u'), 'yes'),), labels=('yes', 'no'), "
        "class_column='label')"
    ),
    "NaiveBayesModel": (
        "NaiveBayesModel(schema=FeatureSchema(features=(('A', ('x', 'y')), ('B', "
        "('u', 'v')))), labels=('yes', 'no'), prior={'yes': Fraction(1, 2), "
        "'no': Fraction(1, 2)}, conditional={('A', 'x', 'yes'): Fraction(1, 4), "
        "('A', 'x', 'no'): Fraction(3, 4), ('A', 'y', 'yes'): Fraction(3, 4), "
        "('A', 'y', 'no'): Fraction(1, 4), ('B', 'u', 'yes'): Fraction(1, 2), "
        "('B', 'u', 'no'): Fraction(1, 2), ('B', 'v', 'yes'): Fraction(1, 2), "
        "('B', 'v', 'no'): Fraction(1, 2)})"
    ),
    "PercentModel": (
        "PercentModel(schema=FeatureSchema(features=(('A', ('x', 'y')), ('B', "
        "('u', 'v')))), labels=('yes', 'no'), prior={'yes': 50, 'no': 50}, "
        "conditional={('A', 'x', 'yes'): 25, ('A', 'x', 'no'): 75, ('A', 'y', "
        "'yes'): 75, ('A', 'y', 'no'): 25, ('B', 'u', 'yes'): 50, ('B', 'u', "
        "'no'): 50, ('B', 'v', 'yes'): 50, ('B', 'v', 'no'): 50})"
    ),
    "Dependency": (
        "Dependency(source='A', target='B', mapping={'x': 'u', 'y': 'v'})"
    ),
    "ConstraintSet": (
        "ConstraintSet(schema=FeatureSchema(features=(('A', ('x', 'y')), ('B', "
        "('u', 'v')))), forbidden=({'A': 'y'},), dependencies=(), "
        "immutable=frozenset({'B'}))"
    ),
    "CounterfactualVersion": (
        "CounterfactualVersion(eid='e', changed=frozenset({'A'}), states=(('x', "
        "'u'), ('y', 'u')))"
    ),
    "Explanation": (
        "Explanation(eid='e', cause_feature='A', cause_value='x', "
        "contingency=frozenset({'B'}))"
    ),
    "ResponsibilityReport": (
        "ResponsibilityReport(scores={'A': Fraction(1, 2), 'B': Fraction(0, 1)})"
    ),
    "ModelAtomSet": (
        "ModelAtomSet(atoms={'cause': frozenset({('e', 'a')})})"
    ),
    "EmitterOptions": (
        'EmitterOptions(include_weak_constraints=True, maxint=500)'
    ),
    "Rule": (
        "Rule(head=frozenset({'a'}), pos=frozenset(), neg=frozenset({'b'}))"
    ),
    "WeakConstraint": (
        "WeakConstraint(pos=frozenset({'a'}), neg=frozenset())"
    ),
    "GroundProgram": (
        "GroundProgram(atoms=frozenset({'a'}), "
        "rules=(Rule(head=frozenset({'a'}), pos=frozenset(), "
        "neg=frozenset({'b'})),), weak=(WeakConstraint(pos=frozenset(), "
        "neg=frozenset({'a'})),))"
    ),
    "Variable": (
        "Variable(name='E')"
    ),
    "Anonymous": (
        'Anonymous()'
    ),
    "Constant": (
        "Constant(value=7, spelling='007')"
    ),
    "AtomPattern": (
        "AtomPattern(predicate='ent', args=(Variable(name='E'), "
        "Anonymous(), Constant(value=1, spelling='01')))"
    ),
    "Comparison": (
        "Comparison(op='<', left=Variable(name='R'), right=Constant(value=2, "
        'spelling=None))'
    ),
    "Query": (
        "Query(text='ent(E,_,1), R < 2', atoms=(AtomPattern(predicate='ent', "
        "args=(Variable(name='E'), Anonymous(), Constant(value=1, "
        "spelling='01'))),), comparisons=(Comparison(op='<', "
        "left=Variable(name='R'), right=Constant(value=2, spelling=None)),))"
    ),
}

CASES = list(RECORDS.items())
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls, case", CASES, ids=IDS)
def test_repr_is_pinned(cls, case):
    _, values = case
    assert repr(cls(*values)) == REPRS[cls.__name__]


@pytest.mark.parametrize("cls, case", CASES, ids=IDS)
def test_equal_fields_give_equal_records(cls, case):
    names, values = case
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert not record != cls(*values)
    assert [getattr(record, name) for name in names] == list(values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values))
        assert {record, cls(*values)} == {record}


@pytest.mark.parametrize("cls, case", CASES, ids=IDS)
def test_another_class_with_the_same_fields_is_not_equal(cls, case):
    _, values = case
    other = type("Other", (cls,), {})
    assert cls(*values) != other(*values)
    assert other(*values) != cls(*values)
    assert cls(*values) != values


@pytest.mark.parametrize("cls, case", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, case):
    names, values = case
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, case", CASES, ids=IDS)
def test_a_missing_or_unknown_argument_is_a_type_error(cls, case):
    _, values = case
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    # every EmitterOptions field has a default, and Anonymous has none
    if cls not in (EmitterOptions, Anonymous):
        with pytest.raises(TypeError):
            cls()


def test_an_integer_constant_compares_by_value_not_by_spelling():
    assert Constant(1, spelling="1") == Constant(1, spelling="01")
    assert hash(Constant(1, spelling="1")) == hash(Constant(1, spelling="01"))
    assert Constant(1) != Constant("1")
    assert repr(Constant(1, spelling="01")) == "Constant(value=1, spelling='01')"


def test_schema_names_are_derived_and_not_printed():
    assert SCHEMA.names == ("A", "B")
    assert "names" not in repr(SCHEMA)
    assert SCHEMA == FeatureSchema(SCHEMA.features)


def test_defaults_hold():
    empty = ConstraintSet(SCHEMA)
    assert (empty.forbidden, empty.dependencies, empty.immutable) == ((), (), frozenset())
    assert Dataset(SCHEMA, (), ("yes", "no")).class_column == "class"
    assert EmitterOptions() == EmitterOptions(False, DEFAULT_MAXINT)
    assert GroundProgram(frozenset(), ()).weak == ()


def test_validation_runs_after_every_field_is_set():
    message = "^cause feature cannot appear in its own contingency$"
    with pytest.raises(ValueError, match=message):
        Explanation("e", "A", "x", frozenset({"A"}))
