"""The public API is pinned: a name is added to or removed from it on purpose.

The public API is what the CLI, the README and the benchmark use; helpers
only tests need live in their modules or under ``tests/``.
"""

import re

import pytest

import xresp

from conftest import REPO_ROOT

EXPECTED_PUBLIC_NAMES = {
    "ATOM_CAP_ENV",
    "ConstraintError",
    "ConstraintSet",
    "CounterfactualVersion",
    "DEFAULT_ATOM_CAP",
    "DEFAULT_MAXINT",
    "DataError",
    "Dataset",
    "Dependency",
    "EmitError",
    "EmitterOptions",
    "Entity",
    "EnumerationCapError",
    "Explanation",
    "FactParseError",
    "FeatureSchema",
    "GroundProgram",
    "ModelAtomSet",
    "ModelFormatError",
    "NaiveBayesModel",
    "PercentModel",
    "ProgramSyntaxError",
    "Query",
    "QueryError",
    "ResponsibilityReport",
    "Rule",
    "SchemaError",
    "StagedOverflowError",
    "WeakConstraint",
    "answer",
    "emit_cip",
    "enumerate_counterfactuals",
    "explanations_of",
    "load_constraints",
    "load_dataset",
    "load_model",
    "load_queries",
    "min_change_versions",
    "model_atom_sets",
    "parse_entity",
    "parse_facts",
    "parse_program",
    "render_row",
    "serialize_model",
    "stable_models",
    "to_percent",
    "train",
    "xresp",
}


def test_public_names_are_pinned():
    assert len(xresp.__all__) == len(set(xresp.__all__))
    assert set(xresp.__all__) == EXPECTED_PUBLIC_NAMES
    for name in xresp.__all__:
        assert hasattr(xresp, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from xresp import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(xresp.__all__)


def test_dir_lists_the_public_names():
    assert set(xresp.__all__) <= set(dir(xresp))


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        xresp.no_such_name


# Each result type stores a fact once: ``CounterfactualVersion.final`` and
# ``Explanation.inv_resp`` are properties derived from these fields.
EXPECTED_RESULT_FIELDS = {
    "CounterfactualVersion": ["eid", "changed", "states"],
    "Explanation": ["eid", "cause_feature", "cause_value", "contingency"],
    "ResponsibilityReport": ["scores"],
}


def test_result_fields_are_pinned():
    for name, expected in EXPECTED_RESULT_FIELDS.items():
        assert list(getattr(xresp, name)._fields) == expected, name


def test_traced_benchmark_runner_only_uses_public_names():
    text = (REPO_ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\bxr\.([A-Za-z_][A-Za-z0-9_]*)", text))
    assert used  # the runner calls the package through ``xr.``
    assert used <= set(xresp.__all__), sorted(used - set(xresp.__all__))


def test_every_exported_function_has_a_caller_outside_tests():
    sources = [REPO_ROOT / "src" / "xresp" / "cli.py", REPO_ROOT / "README.md"]
    sources += sorted((REPO_ROOT / "perfbench").glob("*.py"))
    words = set()
    for path in sources:
        words |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    # classes and constants are exempt: they are named in signatures and errors
    functions = {name for name in xresp.__all__ if name[0].islower()}
    assert functions
    assert functions <= words, sorted(functions - words)
