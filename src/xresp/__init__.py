"""Counterfactual explanations and x-Resp responsibility scores.

Given a naive-Bayes classifier over categorical features and a classified
entity, this package enumerates the entity's counterfactual versions
(reachable single-feature interventions whose label flips), scores each
feature's responsibility for the outcome, answers brave/cautious queries
over the counterfactual models, and emits the equivalent solver program.
A small stable-model kernel for ground disjunctive programs is included.

Names resolve on first access (PEP 562), so ``import xresp`` compiles no
submodule and a caller pays only for the modules it uses.
"""

import importlib

# public name -> the submodule that defines it
_MODULE_OF = {
    name: module
    for module, names in {
        "asp": (
            "ATOM_CAP_ENV", "DEFAULT_ATOM_CAP", "EnumerationCapError",
            "GroundProgram", "ProgramSyntaxError", "Rule", "WeakConstraint",
            "parse_program", "stable_models",
        ),
        "constraints": (
            "ConstraintError", "ConstraintSet", "Dependency", "load_constraints",
        ),
        "dlv_emit": (
            "EmitError", "EmitterOptions", "FactParseError", "emit_cip",
            "parse_facts",
        ),
        "engine": (
            "CounterfactualVersion", "Explanation", "ResponsibilityReport",
            "enumerate_counterfactuals", "explanations_of",
            "min_change_versions", "xresp",
        ),
        "naive_bayes": (
            "DEFAULT_MAXINT", "ModelFormatError", "NaiveBayesModel",
            "PercentModel", "StagedOverflowError", "load_model",
            "serialize_model", "to_percent", "train",
        ),
        "queries": (
            "ModelAtomSet", "Query", "QueryError", "answer", "load_queries",
            "model_atom_sets",
        ),
        "schema": (
            "DataError", "Dataset", "Entity", "FeatureSchema", "SchemaError",
            "load_dataset", "parse_entity", "render_row",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
