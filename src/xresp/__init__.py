"""Counterfactual explanations and x-Resp responsibility scores.

Given a naive-Bayes classifier over categorical features and a classified
entity, this package enumerates the entity's counterfactual versions
(reachable single-feature interventions whose label flips), scores each
feature's responsibility for the outcome, answers brave/cautious queries
over the counterfactual models, and emits the equivalent solver program.
A small stable-model kernel for ground disjunctive programs is included.
"""

from .asp import (
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
from .constraints import (
    ConstraintError,
    ConstraintSet,
    Dependency,
    load_constraints,
)
from .dlv_emit import (
    EmitError,
    EmitterOptions,
    FactParseError,
    emit_cip,
    parse_facts,
)
from .engine import (
    CounterfactualVersion,
    Explanation,
    ResponsibilityReport,
    enumerate_counterfactuals,
    explanations_of,
    min_change_versions,
    xresp,
)
from .naive_bayes import (
    DEFAULT_MAXINT,
    ModelFormatError,
    NaiveBayesModel,
    PercentModel,
    StagedOverflowError,
    load_model,
    serialize_model,
    to_percent,
    train,
)
from .queries import (
    ModelAtomSet,
    Query,
    QueryError,
    answer,
    load_queries,
    model_atom_sets,
    render_row,
)
from .schema import (
    DataError,
    Dataset,
    Entity,
    FeatureSchema,
    SchemaError,
    load_dataset,
    parse_entity,
)

__version__ = "0.1.0"

__all__ = [
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
]
