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


class _Record:
    """Base of the immutable result and syntax types.  A class's fields are its
    own annotated names after the inherited ones; a class attribute is a
    default.  ``__init__`` (running ``__post_init__`` last, if defined), ``==``
    (same class only, skipping ``_uncompared``) and ``hash`` are compiled once."""

    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        key = "".join(f"{{0}}.{f}, " for f in fields if f not in cls._uncompared)
        post = "self.__post_init__()" if hasattr(cls, "__post_init__") else "pass"
        exec(f"def __init__(self, {', '.join(fields)}): "
             + "".join(f"_set(self, {f!r}, {f}); " for f in fields) + f"{post}\n"
             f"def __eq__(self, other): return ({key.format('self')}) == ({key.format('other')})"
             " if other.__class__ is self.__class__ else NotImplemented\n"
             f"def __hash__(self): return hash(({key.format('self')}))",
             space := {"_set": object.__setattr__})
        space["__init__"].__defaults__ = tuple(getattr(cls, f) for f in fields if hasattr(cls, f))
        for name in ("__init__", "__eq__", "__hash__"):
            space[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, space[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _read(path: str) -> str:
    """The text of an input file; a leading byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


def _lines(text: str):
    """``(line number, stripped line)`` for each line not blank once cut at its
    first ``%``.  So ``%`` starts a comment anywhere in every format read: no
    name, value, label, fraction or atom may contain it."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("%", 1)[0].strip()
        if line:
            yield lineno, line
