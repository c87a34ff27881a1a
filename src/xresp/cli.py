"""Command-line frontend.

Subcommands tie the library together end to end: train and persist a
classifier, classify single entities, enumerate counterfactual versions,
report responsibility scores, answer brave/cautious queries over the
counterfactual models, emit the solver program for an instance, and run the
bundled stable-model kernel on a ground program file.

Every run is deterministic: identical invocations produce byte-identical
output.  Errors surface as one-line ``xresp: <Kind>: <detail>`` diagnostics
on stderr with a non-zero exit status.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from . import _read

if TYPE_CHECKING:
    from .constraints import ConstraintSet
    from .naive_bayes import NaiveBayesModel, PercentModel
    from .schema import Entity

# Each handler imports the modules it runs inside its body, so a subcommand
# compiles only those: solve-asp needs asp alone, emit-dlv never loads
# engine, queries or asp, and the search subcommands skip dlv_emit and asp.
# Every handler that reads a model gets it, with its entity and the staged
# ceiling, from one call to _instance, which refuses a bad --maxint before
# it reads any file.


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"xresp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# naive_bayes.DEFAULT_MAXINT, written out so that building the parser imports
# no module of the package (a test pins the two equal)
_MAXINT_DEFAULT_HELP = "(default: 100000000)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xresp",
        description=(
            "Counterfactual explanations and responsibility scores for "
            "naive-Bayes classifications."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a classifier and persist it")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument(
        "--positive-label",
        help="label treated as positive (default: the majority label)",
    )
    p_train.add_argument("--out", help="model file (default: stdout)")
    p_train.set_defaults(handler=_cmd_train)

    p_classify = sub.add_parser("classify", help="classify one entity")
    _add_model_source(p_classify)
    _add_entity(p_classify)
    _add_backend_flags(p_classify)
    p_classify.set_defaults(handler=_cmd_classify)

    p_cf = sub.add_parser(
        "counterfactuals", help="enumerate label-flipping entity versions"
    )
    _add_model_source(p_cf)
    _add_entity(p_cf)
    _add_backend_flags(p_cf)
    _add_engine_flags(p_cf)
    p_cf.add_argument(
        "--min-change",
        action="store_true",
        help="keep only versions with the fewest changed features",
    )
    p_cf.set_defaults(handler=_cmd_counterfactuals)

    p_explain = sub.add_parser(
        "explain", help="responsibility scores and full explanations"
    )
    _add_model_source(p_explain)
    _add_entity(p_explain)
    _add_backend_flags(p_explain)
    _add_engine_flags(p_explain)
    p_explain.set_defaults(handler=_cmd_explain, min_change=False)

    p_query = sub.add_parser(
        "query", help="answer queries over the counterfactual models"
    )
    _add_model_source(p_query)
    _add_entity(p_query)
    _add_backend_flags(p_query)
    _add_engine_flags(p_query)
    p_query.add_argument("--queries", required=True, help="query file, one per line")
    semantics = p_query.add_mutually_exclusive_group(required=True)
    semantics.add_argument(
        "--brave",
        dest="semantics",
        action="store_const",
        const="brave",
        help="answers true in some model",
    )
    semantics.add_argument(
        "--cautious",
        dest="semantics",
        action="store_const",
        const="cautious",
        help="answers true in all models",
    )
    p_query.add_argument(
        "--min-change",
        action="store_true",
        help="query only the minimum-change models",
    )
    p_query.set_defaults(handler=_cmd_query)

    p_emit = sub.add_parser(
        "emit-dlv", help="emit the counterfactual intervention program"
    )
    _add_model_source(p_emit)
    _add_entity(p_emit)
    p_emit.add_argument("--constraints", help="domain-knowledge file")
    p_emit.add_argument(
        "--weak",
        action="store_true",
        help="append the change-minimizing weak constraints",
    )
    p_emit.add_argument(
        "--maxint",
        type=int,
        help=f"#maxint ceiling written into the program {_MAXINT_DEFAULT_HELP}",
    )
    p_emit.add_argument("--out", help="output file (default: stdout)")
    # emit-dlv always writes the staged program
    p_emit.set_defaults(handler=_cmd_emit, classifier="staged")

    p_solve = sub.add_parser(
        "solve-asp", help="stable models of a ground disjunctive program"
    )
    p_solve.add_argument("program", help="program file")
    p_solve.set_defaults(handler=_cmd_solve)

    return parser


def _add_model_source(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="training CSV (trains on the fly)")
    source.add_argument("--model", help="persisted model file")


def _add_entity(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--entity", required=True, help="comma-separated feature values"
    )
    sub.add_argument("--eid", default="e", help="entity identifier (default: e)")


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--classifier",
        choices=("staged", "exact"),
        default="staged",
        help="staged integer pipeline (default) or exact rationals",
    )
    sub.add_argument(
        "--maxint",
        type=int,
        help=f"overflow ceiling for staged products {_MAXINT_DEFAULT_HELP}",
    )


def _add_engine_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--constraints", help="domain-knowledge file")
    sub.add_argument(
        "--strict",
        action="store_true",
        help=(
            "positive-to-negative flips only, and forbidden combinations "
            "also apply to the original entity"
        ),
    )


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _instance(
    args: argparse.Namespace,
) -> tuple[NaiveBayesModel | PercentModel, Entity, int]:
    """The model (percent for staged), entity and ceiling a subcommand runs on."""
    from .naive_bayes import DEFAULT_MAXINT, load_model, to_percent, train
    from .schema import load_dataset, parse_entity

    if args.maxint is not None and args.maxint < 1:
        raise ValueError(f"--maxint must be at least 1, got {args.maxint}")
    if args.classifier == "exact" and args.maxint is not None:
        raise ValueError(
            "--maxint bounds the staged backend's integer products "
            "and has no effect with --classifier exact"
        )
    if args.model:
        model, _ = load_model(args.model)
    else:
        model = train(load_dataset(args.data))
    if args.classifier == "staged":
        model = to_percent(model)
    entity = parse_entity(args.entity, model.schema, eid=args.eid)
    return model, entity, DEFAULT_MAXINT if args.maxint is None else args.maxint


def _constraints_of(
    args: argparse.Namespace, model: NaiveBayesModel | PercentModel
) -> ConstraintSet | None:
    if not args.constraints:
        return None
    from .constraints import load_constraints  # only a constraints file needs it
    return load_constraints(args.constraints, model.schema)


def _versions_of(
    args: argparse.Namespace,
    model: NaiveBayesModel | PercentModel,
    entity: Entity,
    maxint: int,
):
    from .engine import enumerate_counterfactuals

    return enumerate_counterfactuals(
        model,
        entity,
        _constraints_of(args, model),
        strict=args.strict,
        maxint=maxint,
        min_change=args.min_change,
    )


def _write_out(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_train(args: argparse.Namespace) -> int:
    from .naive_bayes import serialize_model, train
    from .schema import load_dataset

    dataset = load_dataset(args.data)
    model = train(dataset, positive_label=args.positive_label)
    _write_out(serialize_model(model, dataset.class_column), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    model, entity, maxint = _instance(args)
    label, *scores = model.classify(entity.values, maxint)
    print(f"label: {label}")
    for name, score in zip(model.labels, scores):
        print(f"{name}: {score}")
    return 0


def _cmd_counterfactuals(args: argparse.Namespace) -> int:
    model, entity, maxint = _instance(args)
    for version in _versions_of(args, model, entity, maxint):
        print(f"ent({version.eid},{','.join(version.final)},s)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .engine import explanations_of, xresp
    from .schema import render_value

    model, entity, maxint = _instance(args)
    versions = _versions_of(args, model, entity, maxint)
    explanations = explanations_of(versions, entity, model.schema)
    report = xresp(explanations, model.schema)
    lines = [f"x-resp {name.lower()} = {report.scores[name]}" for name in model.schema.names]
    # contingency sets repeat across causes: render each distinct one once
    texts = {contingency: render_value(frozenset(member.lower() for member in contingency))
             for contingency in {ex.contingency for ex in explanations}}
    lines += [f"{ex.eid}, {ex.cause_feature.lower()}, {ex.inv_resp}, {texts[ex.contingency]}"
              for ex in explanations]
    print("\n".join(lines))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .queries import _check_query, answer, load_queries, model_atom_sets
    from .schema import render_value

    model, entity, maxint = _instance(args)
    queries = load_queries(_read(args.queries))
    if not queries:
        raise ValueError(f"no queries in {args.queries}")
    for query in queries:
        _check_query(query, model)
    versions = _versions_of(args, model, entity, maxint)
    atom_sets = model_atom_sets(versions, model, entity, maxint=maxint)
    blocks = []
    for query in queries:
        rows = answer(query, atom_sets, args.semantics)
        # values repeat across rows: render each distinct one once
        texts = {value: render_value(value) for value in set().union(*rows)}
        blocks.append("\n".join(", ".join(map(texts.__getitem__, row)) for row in rows))
    output = "\n\n".join(blocks)
    if output:
        print(output)
    return 0


def _cmd_emit(args: argparse.Namespace) -> int:
    from .dlv_emit import EmitterOptions, emit_cip

    pmodel, entity, maxint = _instance(args)
    constraints = _constraints_of(args, pmodel)
    options = EmitterOptions(include_weak_constraints=args.weak, maxint=maxint)
    _write_out(emit_cip(pmodel, entity, constraints, options), args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .asp import parse_program, stable_models

    program = parse_program(_read(args.program))
    for model in stable_models(program):
        print("{" + ", ".join(sorted(model)) + "}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
