"""Command-line frontend.

Subcommands tie the library together end to end: train and persist a
classifier, classify single entities, enumerate counterfactual versions,
report responsibility scores, answer brave/cautious queries over the
counterfactual models, emit the solver program for an instance, and run the
bundled stable-model kernel on a ground program file.

The command line is read from one table, ``_COMMANDS``: each subcommand's
handler, help line and options, the shared groups of options written once.
``_parse`` reads an argument list as argparse would: ``--opt value`` or
``--opt=value``, any unique prefix of a long flag, the last of a repeated
option.  Neither argparse nor the gettext and locale modules it loads are
imported, which spares every run several milliseconds of start-up.

Every run is deterministic: identical invocations produce byte-identical
output.  A refused command line exits with status 2 after a ``usage:`` line
and an ``xresp <command>: error: <detail>`` line on stderr; ``-h`` or
``--help`` prints the usage and each option's help and exits 0.  Errors
while running surface as one-line ``xresp: <Kind>: <detail>`` diagnostics
on stderr with exit status 1.  Output its reader stops reading (``| head``)
ends the run with status 1 and nothing on stderr.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import groupby
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Sequence

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
    # A run builds many long-lived tuples and no garbage cycle worth freeing
    # before it ends, so the cyclic collector would only rescan them; a caller
    # in the same process gets the collector back as it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        status = args.handler(args)
        # a reader that stopped reading (``| head``) fails this flush here,
        # where it is caught, rather than the one at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # nobody reads the rest: say nothing, and point stdout at os.devnull
        # so that the flush at exit fails no second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"xresp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# An option is (flag, dest, kind, default, group, help).  Its kind is str or
# int for an option that takes a value, or the tuple of a choice's values; a
# switch's kind is the constant it stores.  Options that share a group
# exclude each other, and one of them must be given; an option whose group
# is None may be left out.  A flag without dashes names a positional
# argument.
_HELP = ("--help", "help", True, None, None, "show this help message and exit")

# naive_bayes.DEFAULT_MAXINT, written out so that the option table imports
# no module of the package (a test pins the two equal)
_MAXINT_DEFAULT_HELP = "(default: 100000000)"

_MODEL_SOURCE = (
    ("--data", "data", str, None, "source", "training CSV (trains on the fly)"),
    ("--model", "model", str, None, "source", "persisted model file"),
)
_ENTITY = (
    ("--entity", "entity", str, None, "entity", "comma-separated feature values"),
    ("--eid", "eid", str, "e", None, "entity identifier (default: e)"),
)
_BACKEND = (
    ("--classifier", "classifier", ("staged", "exact"), "staged", None,
     "staged integer pipeline (default) or exact rationals"),
    ("--maxint", "maxint", int, None, None,
     f"overflow ceiling for staged products {_MAXINT_DEFAULT_HELP}"),
)
_ENGINE = (
    ("--constraints", "constraints", str, None, None, "domain-knowledge file"),
    ("--strict", "strict", True, False, None, "positive-to-negative flips only, and "
     "forbidden combinations also apply to the original entity"),
)
_SEARCH = _MODEL_SOURCE + _ENTITY + _BACKEND + _ENGINE


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of an argument list, read as argparse would: a refused
    list exits with status 2, and a help flag with status 0 after the help."""
    flags = {"-h": _HELP, "--help": _HELP}
    extras: list[str] = []
    for at, token in enumerate(argv):
        match = _option_of(None, flags, token)
        if match is None or token == "--":
            break
        if match[0] is _HELP:
            _help(None, *match[1:])
        extras.append(token)  # an option of a command, given before it
    else:
        _fail(None, "the following arguments are required: command")
    command, tokens = argv[at], argv[at + 1:]
    if command not in _COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r}")
    handler, _, fixed, options = _COMMANDS[command]
    values = {"command": command, "handler": handler, **fixed}
    positionals = []
    for option in options:
        flags[option[0]] = option
        values[option[1]] = option[3]
        if option[0][0] != "-":
            positionals.append(option)
    # every token is read before any is used, so that an ambiguous prefix is
    # refused even after a help flag; after the first "--" all are positional
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    matches = [_option_of(command, flags, token) for token in tokens[:cut]]
    matches += [None] * (len(tokens) - cut)
    seen, given, at = [], [], 0
    while at < len(tokens):
        token, match = tokens[at], matches[at]
        at += 1
        if match is None:
            if at - 1 != cut or not positionals:  # the "--" itself is dropped
                given.append(token)
            continue
        if match[0] is None:
            extras.append(token)
            continue
        option, flag, text = match
        if option is _HELP:
            _help(command, flag, text)
        flag, dest, kind, _, group, _ = option
        if not isinstance(kind, (type, tuple)):  # a switch
            if text is not None:
                _fail(command, f"argument {flag}: ignored explicit argument {text!r}")
            text = kind
        elif text is None:
            if at in (len(tokens), cut) or matches[at] is not None:
                _fail(command, f"argument {flag}: expected one argument")
            text, at = tokens[at], at + 1
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                _fail(command, f"argument {flag}: invalid int value: {text!r}")
        if isinstance(kind, tuple) and text not in kind:
            _fail(command, f"argument {flag}: invalid choice: {text!r} (choose from {kind})")
        for other in seen:
            if group and other[4] == group and other is not option:
                _fail(command, f"argument {flag}: not allowed with argument {other[0]}")
        seen.append(option)
        values[dest] = text
    for option, text in zip(positionals, given):
        seen.append(option)
        values[option[1]] = text
    extras += given[len(positionals):]
    groups = {option[4] for option in seen}
    missing = [option for option in options if option[4] and option[4] not in groups]
    if missing:
        _fail(command, f"the following arguments are required: {_usage(command, missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _option_of(command, flags, token):
    """``(option, flag, explicit value)`` for a token that reads as an
    option, the option None if no flag of ``flags`` matches; None for a
    positional.  As in argparse, a long flag may be cut to a unique prefix,
    and a negative number or a token holding a space is a positional."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return flags[token], token, None
    flag, equals, text = token.partition("=")
    if flag not in flags and token[1] == "-":
        found = [known for known in flags if known.startswith(flag)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {flag} could match {', '.join(found)}")
        flag = found[0] if found else flag
    elif flag not in flags and token.startswith("-h"):  # -hh is -h twice
        flag, equals, text = "-h", "=", token[2:]
    if flag in flags:
        return flags[flag], flag, text if equals else None
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final newline
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if (fraction if dot else whole).isdecimal() and (not whole or whole.isdecimal()):
        return None
    return None if " " in token else (None, token, None)


def _invocation(option) -> str:
    flag, dest, kind = option[:3]
    if isinstance(kind, tuple):
        return f"{flag} {{{','.join(kind)}}}"
    return f"{flag} {dest.upper()}" if isinstance(kind, type) and flag[0] == "-" else flag


def _usage(command, options=None) -> str:
    """A command's usage line, or, given options, how it writes them:
    [optional] required (exclusive | ones)."""
    if command is None:
        return "usage: xresp [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = [] if options else [f"usage: xresp {command} [-h]"]
    for group, members in groupby(options or _COMMANDS[command][3], key=lambda option: option[4]):
        texts = list(map(_invocation, members))
        if group is None:
            words += [f"[{text}]" for text in texts]
        else:
            words.append(texts[0] if len(texts) == 1 else f"({' | '.join(texts)})")
    return " ".join(words)


def _help(command, flag, text) -> NoReturn:
    """Print the usage and the help of each command or option, and exit."""
    if text is not None and (flag != "-h" or not text or text.strip("h")):
        _fail(command, f"argument -h/--help: ignored explicit argument {text!r}")
    if command is None:
        lines = ["Counterfactual explanations and responsibility scores for naive-Bayes "
                 "classifications.", "", "commands:"]
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
    else:
        lines = [_COMMANDS[command][1], "", "arguments:"]
        rows = [("-h, --help", _HELP[5])]
        rows += [(_invocation(option), option[5]) for option in _COMMANDS[command][3]]
    lines += [f"  {left:<22}  {about}" for left, about in rows]
    print(_usage(command), "", *lines, sep="\n")
    sys.stdout.flush()  # a closed pipe fails here, inside main's try
    raise SystemExit(0)


def _fail(command, detail: str) -> NoReturn:
    prog = "xresp" if command is None else f"xresp {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {detail}\n")
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _instance(
    args: SimpleNamespace,
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
    args: SimpleNamespace, model: NaiveBayesModel | PercentModel
) -> ConstraintSet | None:
    if not args.constraints:
        return None
    from .constraints import load_constraints  # only a constraints file needs it
    return load_constraints(args.constraints, model.schema)


def _versions_of(
    args: SimpleNamespace,
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


def _cmd_train(args: SimpleNamespace) -> int:
    from .naive_bayes import serialize_model, train
    from .schema import load_dataset

    dataset = load_dataset(args.data)
    model = train(dataset, positive_label=args.positive_label)
    _write_out(serialize_model(model, dataset.class_column), args.out)
    return 0


def _cmd_classify(args: SimpleNamespace) -> int:
    model, entity, maxint = _instance(args)
    label, *scores = model.classify(entity.values, maxint)
    print(f"label: {label}")
    for name, score in zip(model.labels, scores):
        print(f"{name}: {score}")
    return 0


def _cmd_counterfactuals(args: SimpleNamespace) -> int:
    model, entity, maxint = _instance(args)
    # each version's final state is its cell's: no chain is decoded
    result = _versions_of(args, model, entity, maxint)
    lines = [f"ent({result.eid},{','.join(result.state(code))},s)" for code in result.ordered]
    if lines:
        print("\n".join(lines))
    return 0


def _cmd_explain(args: SimpleNamespace) -> int:
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


def _cmd_query(args: SimpleNamespace) -> int:
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
        try:  # a string renders as itself
            lines = list(map(", ".join, rows))
        except TypeError:  # some row holds an integer or a set
            # values repeat across rows: render each distinct one once
            texts = {value: render_value(value) for value in set().union(*rows)}
            lines = [", ".join(map(texts.__getitem__, row)) for row in rows]
        blocks.append("\n".join(lines))
    output = "\n\n".join(blocks)
    if output:
        print(output)
    return 0


def _cmd_emit(args: SimpleNamespace) -> int:
    from .dlv_emit import EmitterOptions, emit_cip

    pmodel, entity, maxint = _instance(args)
    constraints = _constraints_of(args, pmodel)
    options = EmitterOptions(include_weak_constraints=args.weak, maxint=maxint)
    _write_out(emit_cip(pmodel, entity, constraints, options), args.out)
    return 0


def _cmd_solve(args: SimpleNamespace) -> int:
    from .asp import parse_program, stable_models

    program = parse_program(_read(args.program))
    for model in stable_models(program):
        print("{" + ", ".join(sorted(model)) + "}")
    return 0


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------

# command -> (handler, help line, values that no option sets, options)
_COMMANDS = {
    "train": (_cmd_train, "train a classifier and persist it", {}, (
        ("--data", "data", str, None, "data", "training CSV"),
        ("--positive-label", "positive_label", str, None, None,
         "label treated as positive (default: the majority label)"),
        ("--out", "out", str, None, None, "model file (default: stdout)"),
    )),
    "classify": (_cmd_classify, "classify one entity", {}, _MODEL_SOURCE + _ENTITY + _BACKEND),
    "counterfactuals": (_cmd_counterfactuals, "enumerate label-flipping entity versions", {},
                        _SEARCH + (
        ("--min-change", "min_change", True, False, None,
         "keep only versions with the fewest changed features"),
    )),
    "explain": (_cmd_explain, "responsibility scores and full explanations",
                {"min_change": False}, _SEARCH),
    "query": (_cmd_query, "answer queries over the counterfactual models", {}, _SEARCH + (
        ("--queries", "queries", str, None, "queries", "query file, one per line"),
        ("--brave", "semantics", "brave", None, "semantics", "answers true in some model"),
        ("--cautious", "semantics", "cautious", None, "semantics", "answers true in all models"),
        ("--min-change", "min_change", True, False, None, "query only the minimum-change models"),
    )),
    # emit-dlv always writes the staged program
    "emit-dlv": (_cmd_emit, "emit the counterfactual intervention program",
                 {"classifier": "staged"}, _MODEL_SOURCE + _ENTITY + (
        ("--constraints", "constraints", str, None, None, "domain-knowledge file"),
        ("--weak", "weak", True, False, None, "append the change-minimizing weak constraints"),
        ("--maxint", "maxint", int, None, None,
         f"#maxint ceiling written into the program {_MAXINT_DEFAULT_HELP}"),
        ("--out", "out", str, None, None, "output file (default: stdout)"),
    )),
    "solve-asp": (_cmd_solve, "stable models of a ground disjunctive program", {}, (
        ("program", "program", str, None, "program", "program file"),
    )),
}


if __name__ == "__main__":
    sys.exit(main())
