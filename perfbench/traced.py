"""Traced runner: one ``xresp`` invocation with a span around every layer call.

Run in a fresh interpreter, once per invocation, with the package's
``src`` directory on ``PYTHONPATH``::

    python perfbench/traced.py explain --model m --entity a,b,c

It accepts the subset of the CLI's arguments the benchmark uses, calls the
package's public functions in the order the CLI handler does, renders the
output the way the CLI prints it, and writes one JSON object to stdout: the
spans, the counts the benchmark reports, and the digest of the rendered
output, which must equal the CLI's recorded stdout.  Spans are kept in
memory until the invocation ends.  Nothing inside the package is patched,
so a span covers a whole public call and the package's internals stay
untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time


class Tracer:
    """Spans with name, start, end and parent, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        spans, stack = self.tracer.spans, self.tracer._open
        self.record = {
            "id": len(spans),
            "name": self.name,
            "parent": stack[-1] if stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        spans.append(self.record)
        stack.append(self.record["id"])

    def __exit__(self, *exc) -> None:
        self.record["end_ns"] = time.perf_counter_ns()
        self.tracer._open.pop()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="traced")
    parser.add_argument("command")
    parser.add_argument("program", nargs="?")
    parser.add_argument("--model")
    parser.add_argument("--data")
    parser.add_argument("--out")
    parser.add_argument("--entity")
    parser.add_argument("--classifier", default="staged")
    parser.add_argument("--maxint", type=int)
    parser.add_argument("--constraints")
    parser.add_argument("--queries")
    parser.add_argument("--brave", dest="semantics", action="store_const", const="brave")
    parser.add_argument("--cautious", dest="semantics", action="store_const", const="cautious")
    parser.add_argument("--min-change", action="store_true")
    parser.add_argument("--weak", action="store_true")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def run(xr, args: argparse.Namespace, tracer: Tracer) -> tuple[str, dict[str, int]]:
    """Mirror the CLI handler of ``args.command``; return its output and counts."""
    span = tracer.span
    counts: dict[str, int] = {}
    maxint = {} if args.maxint is None else {"maxint": args.maxint}

    if args.command == "train":
        with span("schema.load_dataset"):
            dataset = xr.load_dataset(args.data)
        with span("naive_bayes.train"):
            model = xr.train(dataset)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(xr.serialize_model(model, dataset.class_column))
        return "", counts

    if args.command == "solve-asp":
        text = _read(args.program)
        with span("asp.parse_program"):
            program = xr.parse_program(text)
        with span("asp.stable_models"):
            models = xr.stable_models(program)
        counts["asp_atoms"] = len(program.atoms)
        counts["models"] = len(models)
        return "".join("{" + ", ".join(sorted(m)) + "}\n" for m in models), counts

    with span("naive_bayes.load_model"):
        model, _ = xr.load_model(args.model)
    if args.classifier == "staged" or args.command == "emit-dlv":
        with span("naive_bayes.to_percent"):
            model = xr.to_percent(model)
    with span("schema.parse_entity"):
        entity = xr.parse_entity(args.entity, model.schema)
    if args.command == "query":
        text = _read(args.queries)
        with span("queries.load_queries"):
            queries = xr.load_queries(text)
        predicates = set(re.findall(r"([A-Za-z_][A-Za-z0-9_]*)\(", text))
    constraints = None
    if args.constraints:
        with span("constraints.load_constraints"):
            constraints = xr.load_constraints(args.constraints, model.schema)

    if args.command == "emit-dlv":
        options = xr.EmitterOptions(include_weak_constraints=args.weak, **maxint)
        with span("dlv_emit.emit_cip"):
            program = xr.emit_cip(model, entity, constraints, options)
        counts["program_bytes"] = len(program.encode("utf-8"))
        return program, counts

    with span("engine.enumerate_counterfactuals"):
        versions = xr.enumerate_counterfactuals(model, entity, constraints, **maxint)
    counts["versions"] = len(versions)
    if args.min_change:
        with span("engine.min_change_versions"):
            versions = xr.min_change_versions(versions)
        counts["kept"] = len(versions)

    if args.command == "counterfactuals":
        return "".join(f"ent({v.eid},{','.join(v.final)},s)\n" for v in versions), counts
    if args.command == "explain":
        with span("engine.explanations_of"):
            explanations = xr.explanations_of(versions, entity, model.schema)
        with span("engine.xresp"):
            report = xr.xresp(explanations, model.schema)
        counts["explanations"] = len(explanations)
        lines = [f"x-resp {name.lower()} = {report.scores[name]}" for name in model.schema.names]
        lines += [
            xr.render_row((ex.eid, ex.cause_feature.lower(), ex.inv_resp,
                           frozenset(m.lower() for m in ex.contingency)))
            for ex in explanations
        ]
        return "".join(line + "\n" for line in lines), counts

    with span("queries.model_atom_sets"):
        atom_sets = xr.model_atom_sets(versions, model, entity, **maxint)
    counts["atoms_materialised"] = sum(len(t) for m in atom_sets for t in m.atoms.values())
    counts["atoms_used"] = sum(
        len(t) for m in atom_sets for p, t in m.atoms.items() if p in predicates
    )
    blocks = []
    for query in queries:
        with span("queries.answer"):
            rows = xr.answer(query, atom_sets, args.semantics)
        counts["rows"] = counts.get("rows", 0) + len(rows)
        blocks.append("\n".join(xr.render_row(row) for row in rows))
    output = "\n\n".join(blocks)
    return (output + "\n" if output else ""), counts


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    tracer = Tracer()
    with tracer.span("cli.invocation"):
        with tracer.span("cli.import"):
            import xresp as xr
        output, counts = run(xr, args, tracer)
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    json.dump({"spans": tracer.spans, "counts": counts, "stdout_sha256": digest}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
