"""Record the expected output of every pool invocation into ``expected.json``.

Run on the commit whose outputs are the reference (the benchmark's seed
commit), from the root of the repository::

    python3 perfbench/record.py

Every invocation must exit 0.  Before anything is written, the outputs are
cross-checked against independent definitions:

* each ``solve-asp`` answer equals ``tests/oracles.py::oracle_stable_models``
  on the same program;
* each ``--min-change`` answer equals the minimum-size versions of the full
  exact ``counterfactuals`` output for the same entity.

It also records, per staged dataset, what the default ``--maxint`` does on
one entity, which is why staged invocations pass the ceiling they need.
It takes about a quarter of an hour on two cores.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import proc
import workloads


def _train(work: Path, shapes, env) -> dict[str, str]:
    digests = {}
    for shape in shapes:
        out = proc.run_cli(["train", "--data", f"{shape}.csv", "--out", f"{shape}.model"], work, env)
        if out.returncode != 0:
            raise SystemExit(f"train {shape} failed: {out.stderr.strip()}")
        digests[shape] = proc.sha256_file(work / f"{shape}.model")
    return digests


def _lines(stdout: bytes) -> list[str]:
    return stdout.decode("utf-8").splitlines()


def _finals(stdout: bytes) -> list[list[str]]:
    """The final states of ``ent(e,v1,...,vn,s)`` lines."""
    return [line[len("ent(e,"):-len(",s)")].split(",") for line in _lines(stdout)]


def _check_min_change(work: Path, env, invocation, stdout: bytes, full_cache: dict) -> None:
    argv = invocation.argv
    shape = argv[argv.index("--model") + 1][: -len(".model")]
    entity = argv[argv.index("--entity") + 1]
    if (shape, entity) not in full_cache:
        full_argv = ("counterfactuals", "--model", f"{shape}.model", "--entity", entity,
                     "--classifier", "exact")
        full = proc.run_cli(full_argv, work, env)
        if full.returncode != 0:
            raise SystemExit(f"{invocation.key}: full search failed: {full.stderr.strip()}")
        full_cache[shape, entity] = _finals(full.stdout)
    finals = full_cache[shape, entity]
    original = entity.split(",")
    size = [sum(a != b for a, b in zip(original, f)) for f in finals]
    least = min(size, default=0)
    minimal = [f for f, s in zip(finals, size) if s == least]
    if argv[0] == "counterfactuals":
        ok = _finals(stdout) == minimal
    else:
        blocks = stdout.decode("utf-8").split("\n\n") + [""]
        rows = [line.split(", ") for line in blocks[0].splitlines()]
        ok = sorted(r[1:] for r in rows) == sorted(minimal) and all(
            line.split(", ")[2] == str(least) for line in blocks[1].splitlines()
        )
    if not ok:
        raise SystemExit(f"{invocation.key}: --min-change output is not the minimum-size versions")


def _check_stable_models(work: Path, invocation, stdout: bytes) -> None:
    sys.path[:0] = [str(proc.ROOT / "tests"), str(proc.SRC)]
    from oracles import oracle_stable_models
    from xresp import parse_program

    program = parse_program((work / invocation.argv[1]).read_text(encoding="utf-8"))
    got = {
        frozenset(filter(None, line.strip("{}").split(", "))) for line in _lines(stdout)
    }
    if got != oracle_stable_models(program) or len(got) != len(_lines(stdout)):
        raise SystemExit(f"{invocation.key}: stable models differ from the oracle")


def _probe_default_maxint(work: Path, env, pool: workloads.Pool) -> dict[str, str]:
    """What ``explain`` without ``--maxint`` does on each staged dataset's first entity."""
    probes = {}
    for shape in pool.datasets:
        key = workloads.entity_key("explain", shape, 0, "plain")
        argv = list(pool.invocations[key].argv)
        if "--maxint" in argv:
            del argv[argv.index("--maxint"): argv.index("--maxint") + 2]
        out = proc.run_cli(argv, work, env)
        probes[shape] = out.stderr.strip() if out.returncode else "ok"
    return probes


def main() -> int:
    env = proc.child_env()
    record = {
        "recorded_on": {
            "source_sha256": proc.source_digest(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    full_cache: dict = {}
    root = proc.OUT / "record"
    shutil.rmtree(root, ignore_errors=True)
    for name in workloads.WORKLOADS:
        pool = workloads.pool(name)
        work = root / name
        work.mkdir(parents=True)
        pool.write_files(work)
        models = _train(work, pool.datasets, env)
        entries = {}
        for key, invocation in pool.invocations.items():
            out = proc.run_cli(invocation.argv, work, env)
            if out.returncode != 0:
                raise SystemExit(f"{key} failed: {out.stderr.strip()}")
            if name == "min_change":
                _check_min_change(work, env, invocation, out.stdout, full_cache)
            if invocation.argv[0] == "solve-asp":
                _check_stable_models(work, invocation, out.stdout)
            entries[key] = {
                "stdout_sha256": out.digest,
                "cost_s": round(out.wall_s, 4),
            }
            print(f"{key} {out.wall_s:.3f}s", file=sys.stderr, flush=True)
        entry = {"pool_sha256": pool.digest(), "models": models, "invocations": entries}
        if name == "explain":
            entry["default_maxint"] = _probe_default_maxint(work, env, pool)
        record["workloads"][name] = entry
    path = proc.BENCH / "expected.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
