"""Check every benchmark invocation's output against ``perfbench/expected.json``.

For each workload this checks the pool's digest, writes the pool's input
files to a temporary directory, trains the set-up models and compares them
with their recorded digests, then runs each invocation once through the CLI
and requires exit status 0 and the recorded stdout digest.  It prints every
mismatch and exits 1 if there is any.  From the root of the repository::

    python3 tools/check_outputs.py [workload ...]

Besides the four workloads, the ``frontier`` set runs staged searches over
a grid of 1,594,323 cells (13 features of 3 values), which no workload
reaches: ``explain`` on two pool entities, ``counterfactuals`` on one, and
a ``--strict`` ``explain`` from a negative original.  Its digests are
recorded here, from the search that scored grids of more than 2^20 cells
on demand.  With nothing named, all five sets run: about ten minutes on
two cores.  Nothing under ``perfbench/`` is changed, and no child writes
bytecode.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import proc  # noqa: E402
import workloads  # noqa: E402

FRONTIER_SHAPE = (13, 3)
# key -> (pool entity, the subcommand and its options, stdout digest); every
# run reads the trained model and passes the staged maxint 13 features need
FRONTIER_RUNS = {
    "frontier/13x3/e00/explain": (0, ("explain",),
        "763197011bf8b460225f0b9fe18e4aed94df5b064e7bacb71ce1134641b07f34"),
    "frontier/13x3/e01/explain": (1, ("explain",),
        "7c9815c4c205f3dc213b53865ebfe9dcecd201b07646f8316509c125f19227ad"),
    "frontier/13x3/e00/counterfactuals": (0, ("counterfactuals",),
        "23ad9bdfd85a024008a5aa728fb5b807b52d9e12840464625fa83169bbdb76ae"),
    "frontier/13x3/e05/strict": (5, ("explain", "--strict"),
        "acab8104bedff3cb81cfe4b3d59f4f0b8f717ae96111bdf10a1f65dc600c4cce"),
}
FRONTIER_RECORD = {
    "pool_sha256": "b53452688a57411d3d89bdd4380a6a6ef91738b42a4a312583b8196d26107502",
    "models": {"13x3": "fac5b3bcb5ba7ce302bf98ed20052d149a370248eddf8301c4bbdac592fa7ff6"},
    "invocations": {key: {"stdout_sha256": run[-1]} for key, run in FRONTIER_RUNS.items()},
}


def frontier_pool() -> workloads.Pool:
    """The ``frontier`` set as a pool: one staged dataset and its runs."""
    schema, csv_text = gen.dataset(FRONTIER_SHAPE, 0)
    name, entities = gen.shape_name(FRONTIER_SHAPE), gen.entities(schema, 0)
    staged = ("--model", f"{name}.model", "--maxint", str(gen.needed_maxint(FRONTIER_SHAPE[0])))
    return workloads.Pool((name,), {f"{name}.csv": csv_text}, {
        key: workloads.Invocation(key, (command, *staged, "--entity", ",".join(entities[i]),
                                        *rest))
        for key, (i, (command, *rest), _) in FRONTIER_RUNS.items()
    })


def mismatches(name: str, record: dict, env: dict[str, str]) -> list[str]:
    """Every way set ``name`` differs from its record; empty when none."""
    pool = frontier_pool() if name == "frontier" else workloads.pool(name)
    if pool.digest() != record["pool_sha256"]:
        return [f"{name}: the pool differs from the recorded one; nothing else checked"]
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        pool.write_files(work)
        for shape in pool.datasets:
            argv = ("train", "--data", f"{shape}.csv", "--out", f"{shape}.model")
            out = proc.run_cli(argv, work, env)
            if out.returncode != 0:
                found.append(f"setup/{shape}: exit {out.returncode}: {out.stderr.strip()}")
            elif proc.sha256_file(work / f"{shape}.model") != record["models"][shape]:
                found.append(f"setup/{shape}: the model file differs from the recorded one")
        for key, invocation in sorted(pool.invocations.items()):
            out = proc.run_cli(invocation.argv, work, env)
            if out.returncode != 0:
                found.append(f"{key}: exit {out.returncode}: {out.stderr.strip()}")
            elif out.digest != record["invocations"][key]["stdout_sha256"]:
                found.append(f"{key}: stdout differs from the recorded digest")
    return found


def main(argv: list[str]) -> int:
    sets = (*workloads.WORKLOADS, "frontier")
    names = argv or list(sets)
    unknown = sorted(set(names) - set(sets))
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(sets)}")
    expected = json.loads((proc.BENCH / "expected.json").read_text(encoding="utf-8"))
    expected["workloads"]["frontier"] = FRONTIER_RECORD
    # children write no bytecode either, so src/ keeps no __pycache__ and
    # each run compiles what it loads, as the benchmark's runs do
    env = proc.child_env() | {"PYTHONDONTWRITEBYTECODE": "1"}
    failed = False
    for name in names:
        record = expected["workloads"][name]
        found = mismatches(name, record, env)
        for line in found:
            print(line)
        print(f"{name}: {len(record['models'])} models, {len(record['invocations'])} "
              f"invocations, {len(found)} mismatches", file=sys.stderr, flush=True)
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
