"""Check every benchmark invocation's output against ``perfbench/expected.json``.

For each workload this checks the pool's digest, writes the pool's input
files to a temporary directory, trains the set-up models and compares them
with their recorded digests, then runs each invocation once through the CLI
and requires exit status 0 and the recorded stdout digest.  It prints every
mismatch and exits 1 if there is any.  From the root of the repository::

    python3 tools/check_outputs.py [workload ...]

With no workload named, all four run: about ten minutes on two cores.
Nothing under ``perfbench/`` is changed, and no child writes bytecode.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import proc  # noqa: E402
import workloads  # noqa: E402


def mismatches(name: str, record: dict, env: dict[str, str]) -> list[str]:
    """Every way workload ``name`` differs from its record; empty when none."""
    pool = workloads.pool(name)
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
    names = argv or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    expected = json.loads((proc.BENCH / "expected.json").read_text(encoding="utf-8"))
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
