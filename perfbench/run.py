"""The xresp benchmark: end-to-end CLI timings, and per-layer traced timings.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explain --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  One process runs ``python -m
xresp.cli ...`` invocations one after another, with ``src`` on
``PYTHONPATH``; every invocation loads a ``--model`` file that set-up
trained.  A run repeats one seeded cycle of invocations (``workloads.py``)
for ``--seconds``, set-up repeats included.  Every stdout is compared with
the digest recorded on the seed commit (``expected.json``).

The machine this was built on is a shared virtual machine whose speed
drifts by up to twofold within a minute, far more than any useful
regression bound.  Its wall times also hold the time the host gave the
CPU to someone else, which the child's CPU time (user plus system, from
``os.wait4``) leaves out.  So untraced runs time every invocation by its
CPU time, normalised by ``yardstick.py``, a fixed job spawned between
consecutive invocations: each CPU time is divided by the mean CPU time
of the yardsticks just before and just after it and scaled to
``YARDSTICK_NOMINAL_S``, the yardstick's CPU time on a machine of nominal
speed.  The raw wall and CPU times stay in the result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
invocation twice, untraced through the CLI and then under ``traced.py``,
and reports the per-layer metrics from the spans.  The last line of stdout
is one JSON object; a fuller result file with provenance, and in traced
runs the spans, goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import proc
import workloads
import yardstick

SETUP_REPEATS = 3
# CPU time of one yardstick run at nominal speed; normalised timings are
# the CPU times of a machine on which the yardstick takes this long.
YARDSTICK_NOMINAL_S = 0.2
TAIL_PERCENTILE = 90

# Spans whose median self time is a per-layer metric, named <span>_ms.
LAYER_SPANS = (
    "cli.import",
    "schema.load_dataset",
    "naive_bayes.train",
    "naive_bayes.load_model",
    "naive_bayes.to_percent",
    "constraints.load_constraints",
    "engine.enumerate_counterfactuals",
    "engine.min_change_versions",
    "engine.explanations_of",
    "engine.xresp",
    "queries.model_atom_sets",
    "queries.answer",
    "dlv_emit.emit_cip",
    "asp.parse_program",
    "asp.stable_models",
)
# Per-layer counts: metric name -> (count key reported by traced.py, unit).
LAYER_COUNTS = {
    "engine.versions": ("versions", "count"),
    "engine.explanations": ("explanations", "count"),
    "queries.atoms": ("atoms_materialised", "count"),
    "queries.rows": ("rows", "count"),
    "dlv_emit.program_bytes": ("program_bytes", "bytes"),
    "asp.atoms": ("asp_atoms", "count"),
    "asp.models": ("models", "count"),
}


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str | None:
    if not (proc.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tail(values: list[float]) -> tuple[float, int]:
    """The ``TAIL_PERCENTILE`` of ``values``, and how many lie beyond it."""
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in values)


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children's."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e9
    return totals


class Run:
    def __init__(self, args: argparse.Namespace, record: dict, costs: dict[str, float]) -> None:
        self.args = args
        self.record = record
        self.env = proc.child_env()
        self.pool = workloads.pool(args.workload)
        self.work = proc.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.keys = workloads.cycle(args.workload, args.seed, costs)
        self.errors: list[str] = []
        self.traces: list[dict] = []  # one per traced invocation
        # per set-up repeat, per dataset: (outcome, yardstick index)
        self.setup_runs: list[list[tuple[proc.Outcome, int | None]]] = []
        self.setup_ok = True
        self.yardsticks: list[proc.Outcome] = []  # in the order they ran
        self.yardstick_ok = True

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.pool.write_files(self.work)

    def _fail(self, what: str, detail: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {detail.strip()[:300]}")

    def _traced(self, argv, key: str) -> tuple[proc.Outcome, dict | None]:
        out = proc.run([str(proc.BENCH / "traced.py"), *argv], self.work, self.env)
        if out.returncode != 0:
            self._fail(f"traced {key}", out.stderr)
            return out, None
        trace = json.loads(out.stdout)
        trace["key"] = key
        self.traces.append(trace)
        return out, trace

    def yardstick(self) -> None:
        """Run the yardstick once and append its outcome to ``yardsticks``."""
        out = proc.run([str(proc.BENCH / "yardstick.py")], self.work, self.env)
        if out.returncode != 0 or out.stdout.decode().strip() != yardstick.CHECKSUM:
            self._fail("yardstick", out.stderr or f"printed {out.stdout[:40]!r}")
            self.yardstick_ok = False
        self.yardsticks.append(out)

    def bracketed(self, argv) -> tuple[proc.Outcome, int]:
        """Run one CLI invocation between two yardstick runs.

        Returns its outcome and the index in ``yardsticks`` of the one
        just before it.  Consecutive invocations share the yardstick
        between them.
        """
        if not self.yardsticks:
            self.yardstick()
        index = len(self.yardsticks) - 1
        out = proc.run_cli(argv, self.work, self.env)
        self.yardstick()
        return out, index

    def normalised(self, out: proc.Outcome, index: int) -> float:
        """The CPU seconds of ``out`` on a machine of nominal speed.

        The divisor is the mean CPU time of the yardsticks run just before
        and just after the invocation.
        """
        before, after = self.yardsticks[index], self.yardsticks[index + 1]
        return out.cpu_s / ((before.cpu_s + after.cpu_s) / 2) * YARDSTICK_NOMINAL_S

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """Per set-up repeat: normalised CPU seconds (empty when traced) and wall seconds."""
        walls = [sum(out.wall_s for out, _ in runs) for runs in self.setup_runs]
        if self.args.trace:
            return [], walls
        return [sum(self.normalised(out, i) for out, i in runs) for runs in self.setup_runs], walls

    def setup_once(self) -> None:
        """Train every dataset once and record the seconds it took.

        Untraced, each training is timed against its yardsticks.
        """
        runs = []
        for shape in self.pool.datasets:
            argv = ["train", "--data", f"{shape}.csv", "--out", f"{shape}.model"]
            index = None
            if self.args.trace:
                out, trace = self._traced(argv, f"setup/{shape}")
                good = trace is not None
            else:
                out, index = self.bracketed(argv)
                good = out.returncode == 0
                if not good:
                    self._fail(f"setup/{shape}", out.stderr)
            if good and proc.sha256_file(self.work / f"{shape}.model") != self.record["models"][shape]:
                self._fail(f"setup/{shape}", "model file differs from the recorded one")
                good = False
            self.setup_ok = self.setup_ok and good
            runs.append((out, index))
        self.setup_runs.append(runs)

    def measure(self) -> dict:
        """Set up, then run the cycle's invocations in order for --seconds.

        The budget covers the set-up repeats, which run at evenly spaced
        moments so that they sample the machine's speed as the invocations
        do.  The first cycle always completes; after it, an invocation
        starts only if its last step still fits, so a run may end inside a
        cycle.  The metrics are per-invocation medians, which do not depend
        on how many times each invocation ran.
        """
        expected = self.record["invocations"]
        outs, indexes, traced_cpus, rss_kb, keys = [], [], [], 0, []
        attempted = failed = 0
        last_step: dict[str, float] = {}
        start = time.perf_counter()
        self.setup_once()
        in_setup = time.perf_counter() - start
        while True:
            elapsed = time.perf_counter() - start
            key = self.keys[attempted % len(self.keys)]
            if attempted >= len(self.keys) and elapsed + last_step[key] > self.args.seconds:
                break
            if len(self.setup_runs) < SETUP_REPEATS and (
                    elapsed >= len(self.setup_runs) * self.args.seconds / SETUP_REPEATS):
                self.setup_once()
                in_setup += time.perf_counter() - start - elapsed
                continue
            argv = self.pool.invocations[key].argv
            want = expected[key]
            if self.args.trace:
                out = proc.run_cli(argv, self.work, self.env)
            else:
                out, index = self.bracketed(argv)
                indexes.append(index)
            attempted += 1
            good = out.returncode == 0 and out.digest == want["stdout_sha256"]
            if not good:
                self._fail(key, out.stderr or "stdout differs from the recorded output")
            outs.append(out)
            keys.append(key)
            rss_kb = max(rss_kb, out.maxrss_kb)
            if self.args.trace:
                t_out, trace = self._traced(argv, key)
                traced_cpus.append(t_out.cpu_s)
                if trace is not None and trace["stdout_sha256"] != want["stdout_sha256"]:
                    self._fail(f"traced {key}", "rendered output differs from the recorded output")
                    trace = None
                good = good and trace is not None
            failed += not good
            last_step[key] = time.perf_counter() - start - elapsed
        wall = time.perf_counter() - start - in_setup
        while len(self.setup_runs) < SETUP_REPEATS:
            self.setup_once()
        return {
            "wall_s": wall,
            "walls": [out.wall_s for out in outs],
            "cpus": [out.cpu_s for out in outs],
            "yardstick_indexes": indexes,
            "norm": [self.normalised(out, i) for out, i in zip(outs, indexes)],
            "keys": keys,
            "traced_cpus": traced_cpus,
            "rss_kb": rss_kb,
            "attempted": attempted,
            "failed": failed,
        }


def _end_to_end(m: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics; every timing is a normalised CPU time.

    The latencies are percentiles over the cycle's invocations of each
    invocation's median normalised time in the run, and the rate is the
    cycle's invocations over the sum of those medians.  A cycle mixes
    invocations whose times differ by up to tenfold, so a percentile of the
    raw samples sits between two of them and jumps with the noise of the
    pair; per-invocation medians do not, and they do not depend on how
    many times each invocation ran.
    """
    by_key: dict[str, list[float]] = defaultdict(list)
    for key, norm in zip(m["keys"], m["norm"]):
        by_key[key].append(norm)
    medians = [statistics.median(v) for v in by_key.values()]
    per_key = {"min": min(map(len, by_key.values())), "max": max(map(len, by_key.values()))}
    tail, beyond = _tail(medians)
    metrics = {
        "norm_cpu_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "norm_cpu_tail_ms": (tail * 1e3, "ms"),
        "norm_invocations_per_cpu_s": (len(medians) / sum(medians), "1/s"),
        "peak_rss_mb": (m["rss_kb"] / 1024, "MB"),
        "success_rate": ((m["attempted"] - m["failed"]) / m["attempted"], "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    percentiles = {
        "norm_cpu_p50_ms": {"percentile": 50.0, "samples": len(medians),
                            "samples_per_invocation": per_key},
        "norm_cpu_tail_ms": {"percentile": TAIL_PERCENTILE, "samples": len(medians),
                             "samples_beyond": beyond,
                             "samples_per_invocation": per_key},
        "setup_s": {"percentile": 50.0, "samples": len(setup)},
    }
    return metrics, percentiles


def _per_layer(m: dict, traces: list[dict]) -> dict:
    per_call: dict[str, list[float]] = defaultdict(list)
    counts_by_key: dict[str, dict] = {}
    enumerate_s = versions_total = 0
    for trace in traces:
        self_times = _self_times(trace["spans"])
        for name, seconds in self_times.items():
            per_call[name].append(seconds)
        counts = trace["counts"]
        if "versions" in counts:
            enumerate_s += self_times["engine.enumerate_counterfactuals"]
            versions_total += counts["versions"]
        counts_by_key[trace["key"]] = counts

    def total(name: str) -> int:
        return sum(c.get(name, 0) for c in counts_by_key.values())

    metrics = {
        f"{span}_ms": (statistics.median(per_call[span]) * 1e3 if per_call[span] else 0.0, "ms")
        for span in LAYER_SPANS
    }
    metrics["cli.invocations"] = (len(m["walls"]), "count")
    metrics["cli.trace_overhead_ratio"] = (sum(m["traced_cpus"]) / sum(m["cpus"]), "ratio")
    metrics["engine.versions_per_s"] = (
        versions_total / enumerate_s if enumerate_s else 0.0, "1/s")
    for metric, (count, unit) in LAYER_COUNTS.items():
        metrics[metric] = (total(count), unit)
    min_change = [c for c in counts_by_key.values() if "kept" in c]
    metrics["engine.min_change_kept_ratio"] = (
        sum(c["kept"] for c in min_change) / sum(c["versions"] for c in min_change)
        if min_change else 0.0, "ratio")
    atoms = total("atoms_materialised")
    metrics["queries.atoms_used_ratio"] = (total("atoms_used") / atoms if atoms else 0.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (proc.SRC / "xresp" / "__init__.py").is_file():
        print(f"xresp sources not found under {proc.SRC}", file=sys.stderr)
        return 2
    expected = json.loads((proc.BENCH / "expected.json").read_text(encoding="utf-8"))
    record = expected["workloads"][args.workload]
    costs = {
        key: entry["cost_s"]
        for w in expected["workloads"].values()
        for key, entry in w["invocations"].items()
    }
    run = Run(args, record, costs)
    if run.pool.digest() != record["pool_sha256"]:
        print("the generated inputs differ from the recorded ones; rerun record.py",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    run.prepare()
    m = run.measure()
    setup, setup_walls = run.setup_seconds()
    setup_ok = run.setup_ok
    load_end = os.getloadavg()

    if args.trace:
        metrics = _per_layer(m, run.traces)
        percentiles = {"per_layer_ms": {"percentile": 50.0, "samples": len(run.traces)}}
    else:
        metrics, percentiles = _end_to_end(m, setup)
    correct = setup_ok and run.yardstick_ok and m["failed"] == 0
    result = {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": proc.source_digest(),
        "recorded_source_sha256": expected["recorded_on"]["source_sha256"],
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "cycle": run.keys,
        "invocations_run": len(m["walls"]),
        "measured_wall_s": m["wall_s"],
        "yardstick_nominal_s": YARDSTICK_NOMINAL_S,
        "setup_repeats_s": setup,
        "setup_repeats_wall_s": setup_walls,
        "wall_latency_p50_ms": statistics.median(m["walls"]) * 1e3,
        "wall_invocations_per_s": len(m["walls"]) / m["wall_s"],
        "samples_s": list(zip(m["keys"], m["walls"])),
        "yardstick_wall_s": [y.wall_s for y in run.yardsticks],
        "yardstick_cpu_s": [y.cpu_s for y in run.yardsticks],
        "cpu_samples_s": m["cpus"],
        "yardstick_indexes": m["yardstick_indexes"],
        "norm_samples_s": m["norm"],
        "percentiles": percentiles,
        "error_rate": m["failed"] / m["attempted"],
        "errors": run.errors,
    }
    results = proc.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(
            json.dumps(run.traces) + "\n", encoding="utf-8")
    shutil.rmtree(run.work, ignore_errors=True)
    for error in run.errors:
        print(error, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
