"""Running one ``xresp`` invocation as a child process and timing it."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float  # the child's user plus system time
    maxrss_kb: int

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(args: list[str], cwd: Path, env: dict[str, str]) -> Outcome:
    """Spawn ``python <args>``; wall time runs from spawn to exit.

    The child is reaped with ``os.wait4`` so its own peak RSS is read, not
    the benchmark's.
    """
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        try:
            stdout = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(child.returncode, stdout, stderr, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def run_cli(argv: tuple[str, ...] | list[str], cwd: Path, env: dict[str, str]) -> Outcome:
    return run(["-m", "xresp.cli", *argv], cwd, env)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """Digest of the package sources, which identifies the program when git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
