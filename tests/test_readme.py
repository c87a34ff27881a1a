"""The README's "Library use" snippet runs as written and prints what it says.

The snippet is taken from README.md and run from the repository root in a
fresh interpreter.  Each ``print(...)  # text`` line must print ``text``, where
``...`` in the comment stands for any run of characters.
"""

import os
import re
import subprocess
import sys

from conftest import REPO_ROOT


def library_use_snippet() -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the Library use section has no python block"
    return match.group(1)


def test_library_use_snippet_runs_and_prints_its_comments():
    snippet = library_use_snippet()
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr

    prints = [line for line in snippet.splitlines() if line.startswith("print(")]
    printed = result.stdout.splitlines()
    assert len(printed) == len(prints)
    for code, out in zip(prints, printed):
        _, sep, comment = code.partition("  # ")
        if not sep:
            continue
        pattern = ".*".join(map(re.escape, comment.strip().split("...")))
        assert re.fullmatch(pattern, out), (code, out)
