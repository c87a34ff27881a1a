"""The README's "Library use" snippet and "CLI walkthrough" run as written
and print what they say.

The snippet is taken from README.md and run from the repository root in a
fresh interpreter.  Each ``print(...)  # text`` line must print ``text``, where
``...`` in the comment stands for any run of characters.  Each ``$`` command
of the walkthrough runs in a directory holding ``data/`` and the README's
``constraints.txt`` and ``queries.txt``, and must print the lines shown after
it, where a ``...`` line stands for any run of lines.
"""

import os
import re
import shutil
import subprocess
import sys

from conftest import REPO_ROOT
from helpers import readme_walkthrough


def library_use_snippet() -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the Library use section has no python block"
    return match.group(1)


def source_env():
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_library_use_snippet_runs_and_prints_its_comments():
    snippet = library_use_snippet()
    env = source_env()
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


def readme_constraints() -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Domain knowledge"):]
    return re.search(r"```text\n(.*?)```", section, re.S).group(1)


def shows(shown: list[str], printed: str) -> bool:
    """Whether ``printed`` is the ``shown`` lines, a ``...`` line standing
    for any run of lines."""
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown)
    return re.fullmatch(pattern, printed) is not None


def test_cli_walkthrough_runs_and_prints_what_it_shows(tmp_path):
    commands = readme_walkthrough(REPO_ROOT / "README.md")
    shutil.copytree(REPO_ROOT / "data", tmp_path / "data")
    (tmp_path / "constraints.txt").write_text(readme_constraints(), encoding="utf-8")
    (queries,) = [shown for argv, shown in commands if argv == ["cat", "queries.txt"]]
    (tmp_path / "queries.txt").write_text("\n".join(queries) + "\n", encoding="utf-8")
    env = source_env()
    ran = 0
    for argv, shown in commands:
        if argv[0] == "xresp":
            result = subprocess.run(
                [sys.executable, "-m", "xresp.cli", *argv[1:]],
                capture_output=True, text=True, env=env, cwd=tmp_path,
            )
            assert (result.returncode, result.stderr) == (0, ""), argv
            printed = result.stdout
            ran += 1
        else:  # cat FILE or head -N FILE
            lines = (tmp_path / argv[-1]).read_text(encoding="utf-8").splitlines(keepends=True)
            printed = "".join(lines[:int(argv[1][1:])] if argv[0] == "head" else lines)
        assert shows(shown, printed), (argv, printed)
    assert ran == 10
