"""The usage, help and refusal text, which only a refused or help command
line imports.  Each function takes the option table, ``cli._COMMANDS``:
under ``python -m xresp.cli`` that module is ``__main__``, and importing
``xresp.cli`` would run it a second time."""

from __future__ import annotations

import sys
from itertools import groupby

TYPE_CHECKING = False  # typing, which defines it, costs every run its import
if TYPE_CHECKING:
    from typing import NoReturn


def _invocation(option) -> str:
    flag, dest, kind = option[:3]
    if isinstance(kind, tuple):
        return f"{flag} {{{','.join(kind)}}}"
    return f"{flag} {dest.upper()}" if isinstance(kind, type) and flag[0] == "-" else flag


def usage(commands, command, options=None) -> str:
    """A command's usage line, or, given options, how it writes them:
    [optional] required (exclusive | ones)."""
    if command is None:
        return "usage: xresp [-h] {" + ",".join(commands) + "} ..."
    words = [] if options else [f"usage: xresp {command} [-h]"]
    for group, members in groupby(options or commands[command][3], key=lambda option: option[4]):
        texts = list(map(_invocation, members))
        if group is None:
            words += [f"[{text}]" for text in texts]
        else:
            words.append(texts[0] if len(texts) == 1 else f"({' | '.join(texts)})")
    return " ".join(words)


def show_help(commands, help_option, command, flag, text) -> NoReturn:
    """Print the usage and the help of each command or option, and exit."""
    if text is not None and (flag != "-h" or not text or text.strip("h")):
        fail(commands, command, f"argument -h/--help: ignored explicit argument {text!r}")
    if command is None:
        lines = ["Counterfactual explanations and responsibility scores for naive-Bayes "
                 "classifications.", "", "commands:"]
        rows = [(name, entry[1]) for name, entry in commands.items()]
    else:
        lines = [commands[command][1], "", "arguments:"]
        rows = [("-h, --help", help_option[5])]
        rows += [(_invocation(option), option[5]) for option in commands[command][3]]
    lines += [f"  {left:<22}  {about}" for left, about in rows]
    print(usage(commands, command), "", *lines, sep="\n")
    sys.stdout.flush()  # a closed pipe fails here, inside main's try
    raise SystemExit(0)


def fail(commands, command, detail: str) -> NoReturn:
    prog = "xresp" if command is None else f"xresp {command}"
    sys.stderr.write(f"{usage(commands, command)}\n{prog}: error: {detail}\n")
    raise SystemExit(2)
