"""The help text and the usage errors of the command line.

kleinverify.cli loads this module only for --help or a command line that
does not fit its table, which it hands to each function here: no module
imports cli, which runs as __main__ under python -m.  An option whose
default in the table is ... must be given.
"""

from __future__ import annotations

import sys


def _synopsis(commands: dict, command: str) -> str:
    _, positionals, options, _ = commands[command]
    words = [command, *(name.upper() for name in positionals)]
    for name, default in options.items():
        option = f"--{name} {name.upper()}"
        words.append(option if default is ... else f"[{option}]")
    return " ".join(words)


def help_text(commands: dict) -> str:
    """The text of --help, listing the commands of the table commands."""
    lines = [
        "usage: kleinverify COMMAND [ARGUMENT ...] [--format json|text]",
        "",
        "Exact checks around the Klein bottle group ring: presentation equivalence",
        "certificates, boundary factorizations, and the stably-free-not-free verdict",
        "for the kernel module.",
        "",
        "commands:",
    ]
    for command, (_, _, _, summary) in commands.items():
        lines += [f"  {_synopsis(commands, command)}", f"      {summary}"]
    lines += [
        "",
        'An option takes its value as "--s -x^-1" or "--s=-x^-1", spelled in full.',
        "Every command prints text, or JSON with --format json.  Exit status: 0 when",
        "every check passes, 1 when one fails, 2 on bad input.  -h or --help prints",
        "this text.",
    ]
    return "\n".join(lines)


def usage_error(commands: dict, command: str | None, message: str):
    """Print command's usage line from the table commands, or the generic
    one for None, and message; then exit 2."""
    synopsis = _synopsis(commands, command) if command else "COMMAND [ARGUMENT ...]"
    print(f"usage: kleinverify {synopsis} [--format json|text]", file=sys.stderr)
    print(f"kleinverify: error: {message}", file=sys.stderr)
    raise SystemExit(2)
