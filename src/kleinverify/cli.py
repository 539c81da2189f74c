"""Command-line front end.

One table, COMMANDS, gives each command its handler, its positional
arguments and its options with their defaults; run() reads argv against
it in one pass.  An option takes its value as "--opt value" or
"--opt=value", spelled in full.  A token that does not start with "--"
is a value, so "--s -x^-1" needs no quoting.

A handler returns its exit status, its JSON payload and its text, the
last two as zero-argument callables, and run() hands them to _emit, the
one function that prints, which builds only the one it prints.

Only verify-paper's handler lives here, so verify-paper compiles no
other command's code.  Every other command, the help text and the usage
errors live in cli_commands, which run() imports only for them.  It is
handed what it needs of this module, the parsed arguments or the table,
and imports nothing from it: run as python -m kleinverify.cli, this
module is __main__, and an import of kleinverify.cli would compile it a
second time.

Exit status: 0 when every requested check passes, 1 when a check fails,
2 on input or parse errors, usage errors included, and on an input too
large to compute on (MemoryError).
"""

from __future__ import annotations

import sys

# Each handler imports the library modules it runs, and each table entry
# but verify-paper's imports cli_commands, so a command compiles only
# those: divides needs cli_commands, laurent, grammar and syntax;
# verify-paper every library module but grammar and the ones loaded at
# first use (kronecker, longdiv, walks, fox), and no other handler.
# Annotations are never evaluated, so the names they use (Callable) need
# no import here.


def _emit(args, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the output in the format asked for.  Both forms come
    unrendered, as zero-argument callables, and only the printed one is
    built: text output makes no JSON payload, JSON output no text."""
    if args.format == "json":
        import json

        print(json.dumps(payload(), indent=2))
    else:
        print(text())


def cmd_verify_paper(args):
    from .verify import full_report

    report = full_report()
    return 0 if report.all_ok else 1, report.to_json_dict, report.to_text


def _deferred(name: str):
    """The handler name of kleinverify.cli_commands, which loads at the
    first call."""

    def handler(args):
        from . import cli_commands

        return getattr(cli_commands, name)(args)

    return handler


# Per command: its handler, its positional names, its options with their
# defaults (... for an option that must be given), and a one-line summary.
# Every command also takes --format json|text, by default text.
COMMANDS = {
    "verify-paper": (cmd_verify_paper, (), {}, "run the whole replication suite"),
    "chi": (_deferred("cmd_chi"), (), {"presentation": "Q"},
            "Euler characteristic of P, Q (the default) or a presentation JSON file"),
    "normal-form": (_deferred("cmd_normal_form"), ("word",), {},
                    "normal form y^m x^n of a word in x, y, e.g. 'y^-1 x y'"),
    "fox": (_deferred("cmd_fox"), ("word", "generator"), {},
            "free derivative of a word by a generator"),
    "member": (_deferred("cmd_member"), ("element",), {"r": None, "s": None},
               "whether a twisted-ring element lies in V; r, s default to the paper's"),
    "divides": (_deferred("cmd_divides"), ("a", "b"), {},
                "exact divisibility of b by a in Z[x, x^-1]"),
    "certificate": (_deferred("cmd_certificate"), (), {"certificate": ..., "presentation": None},
                    "check a certificate file over its source or over P, Q or a file"),
    "stafford": (_deferred("cmd_stafford"), (), {"r": None, "s": None},
                 "non-freeness conditions for an instance (r, s), by default the paper's"),
}
_HELP = ("-h", "--help")


class _Args:
    """The parsed command line: one attribute per positional and option,
    and command, its name."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _usage_error(command: str | None, message: str):
    from .cli_commands import usage_error

    usage_error(COMMANDS, command, message)


def _parse_args(argv: list[str]):
    """The handler and arguments argv asks for, or None for help."""
    if not argv:
        _usage_error(None, "a command is required (kleinverify --help lists them)")
    command = argv[0]
    if command in _HELP:
        return None
    if command not in COMMANDS:
        _usage_error(None, f"unknown command {command!r} (kleinverify --help lists them)")
    handler, positionals, options, _ = COMMANDS[command]
    values = {"format": "text", **options}
    given = []
    rest = iter(argv[1:])
    for token in rest:
        if token in _HELP:
            return None
        if not token.startswith("--"):
            given.append(token)
            continue
        name, eq, value = token[2:].partition("=")
        if name not in values:
            _usage_error(command, f"unknown option --{name}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                _usage_error(command, f"option --{name} needs a value")
        values[name] = value
    if len(given) > len(positionals):
        _usage_error(command, f"unexpected argument {given[len(positionals)]!r}")
    if len(given) < len(positionals):
        _usage_error(command, f"missing argument {positionals[len(given)].upper()}")
    missing = next((name for name, value in values.items() if value is ...), None)
    if missing:
        _usage_error(command, f"option --{missing} is required")
    if values["format"] not in ("json", "text"):
        _usage_error(command, f"--format must be json or text, not {values['format']!r}")
    # The command's name joins the values only now, so no option can set it.
    values.update(zip(positionals, given), command=command)
    return handler, _Args(values)


def run(argv: list[str] | None = None) -> int:
    parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    if parsed is None:
        from .cli_commands import help_text

        print(help_text(COMMANDS))
        return 0
    handler, args = parsed
    try:
        status, payload, text = handler(args)
        _emit(args, payload, text)
        return status
    # The library has no recursion of its own, so only the JSON decoder
    # raises RecursionError: on an input file nested too deep.
    except (ValueError, KeyError, IndexError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # An input too large to compute on is bad input, not a failed check;
    # MemoryError usually has no text.
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
