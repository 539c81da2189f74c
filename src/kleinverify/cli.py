"""Command-line front end.

One table, COMMANDS, gives each command its handler, its positional
arguments and its options with their defaults; run() reads argv against
it in one pass and builds the usage text from it.  An option takes its
value as "--opt value" or "--opt=value", spelled in full.  A token that
does not start with "--" is a value, so "--s -x^-1" needs no quoting.

Output goes through one function, _emit, which is handed the JSON
payload and the text as zero-argument callables and builds only the one
it prints.  The six commands that answer with one value (chi,
normal-form, fox, member, divides, certificate) hand it theirs through
_answer: the value as text, or the JSON object {"command", inputs...,
"value"}, whose inputs are formatted only for JSON.  stafford lists its
verdict's five fields once, for both formats.

Exit status: 0 when every requested check passes, 1 when a check fails,
2 on input or parse errors, usage errors included, and on an input too
large to compute on (MemoryError).
"""

from __future__ import annotations

import sys

# Each command imports the library modules it runs, so a command compiles
# only those: divides needs laurent, grammar and syntax, verify-paper
# every module but grammar.  Annotations are never evaluated, so the
# names they use (Callable, StaffordInstance) need no import here.


def _resolve_presentation(name_or_path: str):
    from . import builtin
    from .presentations import load_presentation

    if name_or_path in builtin.PRESENTATIONS:
        return builtin.PRESENTATIONS[name_or_path]()
    return load_presentation(name_or_path)


def _emit(args, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the output in the format asked for.  Both forms come
    unrendered, as zero-argument callables, and only the printed one is
    built: text output makes no JSON payload, JSON output no text."""
    if args.format == "json":
        import json

        print(json.dumps(payload(), indent=2))
    else:
        print(text())


def _answer(args, value, inputs: Callable[[], dict] = dict) -> int:
    """Print a one-value command's answer and return its exit status.

    Text output is the value alone; JSON output is the object
    {"command", inputs..., "value"}, and only it calls inputs, which
    formats the operands.  A yes/no value prints as true or false (pass
    or fail for certificate) and exits 0 or 1; any other value exits 0.
    """
    if isinstance(value, bool):
        text = (("fail", "pass") if args.command == "certificate" else ("false", "true"))[value]
    else:
        text = str(value)
    _emit(args, lambda: {"command": args.command, **inputs(), "value": value}, lambda: text)
    return 1 if value is False else 0


def cmd_verify_paper(args) -> int:
    from .verify import full_report

    report = full_report()
    _emit(args, report.to_json_dict, report.to_text)
    return 0 if report.all_ok else 1


def cmd_chi(args) -> int:
    from .presentations import euler_characteristic

    return _answer(args, euler_characteristic(_resolve_presentation(args.presentation)))


def cmd_normal_form(args) -> int:
    from .klein import eval_word
    from .words import Word, parse_word

    m, n = eval_word(parse_word(args.word, ("x", "y")))
    return _answer(args, str(Word((("y", m), ("x", n)))), lambda: {"word": args.word})


def cmd_fox(args) -> int:
    from .presentations import fox_derivative
    from .words import parse_word

    letters = parse_word(args.generator).letters
    if len(letters) != 1 or letters[0][1] != 1:
        raise ValueError(f"the generator must be a single letter such as x, not {args.generator!r}")
    combo = fox_derivative(parse_word(args.word), letters[0][0])
    return _answer(args, str(combo), lambda: {"word": args.word, "generator": args.generator})


def _instance_from(args) -> StaffordInstance:
    """(r, s) from --r and --s; an omitted one is the paper's."""
    from .division import StaffordInstance
    from .laurent import parse_rpoly

    if args.r is None or args.s is None:
        from . import builtin

        paper = builtin.stafford_instance()
    r = paper.r if args.r is None else parse_rpoly(args.r)
    s = paper.s if args.s is None else parse_rpoly(args.s)
    return StaffordInstance(r, s)


def cmd_member(args) -> int:
    from .division import in_V
    from .klein import parse_spoly

    inst = _instance_from(args)
    v = parse_spoly(args.element)
    return _answer(args, in_V(v, inst), lambda: {"element": str(v), "r": str(inst.r), "s": str(inst.s)})


def cmd_divides(args) -> int:
    from .laurent import divides, parse_rpoly

    a = parse_rpoly(args.a)
    b = parse_rpoly(args.b)
    return _answer(args, divides(a, b), lambda: {"a": str(a), "b": str(b)})


def cmd_certificate(args) -> int:
    from .certificates import check_certificate, load_certificate

    cert = load_certificate(args.certificate)
    source = cert.source if args.presentation is None else args.presentation
    if source is None:
        raise ValueError("certificate names no source; pass --presentation")
    ok = check_certificate(_resolve_presentation(source), cert)
    return _answer(args, ok, lambda: {"target": str(cert.target)})


def cmd_stafford(args) -> int:
    from . import builtin
    from .verify import default_witness, stafford_verdict

    inst = _instance_from(args)
    witness = default_witness() if inst == builtin.stafford_instance() else None
    verdict = stafford_verdict(inst, witness)
    # The verdict's five fields, each as both formats print it: a flag as
    # it is, a witness element as text, or None.
    fields = {name: value if isinstance(value, bool) else str(value) if value else None
              for name, value in verdict._asdict().items()}

    def text() -> str:
        lines = [f"{name:<13} {'ok' if value is True else 'FAIL' if value is False else value}"
                 for name, value in fields.items()]
        if not witness:
            lines[0] += "  (no unit-combination witness for this instance)"
        return "\n".join(lines)

    _emit(args, lambda: {"command": "stafford", "r": str(inst.r), "s": str(inst.s), **fields}, text)
    return 0 if all(verdict[:3]) else 1


# A stand-in default for an option that must be given.
_REQUIRED = object()

# Per command: its handler, its positional names, its options with their
# defaults, and a one-line summary.  Every command also takes --format
# json|text, by default text.
COMMANDS = {
    "verify-paper": (cmd_verify_paper, (), {}, "run the whole replication suite"),
    "chi": (cmd_chi, (), {"presentation": "Q"},
            "Euler characteristic of P, Q (the default) or a presentation JSON file"),
    "normal-form": (cmd_normal_form, ("word",), {},
                    "normal form y^m x^n of a word in x, y, e.g. 'y^-1 x y'"),
    "fox": (cmd_fox, ("word", "generator"), {}, "free derivative of a word by a generator"),
    "member": (cmd_member, ("element",), {"r": None, "s": None},
               "whether a twisted-ring element lies in V; r, s default to the paper's"),
    "divides": (cmd_divides, ("a", "b"), {}, "exact divisibility of b by a in Z[x, x^-1]"),
    "certificate": (cmd_certificate, (), {"certificate": _REQUIRED, "presentation": None},
                    "check a certificate file over its source or over P, Q or a file"),
    "stafford": (cmd_stafford, (), {"r": None, "s": None},
                 "non-freeness conditions for an instance (r, s), by default the paper's"),
}
_HELP = ("-h", "--help")


def _synopsis(command: str) -> str:
    _, positionals, options, _ = COMMANDS[command]
    words = [command, *(name.upper() for name in positionals)]
    for name, default in options.items():
        option = f"--{name} {name.upper()}"
        words.append(option if default is _REQUIRED else f"[{option}]")
    return " ".join(words)


def _help_text() -> str:
    lines = [
        "usage: kleinverify COMMAND [ARGUMENT ...] [--format json|text]",
        "",
        "Exact checks around the Klein bottle group ring: presentation equivalence",
        "certificates, boundary factorizations, and the stably-free-not-free verdict",
        "for the kernel module.",
        "",
        "commands:",
    ]
    for command, (_, _, _, summary) in COMMANDS.items():
        lines += [f"  {_synopsis(command)}", f"      {summary}"]
    lines += [
        "",
        'An option takes its value as "--s -x^-1" or "--s=-x^-1", spelled in full.',
        "Every command prints text, or JSON with --format json.  Exit status: 0 when",
        "every check passes, 1 when one fails, 2 on bad input.  -h or --help prints",
        "this text.",
    ]
    return "\n".join(lines)


class _Args:
    """The parsed command line: one attribute per positional and option,
    and command, its name."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _usage_error(command: str | None, message: str):
    synopsis = _synopsis(command) if command else "COMMAND [ARGUMENT ...]"
    print(f"usage: kleinverify {synopsis} [--format json|text]", file=sys.stderr)
    print(f"kleinverify: error: {message}", file=sys.stderr)
    raise SystemExit(2)


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
    missing = next((name for name, value in values.items() if value is _REQUIRED), None)
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
        print(_help_text())
        return 0
    handler, args = parsed
    try:
        return handler(args)
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
