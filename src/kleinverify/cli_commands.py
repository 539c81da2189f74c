"""Every command of the command line but verify-paper, with the help text
and the usage errors.

kleinverify.cli loads this module only for a command other than
verify-paper, --help or a command line that does not fit its table.  A
handler takes the parsed arguments and returns, as every handler in
cli's table does, its exit status, its JSON payload and its text, the
last two as zero-argument callables; cli prints the one asked for.  The
help text and the usage errors are built from the table that cli hands
them: no module imports cli, which runs as __main__ under python -m.

Each command but stafford answers with one value, through _answer: the
value as text (true or false for member and divides, pass or fail for
certificate), or the JSON object {"command", inputs..., "value"}, whose
inputs are formatted only for JSON; only a false answer exits 1.
stafford lists its verdict's five fields once, for both formats.
"""

from __future__ import annotations

import sys

# Each handler imports the library modules it runs.  Annotations are never
# evaluated, so the names they use (Callable, StaffordInstance) need no
# import here.


def _answer(args, value, inputs: Callable[[], dict] = dict, text: str | None = None):
    """A one-value command's exit status, JSON payload and text: text,
    by default str(value); exit 1 for a False answer, else 0."""
    text = str(value) if text is None else text
    return 1 if value is False else 0, lambda: {"command": args.command, **inputs(), "value": value}, lambda: text


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


def _resolve_presentation(name_or_path: str):
    from . import builtin
    from .presentations import load_presentation

    named = builtin.PRESENTATIONS.get(name_or_path)
    return named() if named else load_presentation(name_or_path)


def cmd_member(args):
    from .klein import parse_spoly
    from .walks import in_V

    inst = _instance_from(args)
    v = parse_spoly(args.element)
    ok = in_V(v, inst)
    return _answer(args, ok, lambda: {"element": str(v), "r": str(inst.r), "s": str(inst.s)}, ("false", "true")[ok])


def cmd_divides(args):
    from .laurent import divides, parse_rpoly

    a, b = parse_rpoly(args.a), parse_rpoly(args.b)
    ok = divides(a, b)
    return _answer(args, ok, lambda: {"a": str(a), "b": str(b)}, ("false", "true")[ok])


def cmd_stafford(args):
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

    return (0 if all(verdict[:3]) else 1,
            lambda: {"command": "stafford", "r": str(inst.r), "s": str(inst.s), **fields}, text)


def cmd_chi(args):
    from .presentations import euler_characteristic

    return _answer(args, euler_characteristic(_resolve_presentation(args.presentation)))


def cmd_normal_form(args):
    from .klein import eval_word
    from .words import Word, parse_word

    m, n = eval_word(parse_word(args.word, ("x", "y")))
    return _answer(args, str(Word((("y", m), ("x", n)))), lambda: {"word": args.word})


def cmd_fox(args):
    from .fox import fox_derivative
    from .words import parse_word

    letters = parse_word(args.generator).letters
    if len(letters) != 1 or letters[0][1] != 1:
        raise ValueError(f"the generator must be a single letter such as x, not {args.generator!r}")
    g = letters[0][0]
    word = parse_word(args.word)
    # The derivative has one term per power of g the word passes through,
    # terms in all.  Each prints as "-1*(...) + " around a prefix of the
    # reduced word, whose text is never longer than the argument's, so
    # what it prints is bounded before any term is built.
    terms = sum(abs(k) for name, k in word.letters if name == g)
    if terms * (len(args.word) + 8) > 10**7:
        raise ValueError("the derivative would print over 10^7 characters (its terms times (8 + the word's characters))")
    return _answer(args, str(fox_derivative(word, g)), lambda: {"word": args.word, "generator": args.generator})


def cmd_certificate(args):
    from .certificates import check_certificate, load_certificate

    cert = load_certificate(args.certificate)
    source = cert.source if args.presentation is None else args.presentation
    if source is None:
        raise ValueError("certificate names no source; pass --presentation")
    ok = check_certificate(_resolve_presentation(source), cert)
    return _answer(args, ok, lambda: {"target": str(cert.target)}, ("fail", "pass")[ok])


def _synopsis(commands: dict, command: str) -> str:
    _, positionals, options, _ = commands[command]
    words = [command, *(name.upper() for name in positionals)]
    # An option whose default is ... must be given, so it has no brackets.
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
    print(f"usage: kleinverify {synopsis} [--format json|text]\nkleinverify: error: {message}", file=sys.stderr)
    raise SystemExit(2)
