"""The handlers of the commands that read words and presentations: chi,
normal-form, fox and certificate.

kleinverify.cli loads this module only when one of them runs.  A handler
takes the parsed arguments and returns, as every handler in cli's table
does, its exit status, its JSON payload and its text, the last two as
zero-argument callables; cli prints the one asked for.  No module
imports cli, which runs as __main__ under python -m.

Each command answers with one value, through _answer: the value as
text, or the JSON object {"command", inputs..., "value"}, whose inputs
are formatted only for JSON.
"""

from __future__ import annotations

# Each handler imports the library modules it runs.  Annotations are never
# evaluated, so the names they use (Callable) need no import here.


def _resolve_presentation(name_or_path: str):
    from . import builtin
    from .presentations import load_presentation

    if name_or_path in builtin.PRESENTATIONS:
        return builtin.PRESENTATIONS[name_or_path]()
    return load_presentation(name_or_path)


def _answer(args, value, inputs: Callable[[], dict] = dict):
    """A one-value command's exit status, JSON payload and text.

    Text output is the value alone, certificate's yes/no as pass or fail;
    JSON output is the object {"command", inputs..., "value"}, and only
    it calls inputs, which formats the operands.  A failed certificate
    exits 1, any other answer 0.
    """
    text = ("fail", "pass")[value] if isinstance(value, bool) else str(value)
    return 1 if value is False else 0, lambda: {"command": args.command, **inputs(), "value": value}, lambda: text


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
    combo = fox_derivative(parse_word(args.word), letters[0][0])
    return _answer(args, str(combo), lambda: {"word": args.word, "generator": args.generator})


def cmd_certificate(args):
    from .certificates import check_certificate, load_certificate

    cert = load_certificate(args.certificate)
    source = cert.source if args.presentation is None else args.presentation
    if source is None:
        raise ValueError("certificate names no source; pass --presentation")
    ok = check_certificate(_resolve_presentation(source), cert)
    return _answer(args, ok, lambda: {"target": str(cert.target)})
