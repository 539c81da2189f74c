"""The handlers of the commands that read polynomials: member, divides
and stafford.

kleinverify.cli loads this module only when one of them runs.  A handler
takes the parsed arguments and returns, as every handler in cli's table
does, its exit status, its JSON payload and its text, the last two as
zero-argument callables; cli prints the one asked for.  No module
imports cli, which runs as __main__ under python -m.

member and divides answer yes or no, through _answer: true or false as
text, or the JSON object {"command", inputs..., "value"}, whose inputs
are formatted only for JSON.  stafford lists its verdict's five fields
once, for both formats.
"""

from __future__ import annotations

# Each handler imports the library modules it runs.  Annotations are never
# evaluated, so the names they use (Callable, StaffordInstance) need no
# import here.


def _answer(args, value: bool, inputs: Callable[[], dict]):
    """A yes/no command's exit status, JSON payload and text: true or
    false, exit 0 or 1; JSON output is the object {"command", inputs...,
    "value"}, and only it calls inputs, which formats the operands."""
    text = ("false", "true")[value]
    return 0 if value else 1, lambda: {"command": args.command, **inputs(), "value": value}, lambda: text


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


def cmd_member(args):
    from .klein import parse_spoly
    from .walks import in_V

    inst = _instance_from(args)
    v = parse_spoly(args.element)
    return _answer(args, in_V(v, inst), lambda: {"element": str(v), "r": str(inst.r), "s": str(inst.s)})


def cmd_divides(args):
    from .laurent import divides, parse_rpoly

    a = parse_rpoly(args.a)
    b = parse_rpoly(args.b)
    return _answer(args, divides(a, b), lambda: {"a": str(a), "b": str(b)})


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
