"""Command-line front end.

Exit status: 0 when every requested check passes, 1 when a check fails,
2 on input or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import builtin
from .certificates import check_certificate, load_certificate
from .division import StaffordInstance, in_V
from .klein import eval_word, parse_spoly
from .laurent import divides, parse_rpoly
from .presentations import euler_characteristic, fox_derivative, load_presentation
from .verify import default_witness, full_report, stafford_verdict
from .words import Word, parse_word


def _resolve_presentation(name_or_path: str):
    if name_or_path in builtin.PRESENTATIONS:
        return builtin.PRESENTATIONS[name_or_path]()
    return load_presentation(name_or_path)


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_verify_paper(args) -> int:
    report = full_report()
    _emit(args, report.to_json_dict(), report.to_text())
    return 0 if report.all_ok else 1


def cmd_chi(args) -> int:
    p = _resolve_presentation(args.presentation)
    value = euler_characteristic(p)
    _emit(args, {"command": "chi", "value": value}, str(value))
    return 0


def cmd_normal_form(args) -> int:
    w = parse_word(args.word, ("x", "y"))
    m, n = eval_word(w)
    nf = str(Word((("y", m), ("x", n))))
    _emit(args, {"command": "normal-form", "word": args.word, "value": nf}, nf)
    return 0


def cmd_fox(args) -> int:
    letters = parse_word(args.generator).letters
    if len(letters) != 1 or letters[0][1] != 1:
        raise ValueError(f"the generator must be a single letter such as x, not {args.generator!r}")
    combo = fox_derivative(parse_word(args.word), letters[0][0])
    _emit(
        args,
        {"command": "fox", "word": args.word, "generator": args.generator,
         "value": str(combo)},
        str(combo),
    )
    return 0


def _instance_from(args) -> StaffordInstance:
    return StaffordInstance(parse_rpoly(args.r), parse_rpoly(args.s))


def cmd_member(args) -> int:
    inst = _instance_from(args)
    v = parse_spoly(args.element)
    ok = in_V(v, inst)
    _emit(
        args,
        {"command": "member", "element": str(v), "r": str(inst.r),
         "s": str(inst.s), "value": ok},
        "true" if ok else "false",
    )
    return 0 if ok else 1


def cmd_divides(args) -> int:
    a = parse_rpoly(args.a)
    b = parse_rpoly(args.b)
    ok = divides(a, b)
    _emit(
        args,
        {"command": "divides", "a": str(a), "b": str(b), "value": ok},
        "true" if ok else "false",
    )
    return 0 if ok else 1


def cmd_certificate(args) -> int:
    cert = load_certificate(args.certificate)
    if args.presentation is not None:
        src = _resolve_presentation(args.presentation)
    elif cert.source is not None:
        src = _resolve_presentation(cert.source)
    else:
        raise ValueError("certificate names no source; pass --presentation")
    ok = check_certificate(src, cert)
    _emit(
        args,
        {"command": "certificate", "target": str(cert.target), "value": ok},
        "pass" if ok else "fail",
    )
    return 0 if ok else 1


def cmd_stafford(args) -> int:
    inst = _instance_from(args)
    witness = default_witness() if inst == builtin.stafford_instance() else None
    verdict = stafford_verdict(inst, witness)
    payload = {
        "command": "stafford",
        "r": str(inst.r),
        "s": str(inst.s),
        "condition_i": verdict.condition_i,
        "condition_ii": verdict.condition_ii,
        "witnesses_ok": verdict.witnesses_ok,
        "degree_one": str(verdict.degree_one) if verdict.degree_one else None,
        "monic": str(verdict.monic) if verdict.monic else None,
    }
    lines = [
        f"condition_i   {'ok' if verdict.condition_i else 'FAIL'}"
        + ("" if witness else "  (no unit-combination witness for this instance)"),
        f"condition_ii  {'ok' if verdict.condition_ii else 'FAIL'}",
        f"witnesses_ok  {'ok' if verdict.witnesses_ok else 'FAIL'}",
        f"degree_one    {payload['degree_one']}",
        f"monic         {payload['monic']}",
    ]
    _emit(args, payload, "\n".join(lines))
    ok = verdict.condition_i and verdict.condition_ii and verdict.witnesses_ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleinverify",
        description=(
            "Exact checks around the Klein bottle group ring: presentation "
            "equivalence certificates, boundary factorizations, and the "
            "stably-free-not-free verdict for the kernel module."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-paper", help="run the whole replication suite")
    _add_format(sp)
    sp.set_defaults(func=cmd_verify_paper)

    sp = sub.add_parser("chi", help="Euler characteristic of a presentation")
    sp.add_argument("--presentation", default="Q", help="P, Q, or a JSON file path")
    _add_format(sp)
    sp.set_defaults(func=cmd_chi)

    sp = sub.add_parser("normal-form", help="normal form y^m x^n of a word")
    sp.add_argument("word", help="word in x, y, e.g. 'y^-1 x y'")
    _add_format(sp)
    sp.set_defaults(func=cmd_normal_form)

    sp = sub.add_parser("fox", help="free derivative of a word")
    sp.add_argument("word")
    sp.add_argument("generator")
    _add_format(sp)
    sp.set_defaults(func=cmd_fox)

    sp = sub.add_parser("member", help="membership of an element in the module V")
    sp.add_argument("element", help="twisted-ring element, e.g. 'y^2*(1) + (-1)'")
    sp.add_argument("--r", default=builtin.R_STRING, help="Laurent polynomial r")
    sp.add_argument("--s", default=builtin.S_STRING, help="Laurent polynomial s")
    _add_format(sp)
    sp.set_defaults(func=cmd_member)

    sp = sub.add_parser("divides", help="exact divisibility in Z[x, x^-1]")
    sp.add_argument("a")
    sp.add_argument("b")
    _add_format(sp)
    sp.set_defaults(func=cmd_divides)

    sp = sub.add_parser("certificate", help="check a product-of-conjugates certificate")
    sp.add_argument("--certificate", required=True, help="certificate JSON file")
    sp.add_argument("--presentation", help="P, Q, or a JSON file path (overrides the certificate's source)")
    _add_format(sp)
    sp.set_defaults(func=cmd_certificate)

    sp = sub.add_parser("stafford", help="non-freeness conditions for an instance (r, s)")
    sp.add_argument("--r", default=builtin.R_STRING)
    sp.add_argument("--s", default=builtin.S_STRING)
    _add_format(sp)
    sp.set_defaults(func=cmd_stafford)

    return parser


def _shield_leading_minus(argv: list[str]) -> list[str]:
    """Let values such as -x^-1 through argparse.

    argparse reads any token starting with "-" that is not a plain number
    as an option, so ``--s "-x^-1"`` fails.  This parser has no
    single-dash option besides -h, so every other such token is a value;
    a leading space, which every input parser ignores, makes argparse
    take it as one.  open() does not ignore it, so run() takes it off
    the file paths again.
    """
    return [
        f" {tok}" if tok.startswith("-") and not tok.startswith("--") and tok != "-h" else tok
        for tok in argv
    ]


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_shield_leading_minus(sys.argv[1:] if argv is None else argv))
    for name in ("certificate", "presentation"):
        path = getattr(args, name, None)
        if path is not None and path.startswith(" -"):
            setattr(args, name, path[1:])
    try:
        return args.func(args)
    # The library has no recursion of its own, so only the JSON decoder
    # raises RecursionError: on an input file nested too deep.
    except (ValueError, KeyError, IndexError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
