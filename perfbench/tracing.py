"""In-memory span tracer that wraps the library from outside.

Each wrapped function or operator records one span: name, start, end,
parent span, instance id and one operand-size count.  Spans stay in a list
until the run ends; ``write_csv`` then writes them out.  Self time is a
span's duration minus the durations of its direct children (spans nest
strictly, since all calls come from one thread).
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Instance ids for spans outside the timed verdicts.
SETUP = -1
CLI = -2

STAGES = ("chi", "pi1", "factorization", "bezout", "splitting", "stafford")

Span = Tuple[int, int, int, int, int, int]  # name, start_ns, end_ns, parent, instance, size


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.instance = SETUP
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, size: Optional[Callable]) -> Callable:
        idx = self._ids.setdefault(name, len(self._ids))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (idx, start, clock(), parent, tracer.instance, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            count = size(args, result) if size is not None else 0
            spans[sid] = (idx, start, end, parent, tracer.instance, count)
            return result

        return traced

    def install(self, targets: Sequence[Tuple], modules: Sequence[object]) -> None:
        """Wrap each (owner, attribute, span name, size function) target.

        A class attribute is replaced on the class.  A function is replaced
        under every module attribute bound to it, so calls through
        ``from module import name`` copies are traced too.
        """
        for owner, attr, name, size in targets:
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, size)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, orig = self._restore.pop()
            setattr(holder, key, orig)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ns", "end_ns", "parent", "instance", "size"])
            for sid, (idx, start, end, parent, inst, count) in enumerate(self.spans):
                out.writerow([sid, self.names[idx], start, end, parent, inst, count])


def library_modules(extra: Sequence[object] = ()) -> List[object]:
    mods = [m for name, m in sys.modules.items()
            if name == "kleinverify" or name.startswith("kleinverify.")]
    return mods + list(extra)


def targets(kv, verdicts) -> List[Tuple]:
    """What to wrap, with each span's name and operand-size count.

    Sizes read the value classes' slots directly, so counting stays O(1)
    and adds little to the parent span's self time.  Call this before
    library_modules: it imports kleinverify.cli.
    """
    cli = importlib.import_module("kleinverify.cli")
    w, lau, kl, pr = kv.words, kv.laurent, kv.klein, kv.presentations
    div, cert, ver = kv.division, kv.certificates, kv.verify
    return [
        (w.Word, "__mul__", "words.mul", lambda a, r: len(a[0].letters) + len(a[1].letters)),
        (w, "parse_word", "words.parse", None),
        (lau.RPoly, "__mul__", "laurent.mul", lambda a, r: len(a[0]._coeffs) * len(a[1]._coeffs)),
        (lau.RPoly, "__add__", "laurent.add", None),
        (lau, "quotient", "laurent.quotient", lambda a, r: int(r is None)),
        (lau, "parse_rpoly", "laurent.parse", None),
        (kl.SPoly, "__mul__", "klein.spoly_mul", lambda a, r: len(a[0]._rows) * len(a[1]._rows)),
        (kl, "eval_combo", "klein.eval_combo", lambda a, r: len(a[0]._terms)),
        (kl, "parse_spoly", "klein.parse", None),
        (pr, "fox_derivative", "presentations.fox", lambda a, r: len(r._terms)),
        (pr, "boundary_matrices", "presentations.boundary", None),
        (div, "divide", "division.divide", lambda a, r: len(a[0]._rows)),
        (div, "in_V", "division.in_V", None),
        (div, "monic_witness", "division.monic_witness", lambda a, r: int(r is not None)),
        (cert, "expand_certificate", "certificates.expand", lambda a, r: len(a[1].factors)),
        (cert, "check_certificate", "certificates.check", None),
        # Size: (relator, certificate) pairs offered to the linear scan.
        (cert, "equivalence_verdict", "verify.stage.pi1",
         lambda a, r: len(a[1].relators) * len(a[2]) + len(a[0].relators) * len(a[3])),
        (pr, "euler_characteristic", "verify.stage.chi", None),
        (ver, "build_chain_data", "verify.stage.factorization", None),
        (ver, "chain_composites_vanish", "verify.stage.factorization", None),
        (ver, "verify_factorization", "verify.stage.factorization", None),
        (verdicts, "row_identities", "verify.stage.factorization", None),
        (ver, "verify_bezout", "verify.stage.bezout", None),
        (ver, "splitting_check", "verify.stage.splitting", None),
        (ver, "stafford_verdict", "verify.stage.stafford", None),
        (ver, "full_report", "verify.report", None),
        (ver.NonFreenessReport, "to_json", "cli.render", None),
        (cli, "_emit", "cli.render", None),
    ]


def _child_ns(spans: Sequence[Span]) -> List[int]:
    """Per span, the time its direct children cover."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def summarize(tracer: Tracer, verdicts: int, cli_calls: int) -> Dict[str, float]:
    """Per-layer metrics: per traced verdict, except parse costs (whole
    set-up) and cli.render_ms (per in-process CLI call).  A ratio whose
    layer was never called reads 0."""
    spans = tracer.spans
    names = tracer.names
    child_ns = _child_ns(spans)

    def ancestors(sid: int):
        parent = spans[sid][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    calls: Dict[Tuple[str, int], int] = defaultdict(int)
    self_ns: Dict[Tuple[str, int], int] = defaultdict(int)
    sizes: Dict[Tuple[str, int], int] = defaultdict(int)
    stage_ns: Dict[str, int] = defaultdict(int)
    phase_of = lambda inst: inst if inst < 0 else 0  # noqa: E731
    stage_ids = {i for i, n in enumerate(names) if n.startswith("verify.stage.")}
    id_of = {n: i for i, n in enumerate(names)}
    monic_hits = monic_attempts = matches = 0
    for sid, (idx, start, end, parent, inst, count) in enumerate(spans):
        key = (names[idx], phase_of(inst))
        calls[key] += 1
        self_ns[key] += end - start - child_ns[sid]
        sizes[key] += count
        if inst < 0:
            continue
        if idx in stage_ids and not any(spans[a][0] in stage_ids for a in ancestors(sid)):
            stage_ns[names[idx]] += end - start
        if names[idx] == "division.in_V" and any(
            spans[a][0] == id_of["division.monic_witness"] for a in ancestors(sid)
        ):
            monic_attempts += 1
        if names[idx] == "certificates.check" and any(
            spans[a][0] == id_of["verify.stage.pi1"] for a in ancestors(sid)
        ):
            matches += 1
        if names[idx] == "division.monic_witness":
            monic_hits += count

    def per(value: float) -> float:
        return value / verdicts

    def ms(name: str, phase: int = 0) -> float:
        return self_ns[(name, phase)] / 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for layer, size_key in (
        ("words.mul", "letters_in"),
        ("certificates.expand", "factors"),
        ("presentations.fox", "terms_out"),
        ("klein.eval_combo", "terms_in"),
        ("laurent.mul", "term_pairs"),
        ("klein.spoly_mul", "row_pairs"),
        ("division.divide", "rows_in"),
    ):
        m[f"{layer}.calls"] = per(calls[(layer, 0)])
        m[f"{layer}.self_ms"] = per(ms(layer))
        m[f"{layer}.{size_key}"] = per(sizes[(layer, 0)])
    m["certificates.match_ratio"] = ratio(matches, sizes[("verify.stage.pi1", 0)])
    m["presentations.boundary.self_ms"] = per(ms("presentations.boundary"))
    m["laurent.quotient.calls"] = per(calls[("laurent.quotient", 0)])
    m["laurent.quotient.self_ms"] = per(ms("laurent.quotient"))
    m["laurent.quotient.none_ratio"] = ratio(sizes[("laurent.quotient", 0)], calls[("laurent.quotient", 0)])
    m["laurent.add.calls"] = per(calls[("laurent.add", 0)])
    m["laurent.add.self_ms"] = per(ms("laurent.add"))
    m["division.in_V.calls"] = per(calls[("division.in_V", 0)])
    m["division.monic_witness.self_ms"] = per(ms("division.monic_witness"))
    m["division.monic_witness.hit_ratio"] = ratio(monic_hits, monic_attempts)
    for stage in STAGES:
        m[f"verify.stage.{stage}_ms"] = per(stage_ns[f"verify.stage.{stage}"] / 1e6)
    m["verify.bezout.calls_per_report"] = ratio(
        calls[("verify.stage.bezout", 0)], calls[("verify.report", 0)]
    )
    m["words.parse.self_ms"] = ms("words.parse", SETUP)
    m["laurent.parse.self_ms"] = ms("laurent.parse", SETUP)
    m["cli.render_ms"] = ratio(ms("cli.render", CLI), cli_calls)
    return m


def top_self_ms(tracer: Tracer, verdicts: int, limit: int = 6) -> List[Tuple[str, float]]:
    """Span names with the largest self time per verdict, largest first."""
    spans = tracer.spans
    child_ns = _child_ns(spans)
    totals: Dict[str, int] = defaultdict(int)
    for sid, (idx, start, end, _, inst, _) in enumerate(spans):
        if inst >= 0:
            totals[tracer.names[idx]] += end - start - child_ns[sid]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return [(name, ns / 1e6 / verdicts) for name, ns in ranked]
