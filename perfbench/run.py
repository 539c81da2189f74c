"""The kleinverify benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding
``src/kleinverify``); the package need not be installed.  Inputs come
from ``gen.py`` and depend only on the workload and the seed.  Load is a
closed loop with one caller: one process, one call at a time, and child
processes run one after another.

With ``--trace 0`` the run measures, tracing off:

- ``setup_s``: spawn to first timed call of a fresh interpreter (start
  Python, import kleinverify, load the built-ins, parse the text inputs);
  median of SETUP_RUNS fresh interpreters, after one uncounted warm-up;
- ``verdict_ms_p50`` / ``verdict_ms_tail``: one instance from parsed
  inputs to a checked verdict, in a warm process; the tail is the highest
  percentile up to p95 with ten samples beyond it;
- ``verdicts_per_s``: verdicts completed per second of verdict time;
- ``cli_ms_p50`` / ``cli_ms_tail``: wall time of the workload's CLI
  command as a subprocess, interpreter start included;
- ``peak_rss_mb``: ``ru_maxrss`` of the child that ran the verdicts.

Times are scaled to a reference speed by a yardstick timed next to them
(see stats.py and README.md), because the host's speed drifts.

Two thirds of ``--seconds`` go to the verdict loop, one third to the CLI
loop; each finishes its pass over the batch.  With ``--trace 1`` a
separate child runs the batch with span wrappers installed and reports
per-layer metrics (see README.md).  Every verdict and CLI call is checked
against its expected answer; a failed or raising one counts in
``failed``.  The last line of stdout is the JSON result; the exit status
is 0 when every check passed, 1 when one failed and 2 when the checkout
has no kleinverify sources.  Full results, the environment and the spans
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import gen
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7
VERDICT_SHARE = 2 / 3
# Seconds of CLI runs in a traced run, for the set-up share of cli_ms_p50.
TRACE_CLI_SECONDS = 2.0
CHILD_TIMEOUT = 170

END_TO_END_UNITS = {
    "setup_s": "s", "verdict_ms_p50": "ms", "verdict_ms_tail": "ms",
    "verdicts_per_s": "1/s", "cli_ms_p50": "ms", "cli_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """A child process of the harness itself failed; no result is printed."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _run(argv: List[str]) -> Tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion; returns (perf_counter at spawn, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT
    )
    return t0, proc


def _worker(mode: str, inputs_path: Path, seconds: float = 0.0) -> Tuple[float, Dict]:
    t0, proc = _run([sys.executable, str(HERE / "worker.py"), mode, str(inputs_path),
                     str(seconds), str(OUT)])
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return t0, json.loads(proc.stdout.splitlines()[-1])


def _setup_parts(spawn: float, result: Dict) -> Dict[str, float]:
    """Seconds per set-up phase of a worker; the phases sum to the total."""
    stamps = result["stamps"]
    return {
        "interpreter": stamps["import0"] - spawn,
        "import": stamps["import"] - stamps["import0"],
        "builtin": stamps["builtin"] - stamps["import"],
        "parse": stamps["ready"] - stamps["builtin"],
        "total": stamps["ready"] - spawn,
    }


def _floor() -> float:
    """Wall seconds of one `python -c pass`, the subprocess yardstick."""
    t0, _ = _run([sys.executable, "-c", "pass"])
    return time.perf_counter() - t0


def _environment(floor_ms: float) -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "pinning": "none: no CPU pinning or frequency control was used",
        "python_floor_ms": floor_ms,
    }


def _cli_loop(cases: List[Dict], seconds: float) -> Tuple[List[float], List[float], List[str]]:
    """CLI subprocess runs over the cases, each followed by a floor run,
    until SECONDS have passed and every case ran once.  Returns (raw wall
    seconds, floor seconds, failures)."""
    raw, floors, failures = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        t0, proc = _run([sys.executable, "-m", "kleinverify.cli", *case["argv"]])
        raw.append(time.perf_counter() - t0)
        floors.append(_floor())
        why = gen.cli_failure(case, proc.returncode, proc.stdout)
        if why:
            failures.append(f"case {i % len(cases)}: {why}: {proc.stderr[-300:]}")
        i += 1
    return raw, floors, failures


def _setups(inputs_path: Path) -> Tuple[List[Dict[str, float]], List[float]]:
    """SETUP_RUNS fresh set-up workers after one uncounted warm-up, with a
    floor run before the first and after each.  Returns (phases in raw
    seconds, floors); setup i lies between floors i and i + 1."""
    _worker("setup", inputs_path)
    setups, floors = [], [_floor()]
    for _ in range(SETUP_RUNS):
        setups.append(_setup_parts(*_worker("setup", inputs_path)))
        floors.append(_floor())
    return setups, floors


def _write_inputs(workload: str, seed: int, scale: str) -> Tuple[Path, Dict]:
    """Generate the inputs, write CLI input files and the inputs JSON."""
    inputs = gen.generate(workload, seed, scale)
    for i, case in enumerate(inputs["cli"]):
        content = case.pop("file", None)
        if content is not None:
            path = OUT / f"cli_{workload}_{i}.json"
            path.write_text(json.dumps(content), encoding="utf-8")
            case["argv"] = [str(path) if a == "{file}" else a for a in case["argv"]]
    path = OUT / f"inputs_{workload}.json"
    path.write_text(json.dumps(inputs), encoding="utf-8")
    return path, inputs


def measure(inputs_path: Path, inputs: Dict, seconds: float) -> Dict:
    setups, setup_floors = _setups(inputs_path)
    _, res = _worker("measure", inputs_path, seconds * VERDICT_SHARE)
    cli_raw, cli_floors, cli_failures = _cli_loop(inputs["cli"], seconds * (1 - VERDICT_SHARE))
    cals = res["calibrations"]
    raw_ms = [ns / 1e6 for ns in res["samples_ns"]]
    # Verdict j lies between calibrations k and k + 1 (k = cal_index[j]),
    # so short bursts of host load show in its yardstick.  CLI run i lies
    # between floors i - 1 and i; the median of the five nearest floors
    # follows the drift without passing on one floor run's jitter.
    samples_ms = [stats.at_reference(t, (cals[k] + cals[k + 1]) / 2)
                  for t, k in zip(raw_ms, res["cal_index"])]
    verdict_tail = stats.tail(samples_ms)
    cli_ms = [stats.at_reference(t, statistics.median(cli_floors[max(0, i - 2):i + 3]),
                                 stats.FLOOR_REF_S) * 1e3
              for i, t in enumerate(cli_raw)]
    cli_tail = stats.tail(cli_ms)
    setup_raw = statistics.median([s["total"] for s in setups])
    setup_s = statistics.median([
        stats.at_reference(s["total"], (f0 + f1) / 2, stats.FLOOR_REF_S)
        for s, f0, f1 in zip(setups, setup_floors, setup_floors[1:])
    ])
    metrics = {
        "setup_s": setup_s,
        "verdict_ms_p50": statistics.median(samples_ms),
        "verdict_ms_tail": verdict_tail["value"],
        "verdicts_per_s": len(samples_ms) / (sum(samples_ms) / 1e3),
        "cli_ms_p50": statistics.median(cli_ms),
        "cli_ms_tail": cli_tail["value"],
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    failures = [f"verdict {f['index']}: {f['why']}" for f in res["failures"]] + cli_failures
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "attempted": len(samples_ms) + len(cli_ms),
        "failures": failures,
        "floors": setup_floors + cli_floors,
        "notes": {
            "verdict_ms_tail": {k: verdict_tail[k] for k in ("percentile", "samples")},
            "cli_ms_tail": {k: cli_tail[k] for k in ("percentile", "samples")},
            "raw": {
                "setup_s": setup_raw,
                "verdict_ms_p50": statistics.median(raw_ms),
                "cli_ms_p50": statistics.median(cli_raw) * 1e3,
                "kernel_ms_median": statistics.median(cals) * 1e3,
            },
            "setup_parts_ms": {k: statistics.median([s[k] for s in setups]) * 1e3 for k in setups[0]},
        },
    }


def trace(inputs_path: Path, inputs: Dict, units: Dict[str, str]) -> Dict:
    setups, setup_floors = _setups(inputs_path)
    _, res = _worker("trace", inputs_path)
    metrics = dict(res["metrics"])
    for part in ("interpreter", "import", "builtin", "parse"):
        metrics[f"setup.{part}_ms"] = statistics.median([s[part] for s in setups]) * 1e3
    cli, cli_floors, cli_failures = _cli_loop(inputs["cli"], TRACE_CLI_SECONDS)
    setup_ms = sum(metrics[f"setup.{p}_ms"] for p in ("interpreter", "import", "builtin", "parse"))
    cli_p50 = statistics.median(cli) * 1e3
    failures = [f"verdict {f['index']}: {f['why']}" for f in res["failures"]] + cli_failures
    return {
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "attempted": res["attempted"] + len(cli),
        "failures": failures,
        "floors": setup_floors + cli_floors,
        "notes": {
            "top_self_ms_per_verdict": res["top_self_ms"],
            "setup_share_of_cli_p50": {"setup_ms": setup_ms, "cli_ms_p50": cli_p50,
                                       "share": setup_ms / cli_p50},
            "series": res["series"],
            "spans": res["spans"],
            "spans_file": res["spans_file"],
        },
    }


def _per_layer_units() -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=tuple(gen.SCALES),
                    help="input sizes; 'tiny' is for the harness's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "kleinverify" / "__init__.py").is_file():
        print(f"error: no kleinverify sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    inputs_path, inputs = _write_inputs(args.workload, args.seed, args.scale)
    try:
        if args.trace:
            result = trace(inputs_path, inputs, _per_layer_units())
        else:
            result = measure(inputs_path, inputs, args.seconds)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = _environment(statistics.median(result["floors"]) * 1e3)
    failed = len(result["failures"])
    final = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }
    record = dict(final, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, size=inputs["size"], environment=env,
                  failed_ratio=failed / result["attempted"], failures=result["failures"],
                  notes=result["notes"])
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"size {json.dumps(inputs['size'])}")
    print(f"# environment {json.dumps(env)}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name)
        extra = f"  (p{note['percentile']} of {note['samples']} samples)" if note else ""
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"{'failed_ratio':<36} {failed / result['attempted']:>14.6g} ratio "
          f"({failed} of {result['attempted']})")
    for line in result["failures"][:20]:
        print(f"# FAILED {line}")
    if args.trace:
        print(f"# largest self time per verdict: {result['notes']['top_self_ms_per_verdict']}")
        print(f"# set-up share of cli_ms_p50: {result['notes']['setup_share_of_cli_p50']}")
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
