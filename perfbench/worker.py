"""Benchmark child process: one fresh interpreter per set-up measurement.

    python3 perfbench/worker.py MODE INPUTS SECONDS OUT_DIR

with the repository's ``src`` on PYTHONPATH.  MODE is

- ``setup``: import, load the built-ins, parse INPUTS, report the
  time stamps and exit;
- ``measure``: set up, then run verdicts over the batch for SECONDS (at
  least one full pass), tracing off;
- ``trace``: set up with the tracer on, then a warm-up pass, untraced
  and traced passes, the workload's CLI command in process, and the size
  series.

Prints one JSON object on stdout.  Time stamps are ``time.perf_counter``
values (CLOCK_MONOTONIC on Linux), comparable with the parent's.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

# Passes over the batch in a traced run; paper verdicts take milliseconds,
# so it gets more of them.
TRACE_PASSES = {"paper": 5}
# Seconds between speed calibrations in the verdict loop.
CAL_PERIOD = 0.25


def _setup(inputs_path, tracer=None):
    t_import0 = time.perf_counter()
    import kleinverify  # noqa: F401

    t_import = time.perf_counter()
    import verdicts

    verdicts.load_builtins()
    t_builtin = time.perf_counter()
    if tracer is not None:
        _install(tracer)
    import json

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    parse, check = verdicts.WORKLOADS[inputs["workload"]]
    batch = [(parse(inst), inst["expected"]) for inst in inputs["instances"]]
    t_ready = time.perf_counter()
    stamps = {
        "start": T_START, "import0": t_import0, "import": t_import,
        "builtin": t_builtin, "ready": t_ready,
    }
    return inputs, check, batch, stamps


def _install(tracer):
    import tracing
    import verdicts

    tracer.install(tracing.targets(verdicts.kv, verdicts), tracing.library_modules([verdicts]))


def _passes(check, batch, seconds, verdict, cal_period=None):
    """Verdicts over the batch until SECONDS have passed and every instance
    ran at least once.

    Returns (samples_ns, failures, calibrations, calibration index per
    sample).  With CAL_PERIOD, the speed kernel runs before a verdict when
    that many seconds passed since it last ran, and once after the loop,
    so every sample lies between two calibrations.
    """
    import stats

    samples, failures, cals, cal_index = [], [], [], []
    deadline = time.perf_counter() + seconds
    last_cal = float("-inf")
    i = 0
    while i < len(batch) or time.perf_counter() < deadline:
        if cal_period is not None and time.perf_counter() - last_cal >= cal_period:
            cals.append(stats.calibrate())
            last_cal = time.perf_counter()
        parsed, expected = batch[i % len(batch)]
        t0 = time.perf_counter_ns()
        why = verdict(check, parsed, expected)
        samples.append(time.perf_counter_ns() - t0)
        cal_index.append(len(cals) - 1)
        if why:
            failures.append({"index": i % len(batch), "why": why})
        i += 1
    if cal_period is not None:
        cals.append(stats.calibrate())
    return samples, failures, cals, cal_index


def _maxrss_kb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_cli_in_process(case):
    import contextlib
    import io

    import gen
    from kleinverify import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(case["argv"])
    return gen.cli_failure(case, code, buf.getvalue())


def _trace(inputs_path, out_dir):
    import random
    import statistics

    import growth
    import stats
    import tracing
    import verdicts

    tracer = tracing.Tracer()
    inputs, check, batch, _ = _setup(inputs_path, tracer)
    tracer.uninstall()
    passes = TRACE_PASSES.get(inputs["workload"], 1)
    _passes(check, batch, 0, verdicts.verdict)  # warm-up, so every timed verdict runs warm
    # Each instance runs untraced, then traced, so drift of the host's speed
    # between the two hardly enters trace.overhead_ratio.
    plain, traced, failures = [], [], []

    def timed(times, k):
        """Time one verdict, scaled by the speed kernel run around it."""
        parsed, expected = batch[k]
        cal = stats.calibrate()
        t0 = time.perf_counter_ns()
        why = verdicts.verdict(check, parsed, expected)
        elapsed = time.perf_counter_ns() - t0
        times.append(stats.at_reference(elapsed, (cal + stats.calibrate()) / 2))
        if why:
            failures.append({"index": k, "why": why})

    for _ in range(passes):
        for k in range(len(batch)):
            timed(plain, k)
            tracer.instance = len(traced)
            _install(tracer)
            timed(traced, k)
            tracer.uninstall()
    tracer.instance = tracing.CLI
    _install(tracer)
    why = _run_cli_in_process(inputs["cli"][0])
    tracer.uninstall()
    if why:
        failures.append({"index": -1, "why": why})

    metrics = tracing.summarize(tracer, len(traced), 1)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    series = growth.run_series(random.Random(f"growth:{inputs['seed']}"), inputs["scale"])
    for layer, result in series.items():
        metrics[f"growth.{layer}"] = result["exponent"]
    spans_file = f"{out_dir}/trace_{inputs['workload']}.csv"
    tracer.write_csv(spans_file)
    return {
        "metrics": metrics,
        "attempted": len(plain) + len(traced) + 1,
        "failures": failures,
        "series": series,
        "top_self_ms": tracing.top_self_ms(tracer, len(traced)),
        "spans": len(tracer.spans),
        "spans_file": spans_file,
    }


def main():
    import json

    mode, inputs_path, seconds, out_dir = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    if mode == "setup":
        result = {"stamps": _setup(inputs_path)[3]}
    elif mode == "measure":
        _, check, batch, stamps = _setup(inputs_path)
        import verdicts

        samples, failures, cals, cal_index = _passes(
            check, batch, seconds, verdicts.verdict, CAL_PERIOD)
        result = {
            "stamps": stamps, "samples_ns": samples, "failures": failures,
            "calibrations": cals, "cal_index": cal_index, "maxrss_kb": _maxrss_kb(),
        }
    elif mode == "trace":
        result = _trace(inputs_path, out_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
