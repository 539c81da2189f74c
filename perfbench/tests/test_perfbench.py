"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Tiny inputs only; a full run is `python3 perfbench/run.py ...`.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import verdicts  # noqa: E402

import kleinverify as kv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    for path in SPEC["paths"]:
        assert (ROOT / path).is_dir()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_depends_only_on_seed(workload):
    assert gen.generate(workload, 5, "tiny") == gen.generate(workload, 5, "tiny")
    assert gen.generate(workload, 5, "full") != gen.generate(workload, 6, "full")


def test_generated_text_matches_the_library_syntax():
    p = {7: 3, 1: -1, 0: 1, -2: -4}
    assert kv.parse_rpoly(gen.poly_text(p)) == kv.RPoly(p)
    rows = {3: {0: 1}, 1: {2: -2, -1: 5}, 0: {0: -1}, -2: {1: 1}}
    assert kv.parse_spoly(gen.spoly_text(rows)) == kv.SPoly(
        {m: kv.RPoly(r) for m, r in rows.items()})
    letters = gen.parse_letters("y^-2 x x y^3 x^-1")
    assert kv.parse_word(gen.word_text(letters)) == kv.parse_word("y^-2 x^2 y^3 x^-1")
    assert gen.is_reciprocal([2, 3, 2]) and gen.is_reciprocal([1, 0, -1])
    assert not gen.is_reciprocal([1, 1, 2])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_known_answer_passes(workload):
    parse, check = verdicts.WORKLOADS[workload]
    inputs = gen.generate(workload, 11, "tiny")
    kinds = {inst["kind"] for inst in inputs["instances"]}
    assert kinds - {"builtin", "positive"}, "every batch carries a negative control"
    verdicts.load_builtins()
    for inst in inputs["instances"]:
        assert verdicts.verdict(check, parse(inst), inst["expected"]) == ""


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_a_wrong_expected_answer_is_caught(workload):
    parse, check = verdicts.WORKLOADS[workload]
    inst = gen.generate(workload, 11, "tiny")["instances"][-1]
    wrong = copy.deepcopy(inst["expected"])
    key = next(iter(wrong))
    wrong[key] = not wrong[key] if isinstance(wrong[key], bool) else wrong[key] + 1
    assert verdicts.verdict(check, parse(inst), wrong).startswith("mismatch")


def test_a_raising_verdict_counts_as_failed():
    def broken(_):
        raise ValueError("boom")

    assert "boom" in verdicts.verdict(broken, None, {})


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    proc = _run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_with_a_wrong_expected_answer_fails(monkeypatch, capsys):
    real = gen.generate

    def corrupted(workload, seed, scale):
        inputs = real(workload, seed, scale)
        inputs["instances"][0]["expected"]["one_in_V"] = True
        return inputs

    monkeypatch.setattr(gen, "generate", corrupted)
    code = run.main(["--workload", "dense_ring", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run_bench("paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    t = stats.tail(list(range(1, 101)))
    assert (t["percentile"], t["value"], t["samples"]) == (90, 90, 100)
    assert stats.tail(list(range(10000)))["percentile"] == stats.TAIL_MAX
    assert stats.tail([5, 1, 3])["percentile"] == 50


def test_loglog_slope_recovers_the_exponent():
    assert stats.loglog_slope([(n, 3.0 * n ** 2) for n in (10, 20, 40, 80)]) == pytest.approx(2.0)


def test_reference_speed_scaling():
    assert stats.at_reference(2.0, stats.CAL_REF_S) == pytest.approx(2.0)
    assert stats.at_reference(2.0, 2 * stats.CAL_REF_S) == pytest.approx(1.0)
    assert stats.at_reference(2.0, 0.03, stats.FLOOR_REF_S) == pytest.approx(4.0)
