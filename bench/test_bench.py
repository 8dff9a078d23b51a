"""Tests of the benchmark itself: output checks, child isolation, spans.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from child import run_child  # noqa: E402
from tracer import TRACE_MARKER, Spans  # noqa: E402
from workloads import (  # noqa: E402
    DEEP_TERMS,
    EVAL_POINTS,
    Command,
    ScalarFamily,
    check_table,
    check_term,
    check_verify,
    eval_poly_text,
    expected_reports,
)

FIB = ScalarFamily("fibonacci", lambda x: x, lambda x: 1)


def _gfp(*args: str):
    return run.Runner(60).spawn(["-m", "gfpoly", *args])


# --- output checks count corrupted output as failed -------------------------


def _table_rows(which: int, n: int) -> list[dict]:
    rows = []
    for i in range(6):
        row = {"table": which, "row": f"row-{i}", "max_index": n, "agree": n * n,
               "total": n * n, "cases": {"FibStrong": n * n}}
        if which == 4:
            row["unequal_e2_equal_one"] = [1, 1]
        rows.append(row)
    return rows


def _lines(rows: list[dict]) -> str:
    return "\n".join(json.dumps(r) for r in rows)


def test_table_check_accepts_full_agreement():
    assert check_table(_lines(_table_rows(3, 4)), 3, 4) == 0
    assert check_table(_lines(_table_rows(4, 4)), 4, 4) == 0


def test_table_check_counts_corrupted_rows():
    rows = _table_rows(3, 4)
    rows[0]["agree"] = 13
    assert check_table(_lines(rows), 3, 4) == 3
    assert check_table(_lines(rows[1:]), 3, 4) == 16
    rows = _table_rows(3, 4)
    rows[2]["total"] = 15
    assert check_table(_lines(rows), 3, 4) == 16
    rows = _table_rows(3, 4)
    rows[3]["row"] = rows[4]["row"]
    assert check_table(_lines(rows), 3, 4) == 16
    assert check_table("not json\n", 3, 4) == 96
    assert check_table(_lines(_table_rows(3, 4)), 5, 4) == 96
    rows = _table_rows(4, 4)
    rows[5]["unequal_e2_equal_one"] = [0, 1]
    assert check_table(_lines(rows), 4, 4) == 16


def _verify_text(pairs: int, max_index: int, failed: dict[str, int] | None = None) -> str:
    failed = failed or {}
    lines, total_p, total_f = [], 0, 0
    for group, n in expected_reports(max_index).items():
        bad = failed.get(group, 0)
        good = pairs * n - bad
        lines.append(f"{group}: {good} passed, {bad} failed")
        total_p, total_f = total_p + good, total_f + bad
    lines.append(f"total: {total_p} passed, {total_f} failed")
    return "\n".join(lines)


def test_verify_check_counts_failed_and_missing_reports():
    everything = 7 * sum(expected_reports(5).values())
    assert check_verify(_verify_text(7, 5), 7, 5) == 0
    assert check_verify(_verify_text(7, 5, {"divides-iff": 2}), 7, 5) == 2
    no_group = [line for line in _verify_text(7, 5).splitlines() if not line.startswith("mixed-shift")]
    assert check_verify("\n".join(no_group), 7, 5) == everything
    assert check_verify(_verify_text(6, 5), 7, 5) == everything
    assert check_verify("", 7, 5) == everything


def test_term_check_counts_a_wrong_coefficient():
    want = tuple(FIB.term_at(6, x) for x in EVAL_POINTS)
    assert want == (8, 70)
    assert check_term("x^5 + 4x^3 + 3x\n", want) == 0
    assert check_term("x^5 + 4x^3 + 2x\n", want) == 1
    assert check_term("x^5 + 4x^3 - 3x\n", want) == 1
    assert check_term("", want) == 1
    assert check_term("x^5 +\n", want) == 1
    assert check_term("x^5 + 4x^3 + 3x\nextra\n", want) == 1


def test_eval_poly_text_parses_signs_and_constants():
    assert eval_poly_text("-x^2 + 3", (1, 2)) == (2, -1)
    assert eval_poly_text("0", (1, 2)) == (0, 0)
    assert eval_poly_text("2x - 1", (2,)) == (3,)
    assert eval_poly_text("2y", (2,)) is None


# --- the checks against real gfp output -------------------------------------


def test_checks_pass_on_real_output():
    assert check_table(_gfp("table", "4", "--max-index", "6", "--json").stdout, 4, 6) == 0
    assert check_verify(_gfp("verify", "--max-index", "4").stdout, 7, 4) == 0
    for family, _ in DEEP_TERMS:
        want = tuple(family.term_at(50, x) for x in EVAL_POINTS)
        assert check_term(_gfp("term", family.name, "50").stdout, want) == 0


def test_runner_fails_every_operation_of_a_failing_child():
    runner = run.Runner(60)
    cmds = (Command(("term", "no-such-family", "5"), 3, lambda out: 0),
            Command(("term", "fibonacci", "5"), 2, lambda out: 0))
    runner.rep(cmds, traced=False)
    assert (runner.attempted, runner.failed) == (5, 3)


def test_trimmed_mean_drops_a_stalled_sample():
    assert run.trimmed_mean([1.0, 1.0, 1.0, 1.0, 9.0]) == 1.0
    assert run.trimmed_mean([1.0, 3.0]) == 2.0


def test_calibration_child_runs_without_gfpoly():
    runner = run.Runner(60)
    assert runner.calibrate() > 0
    assert (runner.attempted, runner.failed) == (1, 0)
    assert "import" not in run.CALIBRATION


def test_repeat_runs_the_first_round_whole_then_stops_at_the_deadline():
    results = run.repeat([lambda: "a", lambda: "b"], 0.0, run.Runner(60))
    assert results == [["a"], ["b"]]
    calls = []
    results = run.repeat([lambda: calls.append(len(calls)) or len(calls)], 0.2, run.Runner(60))
    assert len(results[0]) > 1 and results[0] == list(range(1, len(calls) + 1))


# --- child isolation --------------------------------------------------------


def _py(code: str, timeout: float = 30):
    return run_child([sys.executable, "-c", code], dict(os.environ), str(BENCH), timeout)


def test_child_timeout_is_a_failure():
    result = _py("import time; time.sleep(30)", timeout=0.5)
    assert result.returncode is None and not result.ok
    assert result.wall_s < 10


def test_child_memory_cap_fails_the_child_only():
    result = _py("b = bytearray(3 << 30)")
    assert result.returncode == 1 and "MemoryError" in result.stderr


def test_peak_rss_is_per_child():
    big = _py("b = bytearray(200 << 20); b[::4096] = b'x' * len(b[::4096])")
    small = _py("pass")
    assert big.ok and small.ok
    assert big.peak_rss_mb > 200 > small.peak_rss_mb


def test_child_output_larger_than_a_pipe_buffer():
    result = _py("import sys; sys.stdout.write('x' * (1 << 20))")
    assert result.ok and len(result.stdout) == 1 << 20


def test_sigterm_kills_the_running_child(tmp_path):
    pidfile = tmp_path / "pid"
    sleeper = f"import os, pathlib, time; pathlib.Path({str(pidfile)!r}).write_text(str(os.getpid())); time.sleep(60)"
    script = "\n".join([
        "import signal, sys",
        f"sys.path.insert(0, {str(BENCH)!r})",
        "import child, run",
        "signal.signal(signal.SIGTERM, run._terminate)",
        f"child.run_child([sys.executable, '-c', {sleeper!r}], {{}}, '.', 60)",
    ])
    proc = subprocess.Popen([sys.executable, "-c", script])
    deadline = time.monotonic() + 30
    while not (pidfile.exists() and pidfile.read_text()) and time.monotonic() < deadline:
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    with pytest.raises(ProcessLookupError):
        os.kill(int(pidfile.read_text()), 0)


# --- spans ------------------------------------------------------------------


def test_self_time_excludes_child_spans_and_leaf_calls_nest():
    spans = Spans()

    def busy(n):
        return sum(range(n))

    leaf = spans.wrap("leaf", lambda n: busy(n) + (leaf(n // 100) if n > 10_000 else 0), leaf=True)
    outer = spans.wrap("outer", lambda: busy(200_000) + leaf(200_000))
    outer()
    assert spans.calls == {"outer": 1, "leaf": 1}
    assert spans.total_s["outer"] == pytest.approx(spans.self_s["outer"] + spans.total_s["leaf"])
    assert spans.self_s["leaf"] == spans.total_s["leaf"]


def test_traced_gfp_keeps_stdout_and_reports_layers():
    plain = _gfp("gcd", "lucas", "3", "lucas", "9", "--check")
    traced = run.Runner(60).spawn([str(BENCH / "tracer.py"), "gfp", "gcd", "lucas", "3", "lucas", "9", "--check"])
    assert traced.ok and traced.stdout == plain.stdout
    trace = run._trace_of(traced.stderr)
    metrics = run.layer_metrics(run.merge_traces([trace]))
    assert metrics["gcd_theorems.closed.calls"][0] == 1
    assert metrics["gcd_theorems.oracle.calls"][0] == 1
    assert metrics["gcd_theorems.agree_ratio"][0] == 1.0
    assert metrics["polyring.gcd.calls"][0] >= 1
    assert metrics["families.term.max_index"][0] == 9
    assert traced.stderr.rstrip().splitlines()[-1].startswith(TRACE_MARKER)


def test_traced_verify_counts_every_report():
    traced = run.Runner(60).spawn([str(BENCH / "tracer.py"), "gfp", "verify", "--max-index", "3"])
    metrics = run.layer_metrics(run.merge_traces([run._trace_of(traced.stderr)]))
    assert metrics["identities.reports"][0] == 7 * sum(expected_reports(3).values())
    assert metrics["identities.pass_ratio"][0] == 1.0


# --- the benchmark definition -----------------------------------------------


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = list(run.layer_metrics(run.merge_traces([]))) + ["trace.overhead_ratio"] + run.kernel_names()
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
