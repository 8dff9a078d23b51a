"""Benchmark of the gfp command line, run as a user runs it.

    python3 bench/run.py --workload paper --seed 7 --seconds 60 --trace 0

Each workload's gfp commands run one child process at a time, in turn,
round after round until --seconds is used up.  With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a separate traced run (see tracer.py).  The line
before it records the run: seed, interpreter, machine, git sha and the raw
samples.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from child import ChildResult, run_child
from tracer import KERNEL_DEGREES, KERNEL_FAMILIES, TRACE_MARKER
from workloads import WORKLOADS, Command, commands, expected_reports

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 7
CHILD_TIMEOUT_S = 60.0

# The shared machine's speed drifts by a quarter and more over minutes, in
# gfp and in any other Python code alike.  So a fixed program that imports
# nothing runs in a child before each command, and the times of a run are
# scaled by CALIBRATION_REF_S over its mean time: they read as seconds on a
# machine where it takes CALIBRATION_REF_S, and a change of speed cancels
# out.  Nothing gfp does can change its time.  It mixes the kinds of work
# gfp does: small-int loops, and list convolutions of small and of
# 800-bit ints, like Poly.__mul__.
CALIBRATION = """\
s = 0
for i in range(900_000):
    s += i * i % 7
for reps, base, power in ((220, 7919, 1), (60, 7919, 40)):
    a = [(i * base) ** power % 1_000_003 ** power for i in range(48)]
    for _ in range(reps):
        c = [0] * 95
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                c[i + j] += x * y
"""
CALIBRATION_REF_S = 0.6
RUN_BUDGET_S = 150.0  # hard stop for the whole run; children are killed past it

# ok_ratio is 1 - failed/attempted.  failed_ratio would read 0 on every
# healthy run, and a metric that is always 0 has no median to compare with.
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}
IDENTITY_GROUPS = tuple(expected_reports(1))
POLYRING_OPS = ("gcd", "mul", "add", "exact_div")
TRACE_MAXIMA = ("gcd_max_degree", "term_max_index", "term_max_coeff_bits")


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    traces: list[dict] = field(default_factory=list)

    def add(self, result: ChildResult) -> None:
        self.wall_s += result.wall_s
        self.cpu_s += result.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, result.peak_rss_mb)


class Runner:
    """Spawns children under the run's deadline and tallies operations."""

    def __init__(self, budget_s: float):
        self.deadline = time.perf_counter() + budget_s
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        # Single-threaded tables, and bytecode caches as an installed gfp has.
        for name in ("GFP_THREADS", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline

    def spawn(self, argv: list[str]) -> ChildResult:
        timeout = min(CHILD_TIMEOUT_S, max(self.deadline - time.perf_counter(), 0.1))
        return run_child([sys.executable, *argv], self.env, str(ROOT), timeout)

    def tally(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += min(ops, max(failed, 0))

    def setup(self) -> float:
        """Wall time of a child that imports gfpoly.cli and does no work."""
        result = self.spawn(["-c", "import gfpoly.cli"])
        self.tally(1, 0 if result.ok else 1)
        return result.wall_s

    def calibrate(self) -> float:
        """Wall time of the calibration child."""
        result = self.spawn(["-I", "-c", CALIBRATION])
        self.tally(1, 0 if result.ok else 1)
        return result.wall_s

    def run(self, cmd: Command, traced: bool) -> tuple[ChildResult, dict | None]:
        """One gfp command in a child, its output checked; the trace when traced."""
        prefix = [str(BENCH / "tracer.py"), "gfp"] if traced else ["-m", "gfpoly"]
        result = self.spawn([*prefix, *cmd.args])
        trace = _trace_of(result.stderr) if traced else None
        ok = result.ok and (trace is not None or not traced)
        self.tally(cmd.ops, cmd.check(result.stdout) if ok else cmd.ops)
        return result, trace

    def rep(self, cmds: tuple[Command, ...], traced: bool) -> Rep:
        rep = Rep()
        for cmd in cmds:
            result, trace = self.run(cmd, traced)
            rep.add(result)
            if trace:
                rep.traces.append(trace)
        return rep

    def kernels(self) -> dict[str, float]:
        result = self.spawn([str(BENCH / "tracer.py"), "kernels"])
        cases = 3 * len(KERNEL_FAMILIES) * len(KERNEL_DEGREES)
        try:
            data = json.loads(result.stdout.splitlines()[-1])
            ns, failed = data["ns"], data["failed"]
        except (IndexError, ValueError, KeyError, TypeError):
            ns, failed = {}, cases
        self.tally(cases, failed if result.ok else cases)
        return ns


def _trace_of(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARKER):
            try:
                return json.loads(line[len(TRACE_MARKER):])
            except ValueError:
                return None
    return None


def repeat(steps, seconds: float, runner: Runner) -> list[list]:
    """Call the steps in turn, round after round, for `seconds`; each step's results.

    The first round runs whole.  After it, a step is called only if 1.25
    times its longest call so far still fits, since the machine's speed
    varies from one call to the next; the run ends at the first step that
    does not fit.
    """
    start = time.perf_counter()
    results: list[list] = [[] for _ in steps]
    longest = [0.0] * len(steps)
    while True:
        for i, step in enumerate(steps):
            if results[i] and (time.perf_counter() - start + 1.25 * longest[i] > seconds
                               or runner.out_of_time()):
                return results
            began = time.perf_counter()
            results[i].append(step())
            longest[i] = max(longest[i], time.perf_counter() - began)


# --- metrics ----------------------------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def merge_traces(traces: list[dict]) -> dict:
    """One trace for a repetition: counts and times add, maxima take the max."""
    merged: dict = {"calls": Counter(), "self_s": Counter(), "total_s": Counter()}
    for trace in traces:
        for key, value in trace.items():
            if isinstance(value, dict):
                merged[key].update(value)
            elif key in TRACE_MAXIMA:
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    calls, self_s, total_s = trace["calls"], trace["self_s"], trace["total_s"]
    out: dict[str, tuple[float, str]] = {}
    for op in POLYRING_OPS:
        out[f"polyring.{op}.calls"] = (calls[f"polyring.{op}"], "count")
        out[f"polyring.{op}.self_s"] = (self_s[f"polyring.{op}"], "s")
    out["polyring.gcd.max_degree"] = (trace.get("gcd_max_degree", 0), "degree")
    out["polyring.exact_div.miss_ratio"] = (
        _ratio(trace.get("exact_div_misses", 0), calls["polyring.exact_div"]), "ratio")
    out["families.term.calls"] = (calls["families.term"], "count")
    out["families.term.built"] = (trace.get("term_built", 0), "count")
    out["families.term.hit_ratio"] = (_ratio(trace.get("term_hits", 0), calls["families.term"]), "ratio")
    out["families.term.self_s"] = (self_s["families.term"], "s")
    out["families.term.max_index"] = (trace.get("term_max_index", 0), "index")
    out["families.term.max_coeff_bits"] = (trace.get("term_max_coeff_bits", 0), "bits")
    out["families.caches"] = (trace.get("caches", 0), "count")
    for part in ("closed", "oracle"):
        out[f"gcd_theorems.{part}.calls"] = (calls[f"gcd_theorems.{part}"], "count")
        out[f"gcd_theorems.{part}.self_s"] = (self_s[f"gcd_theorems.{part}"], "s")
    out["gcd_theorems.agree_ratio"] = (_ratio(trace.get("agree", 0), calls["gcd_theorems.compare"]), "ratio")
    out["identities.reports"] = (trace.get("reports", 0), "count")
    out["identities.pass_ratio"] = (_ratio(trace.get("reports_passed", 0), trace.get("reports", 0)), "ratio")
    out["identities.self_s"] = (sum(self_s[f"identities.{g}"] for g in IDENTITY_GROUPS), "s")
    for group in IDENTITY_GROUPS:
        out[f"identities.{group}.s"] = (total_s[f"identities.{group}"], "s")
    out["cli.self_s"] = (trace.get("import_s", 0.0) + self_s["cli"], "s")
    return out


def kernel_names() -> list[str]:
    return [f"polyring.kernel.{op}.{family}.d{degree}_ns"
            for family in KERNEL_FAMILIES for degree in KERNEL_DEGREES
            for op in ("mul", "exact_div", "gcd")]


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest fifth of the values.

    The machine's speed drifts over a run, so a mean over all of it is
    steadier from run to run than the median of a few samples; the trim
    keeps one stalled sample from setting it.
    """
    cut = len(values) // 5
    return statistics.mean(sorted(values)[cut:len(values) - cut])


def end_to_end(runner: Runner, cmds: tuple[Command, ...], seconds: float) -> tuple[dict, dict]:
    # Commands are sampled one at a time, so a long command does not leave
    # the end of the run unused.  A calibration and a set-up sample precede
    # each command, so both spread over the run and no slow spell sets them.
    def step(cmd: Command):
        return lambda: (runner.calibrate(), runner.setup(), runner.run(cmd, traced=False)[0])

    rounds = repeat([step(cmd) for cmd in cmds], seconds, runner)
    calibration = [c for results in rounds for c, _, _ in results]
    setup = [t for results in rounds for _, t, _ in results]
    children = [[result for _, _, result in results] for results in rounds]
    scale = CALIBRATION_REF_S / trimmed_mean(calibration)
    values = {
        "wall_s": scale * sum(trimmed_mean([r.wall_s for r in rs]) for rs in children),
        "cpu_s": scale * sum(trimmed_mean([r.cpu_s for r in rs]) for rs in children),
        "peak_rss_mb": max(statistics.median(r.peak_rss_mb for r in rs) for rs in children),
        "setup_s": scale * statistics.median(setup),
        "ok_ratio": 1 - _ratio(runner.failed, runner.attempted),
    }
    # Raw seconds, before scaling.
    samples = {"scale": scale, "calibration_s": calibration, "setup_s": setup,
               "wall_s": [[r.wall_s for r in rs] for rs in children],
               "cpu_s": [[r.cpu_s for r in rs] for rs in children],
               "peak_rss_mb": [[r.peak_rss_mb for r in rs] for rs in children]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, samples


def per_layer(runner: Runner, cmds: tuple[Command, ...], seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    ns = runner.kernels()
    [pairs] = repeat([lambda: (runner.rep(cmds, traced=False), runner.rep(cmds, traced=True))],
                     seconds - (time.perf_counter() - start), runner)
    layers = [layer_metrics(merge_traces(traced.traces)) for _, traced in pairs]
    metrics = {name: {"value": statistics.median(layer[name][0] for layer in layers), "unit": unit}
               for name, (_, unit) in layers[0].items()}
    overheads = [_ratio(traced.wall_s, plain.wall_s) for plain, traced in pairs]
    metrics["trace.overhead_ratio"] = {"value": statistics.median(overheads), "unit": "ratio"}
    for name in kernel_names():
        key = name.removeprefix("polyring.kernel.")
        metrics[name] = {"value": ns.get(key, 0.0), "unit": "ns"}
    samples = {"overhead_ratio": overheads, "untraced_wall_s": [p.wall_s for p, _ in pairs],
               "traced_wall_s": [t.wall_s for _, t in pairs]}
    return metrics, samples


# --- run metadata -----------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def run_metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, recorded with every result")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measure until another command would overrun this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_child, which kills its child


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "gfpoly" / "cli.py").is_file():
        print(f"bench: no gfpoly sources under {SRC}", file=sys.stderr)
        return 2
    meta = run_metadata(args)
    runner = Runner(RUN_BUDGET_S)
    cmds = commands(args.workload)
    runner.setup()  # the first import writes bytecode caches; not a sample
    measure = per_layer if args.trace else end_to_end
    metrics, samples = measure(runner, cmds, args.seconds)
    meta["commands"] = [" ".join(("gfp", *c.args)) for c in cmds]
    meta["samples"] = samples
    print(json.dumps({"bench": meta}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
