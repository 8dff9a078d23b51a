"""tools/mutants.py's killed(): a timed-out test run leaves no process behind.

A mutant that lifts a cap can make a CLI test start a `python -m gfpoly`
command that runs for an hour; killing only pytest would orphan it.  Here
a throwaway copy's one test starts a sleeping grandchild and then sleeps
past the timeout, and the grandchild must be gone soon after.
"""

from __future__ import annotations

import importlib.util
import os
import signal
import time
from pathlib import Path

spec = importlib.util.spec_from_file_location("mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

SLEEPER = """\
import subprocess, sys, time
from pathlib import Path


def test_sleeps_past_the_timeout():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    Path("pid").write_text(str(child.pid))
    time.sleep(60)
"""


def gone(pid: int) -> bool:
    """No such process, or a killed one that its new parent has yet to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False


def test_timed_out_run_kills_the_grandchild(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sleeper.py").write_text(SLEEPER)
    assert mutants.killed(tmp_path, "tests", 2)
    pid = int((tmp_path / "pid").read_text())
    deadline = time.monotonic() + 5
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if not gone(pid):
        os.kill(pid, signal.SIGKILL)
        raise AssertionError(f"grandchild {pid} outlived the timed-out run")
