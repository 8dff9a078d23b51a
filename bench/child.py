"""Run one child process under a memory cap and a wall-clock timeout.

Peak RSS and CPU time come from os.wait4 on that one child.
getrusage(RUSAGE_CHILDREN) would keep the maximum RSS across every child
reaped so far, so a small command run after a large one would report the
large one's memory.
"""

from __future__ import annotations

import os
import resource
import select
import subprocess
import time
from dataclasses import dataclass

# Address-space cap per child.  deep-term peaks near 0.5 GB; a blow-up past
# the cap fails that one operation with MemoryError instead of drawing on
# the memory of the whole machine.
MEMORY_CAP_BYTES = 2 << 30


@dataclass(frozen=True)
class ChildResult:
    returncode: int | None  # None when the child was killed at the timeout
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_child(argv: list[str], env: dict[str, str], cwd: str, timeout: float) -> ChildResult:
    """Run argv to completion, or kill it after timeout seconds.

    Pipes are drained while waiting, so a child with megabytes of output
    cannot block on a full pipe.  Wall time runs from just before the spawn
    to the reap.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd, preexec_fn=_limit_memory)
    pidfd = os.pidfd_open(proc.pid)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    open_fds = {out_fd, err_fd}
    exited = timed_out = reaped = False
    deadline = start + timeout
    try:
        while open_fds or not exited:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            watch = list(open_fds) + ([] if exited else [pidfd])
            ready, _, _ = select.select(watch, [], [], None if timed_out else max(remaining, 0))
            for fd in ready:
                if fd == pidfd:
                    exited = True
                    continue
                data = os.read(fd, 1 << 16)
                if data:
                    chunks[fd].append(data)
                else:
                    open_fds.discard(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        if not reaped:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
        os.close(pidfd)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    # Popen did not reap the child itself; record the status so it never tries.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=None if timed_out else proc.returncode,
        stdout=b"".join(chunks[out_fd]).decode(),
        stderr=b"".join(chunks[err_fd]).decode(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )
