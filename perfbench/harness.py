"""Run one job process and measure it: spawn, import and exit times on
CLOCK_MONOTONIC, the exit code, and the process's own peak RSS."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence


def now() -> float:
    """CLOCK_MONOTONIC, the clock the job process stamps its import with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class JobResult:
    spawned: float
    imported: Optional[float]  # None when the job never wrote its stamp
    ended: float
    exit_code: int  # negative: killed by that signal
    timed_out: bool
    peak_rss_kb: int

    @property
    def ready(self) -> float:
        """When the job could start work: import done, or exit if never."""
        return self.ended if self.imported is None else self.imported

    @property
    def setup_s(self) -> float:
        return self.ready - self.spawned

    @property
    def job_s(self) -> float:
        return self.ended - self.ready


def run_job(cmd: Sequence[str], *, env: dict, cwd: Path, stdout_path: Path,
            stamp_path: Path, timeout: float) -> JobResult:
    """Run cmd to completion, killing it after timeout seconds. The process
    is always reaped before this returns."""
    stamp_path.unlink(missing_ok=True)
    with open(stdout_path, "wb") as out:
        spawned = now()
        proc = subprocess.Popen(list(cmd), env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.DEVNULL)
    try:
        # Wait on a pidfd so that the child is not reaped before wait4 can
        # read its rusage, and is never killed after its pid was freed.
        fd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([fd], [], [], timeout)[0]
        finally:
            os.close(fd)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    if timed_out:
        os.kill(proc.pid, signal.SIGKILL)
    _, status, usage = os.wait4(proc.pid, 0)
    ended = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        imported = float(stamp_path.read_text())
    except (FileNotFoundError, ValueError):
        imported = None
    return JobResult(spawned, imported, ended, proc.returncode, timed_out, usage.ru_maxrss)
