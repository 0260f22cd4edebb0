"""Start, time and stop ``repro serve`` subprocesses.

Readiness is observed, not waited for: the server prints its address once
it is listening, and ``/readyz`` is then polled every
:data:`READY_POLL_S` seconds.  The poll interval is reported next to
``setup_s`` so a reader can see it bounds the measurement.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.machine import process_peak_rss_mb

READY_POLL_S = 0.002
BANNER_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One ``repro serve`` process, untraced or under the traced launcher."""

    def __init__(self, root: Path, log_path: Path, serve_args: list[str],
                 spans_path: Path | None = None):
        self.root = root
        self.log_path = log_path
        self.serve_args = list(serve_args)
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.port: int | None = None

    def start(self) -> float:
        """Spawn the server; return seconds until ``/readyz`` answers 200."""
        from repro.api.client import SmartMLClient
        from repro.exceptions import SmartMLError

        if self.spans_path is not None:
            cmd = [sys.executable, str(self.root / "perfbench" / "serve_traced.py"),
                   str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        cmd += self.serve_args + ["--port", "0"]
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, cwd=self.root,
                env=child_env(self.root),
            )
        self.port = self._read_port()
        self.client = SmartMLClient(port=self.port, timeout=60.0, connect_retry_s=0)
        while True:
            try:
                self.client.readyz()
                return time.perf_counter() - started
            except SmartMLError:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with {self.proc.returncode}")
            time.sleep(READY_POLL_S)

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], BANNER_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        marker = "http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server did not announce its address: {line!r}")
        return int(line.split(marker, 1)[1].split()[0])

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains) and wait; kill if it will not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def cold_starts(make, n: int) -> tuple[list[float], "ServerProcess"]:
    """Start ``n`` servers one after another from ``make(i)``; stop all but
    the last.  Returns every start time and the server left running."""
    times = []
    server = None
    for i in range(n):
        if server is not None:
            server.stop()
        server = make(i)
        try:
            times.append(server.start())
        except BaseException:
            server.stop()
            raise
    return times, server


def setup_outcome(starts: list[float]) -> dict:
    """``setup_s`` and its provenance; flags a poll that could quantize it."""
    setup_s = statistics.median(starts)
    errors = []
    if READY_POLL_S > 0.1 * setup_s:
        errors.append(
            f"readiness poll {READY_POLL_S * 1e3:g} ms is over a tenth of "
            f"setup_s {setup_s * 1e3:.1f} ms"
        )
    return {
        "setup_s": setup_s,
        "setup_samples": starts,
        "setup_how": f"spawn to /readyz 200, polled every {READY_POLL_S * 1e3:g} ms",
        "setup_errors": errors,
    }
