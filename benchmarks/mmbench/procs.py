"""Server and shard subprocesses for the wire and cluster workloads.

Every process started here is a ``python -m repro.cli serve`` child of the
driver.  :class:`ServerProc` owns one child from launch to reap: free-port
selection, a readiness wait with a timeout, graceful stop (SIGINT, the
CLI's documented drain signal) escalating to SIGKILL, and ``/proc`` reads
of the child's CPU time and peak RSS — ``RUSAGE_CHILDREN`` only covers
children that already exited, so a live server has to be read this way.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    """An OS-picked loopback port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProc:
    """One ``repro.cli serve`` child process."""

    def __init__(self, src_dir: str, extra_args: list, log_path: str,
                 port=None):
        # A cluster's shard map names every port before any shard starts.
        self.port = free_port() if port is None else port
        self.telemetry_port = free_port()
        self._log = open(log_path, "w", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(self.port),
            "--telemetry-port", str(self.telemetry_port),
            *extra_args,
        ]
        try:
            self._proc = subprocess.Popen(
                command, env=env, stdout=self._log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        except BaseException:
            self._log.close()
            raise
        self.pid = self._proc.pid

    def wait_ready(self) -> None:
        """Block until the wire port accepts a connection."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self._proc.returncode} "
                    f"before becoming ready (log: {self._log.name})"
                )
            try:
                with socket.create_connection(("127.0.0.1", self.port), 0.2):
                    return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S}s")

    # -- resource readings ------------------------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as source:
            # The command name (field 2) may contain spaces; fields are
            # counted from the closing parenthesis instead.
            fields = source.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as source:
            for line in source:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def scrape(self) -> dict:
        """The child's ``/metrics`` page as ``{series: value}``; histogram
        ``_bucket`` series are skipped."""
        url = f"http://127.0.0.1:{self.telemetry_port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as response:
            text = response.read().decode("utf-8")
        series: dict = {}
        for line in text.splitlines():
            if not line or line.startswith("#") or "_bucket{" in line:
                continue
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
        return series

    # -- teardown ---------------------------------------------------------

    def stop(self) -> None:
        """Drain and reap the child; never leaves it running."""
        try:
            if self._proc.poll() is None:
                self._proc.send_signal(signal.SIGINT)
                try:
                    self._proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait()
        finally:
            self._log.close()


def scrape_sum(series: dict, name: str) -> float:
    """Sum of one metric over all its label sets."""
    return sum(
        value for key, value in series.items()
        if key == name or key.startswith(name + "{")
    )
