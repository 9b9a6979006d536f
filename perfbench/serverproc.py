"""The verification server as a separate process, started through ``repro serve``.

Untraced runs start ``python -m repro serve`` itself.  The traced run starts
``perfbench/traced_serve.py``, which installs the benchmark's timing
wrappers and then calls the same entry point with the same arguments.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"

_LISTENING = re.compile(rb"listening on http://[^:\s]+:(\d+)")


def program_env() -> dict:
    """Environment for child processes: the program's sources come first."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Interrupt ``proc`` (so it shuts down cleanly), kill it if it hangs, and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


class ServerProcess:
    """One ``repro serve`` process with a disk registry and audit log under ``workdir``."""

    def __init__(self, workdir: Path, spans_path: Optional[Path] = None) -> None:
        self.workdir = Path(workdir)
        self.spans_path = spans_path
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def command(self) -> List[str]:
        serve = [
            "serve",
            "--port", "0",
            "--registry", str(self.workdir / "registry"),
            "--audit-log", str(self.workdir / "audit.jsonl"),
        ]
        if self.spans_path is None:
            return [sys.executable, "-m", "repro", *serve]
        return [sys.executable, str(PERFBENCH / "traced_serve.py"),
                "--spans", str(self.spans_path), "--", *serve]

    def start(self, timeout: float = 60.0) -> int:
        self.workdir.mkdir(parents=True, exist_ok=True)
        log_path = self.workdir / "server.log"
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            self.command(), stdout=self._log, stderr=subprocess.STDOUT,
            env=program_env(), cwd=str(ROOT),
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            "server did not start:\n" + log_path.read_text(errors="replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the live server, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.proc.pid}")

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)
            self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None
