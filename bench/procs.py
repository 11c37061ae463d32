"""Child-process hygiene for the topology workloads, and ``/proc`` accounting.

Every topology role is a real ``python -m repro.service.topology`` child on an
ephemeral port, learned from its ``READY host port`` line.  A :class:`Topology`
owns the children and their scratch directory: whatever happens inside the
``with`` block, every child is terminated (killed after 5 s) and waited for,
and the directory is removed.  A ``READY`` wait that exceeds its timeout
raises :class:`RoleFailed` — a failed operation, never a hang.
"""

from __future__ import annotations

import os
import pathlib
import select
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from .spec import OUT_DIR, ROOT, SRC_DIR

READY_TIMEOUT_SECONDS = 30.0
REAP_GRACE_SECONDS = 5.0


class RoleFailed(RuntimeError):
    """A topology role did not become ready (or died) within its timeout."""


def scratch_dir(prefix: str) -> pathlib.Path:
    """A fresh directory inside the checkout (``bench/out/tmp``)."""
    base = OUT_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=base))


def proc_usage(pid: int) -> Dict[str, float]:
    """CPU seconds and peak RSS (MiB) of a live process, from ``/proc``."""
    usage = {"cpu_s": 0.0, "peak_rss_mb": 0.0}
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        usage["cpu_s"] = (int(fields[11]) + int(fields[12])) / ticks
        for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                usage["peak_rss_mb"] = int(line.split()[1]) / 1024.0
    except (OSError, IndexError, ValueError):
        pass  # not Linux, or the process is gone: report zeros
    return usage


def dir_bytes(path: pathlib.Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Role:
    """One topology role as a child process; ``READY`` gives us its port."""

    def __init__(self, role: str, args: List[str], log_path: pathlib.Path):
        self.role = role
        self.host = ""
        self.port = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.topology", role, *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
        )
        self._log_path = log_path

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def wait_ready(self, timeout: float = READY_TIMEOUT_SECONDS) -> None:
        deadline = time.monotonic() + timeout
        buffer = b""
        stdout = self.proc.stdout
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RoleFailed(
                    f"{self.role} not ready after {timeout:.0f}s "
                    f"(exit={self.proc.poll()}): {self._log_tail()}"
                )
            readable, _, _ = select.select([stdout], [], [], min(remaining, 0.25))
            if readable:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    continue  # EOF: the poll() above reports the exit
                buffer += chunk
        words = buffer.split(b"\n", 1)[0].decode().split()
        if len(words) != 3 or words[0] != "READY":
            raise RoleFailed(f"{self.role} printed {buffer!r} instead of READY")
        self.host, self.port = words[1], int(words[2])

    def _log_tail(self) -> str:
        try:
            return self._log_path.read_text(errors="replace")[-400:]
        except OSError:
            return ""

    def usage(self) -> Dict[str, float]:
        return proc_usage(self.proc.pid)

    def stop(self) -> None:
        """Terminate, kill after the grace period, and always wait."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=REAP_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Topology:
    """Children plus their scratch directory, reaped and removed on exit."""

    def __init__(self, prefix: str):
        self.dir = scratch_dir(prefix)
        self.roles: Dict[str, Role] = {}

    def start(self, name: str, role: str, args: List[str]) -> Role:
        child = Role(role, args, self.dir / f"{name}.log")
        self.roles[name] = child  # registered before READY so a failure still reaps it
        child.wait_ready()
        return child

    def usage(self) -> Dict[str, Dict[str, float]]:
        return {name: role.usage() for name, role in self.roles.items()}

    def close(self) -> None:
        for role in reversed(list(self.roles.values())):
            role.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "Topology":
        return self

    def __exit__(self, *_exc) -> Optional[bool]:
        self.close()
        return None
