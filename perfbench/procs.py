"""Child processes and raw HTTP: spawning, readiness, shutdown, hygiene.

Every child gets ``PERFBENCH_RUN=<run id>`` in its environment, which
its own children (fleet workers) inherit; at the end of a run
:func:`leaked` finds any process still carrying the id, so a run that
leaves one behind fails instead of skewing the next run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STOP_TIMEOUT = 15.0  # seconds a child gets to exit after POST /shutdown
READY_TIMEOUT = 60.0


class Children:
    """The processes one run started; all of them stop before it ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.env = dict(os.environ)
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
        self.env["PERFBENCH_RUN"] = run_id
        self.processes: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, env=self.env, cwd=str(ROOT), **kwargs)
        self.processes.append(process)
        return process

    def repro(self, args: list[str], dump: str | None = None, **kwargs):
        """``python -m repro ARGS``; through the tracing bootstrap with ``dump``."""
        if dump is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(HERE / "boot.py"), dump, *args]
        return self.spawn(argv, **kwargs)

    def stop_all(self) -> int:
        """Kill whatever is still running; returns how many needed it."""
        killed = 0
        for process in self.processes:
            if process.poll() is None:
                process.kill()
                killed += 1
            stop(process)
        return killed


def stop(process: subprocess.Popen, timeout: float = STOP_TIMEOUT) -> None:
    """Wait for ``process`` to exit; kill it after ``timeout`` seconds."""
    if process.poll() is None:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def leaked(run_id: str) -> list[int]:
    """Pids of live processes (other than this one) tagged with ``run_id``."""
    marker = f"PERFBENCH_RUN={run_id}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if marker in environ and state != b"Z":
            pids.append(int(entry))
    return pids


def kill_pids(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def file_bytes(path: Path) -> int:
    """A store's on-disk bytes, with its SQLite sidecar files."""
    total = 0
    sidecars = [path.with_name(path.name + s) for s in ("-wal", "-journal", "-shm")]
    for candidate in [path, *sidecars]:
        if candidate.exists():
            total += candidate.stat().st_size
    return total


# -- the server --------------------------------------------------------
class Server:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, children: Children, args: list[str], dump: str | None = None):
        started = time.perf_counter()
        self.process = children.repro(
            ["serve", "--port", "0", *args],
            dump=dump,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.url = self._announced_url()
        # Keep draining stdout so the child never blocks on a full pipe.
        self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._drain.start()
        deadline = started + READY_TIMEOUT
        while True:
            try:
                with urllib.request.urlopen(self.url + "/readyz", timeout=5) as reply:
                    if reply.status == 200:
                        break
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def _announced_url(self) -> str:
        line = self.process.stdout.readline()
        marker = "serving DSE sweeps on "
        if marker not in line:
            raise RuntimeError(f"unexpected repro serve banner: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    @property
    def pid(self) -> int:
        return self.process.pid

    def get_json(self, path: str):
        with urllib.request.urlopen(self.url + path, timeout=60) as reply:
            return json.load(reply)

    def shutdown(self) -> None:
        """``POST /shutdown``, then wait (and kill on timeout)."""
        if self.process.poll() is None:
            request = urllib.request.Request(self.url + "/shutdown", data=b"{}")
            try:
                urllib.request.urlopen(request, timeout=10).close()
            except OSError:
                pass
        try:
            self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._drain.join(timeout=5)
        stop(self.process)


def get_page(url: str, after: str | None, limit: int) -> tuple[list[dict], str | None]:
    """One ``GET /records?after=&limit=`` page: ``(records, next cursor)``."""
    path = f"{url}/records?limit={limit}"
    if after is not None:
        path += f"&after={after}"
    records: list[dict] = []
    terminal = None
    with urllib.request.urlopen(path, timeout=120) as reply:
        for line in reply:
            line = line.strip()
            if not line:
                continue
            item = json.loads(line)
            if "hash" in item:
                records.append(item)
            else:
                terminal = item
    if terminal is None or terminal.get("count") != len(records):
        raise RuntimeError(
            f"/records page truncated: {len(records)} records, terminal {terminal}"
        )
    return records, terminal.get("next")
