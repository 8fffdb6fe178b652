"""Open-loop HTTP load against ``/estimate`` and the server's lifecycle.

The client sends each request at its due time whatever happened to earlier
ones (an open loop: independent users), through at most
:data:`MAX_CONNECTIONS` connections at once.  A request that finds every
connection busy waits for one, and that wait counts: latency runs from
the request's *due* time, and how late it was sent is recorded too.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Client-side connection limit: one per core of the two-core machine the
#: rate was chosen on.
MAX_CONNECTIONS = 2
HOST = "127.0.0.1"
#: Seconds a server may take to boot, answer one request or stop.
SERVER_TIMEOUT_S = 60.0
#: Seconds between two calls of a load's ``sample`` callback.
SAMPLE_INTERVAL_S = 0.5


@dataclass
class Reply:
    label: str
    due: float
    sent: float
    done: float
    status: int
    document: "dict | None"


@dataclass
class LoadResult:
    replies: "list[Reply]" = field(default_factory=list)
    #: ``time.perf_counter()`` when the schedule started
    started: float = 0.0


async def request(port: int, method: str, path: str, payload: "dict | None" = None) -> "tuple[int, dict | None]":
    """One HTTP/1.1 exchange (``Connection: close``); returns (status, JSON)."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, content = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(content) if content else None


def call(port: int, method: str, path: str, payload: "dict | None" = None) -> "tuple[int, dict | None]":
    return asyncio.run(request(port, method, path, payload))


async def _sample_every(interval: float, sample: "Callable[[], None]") -> None:
    while True:
        await asyncio.sleep(interval)
        sample()


async def _open_loop(
    port: int, schedule: "list[tuple[float, dict]]", sample: "Callable[[], None] | None"
) -> LoadResult:
    result = LoadResult()
    slots = asyncio.Semaphore(MAX_CONNECTIONS)
    tasks = []
    sampler = asyncio.create_task(_sample_every(SAMPLE_INTERVAL_S, sample)) if sample else None

    async def send(due: float, sent: float, payload: dict) -> None:
        try:
            status, document = await request(port, "POST", "/estimate", payload)
        except (OSError, ValueError, IndexError):
            status, document = 0, None
        finally:
            slots.release()
        result.replies.append(
            Reply(payload["label"], due, sent, time.perf_counter(), status, document)
        )

    result.started = start = time.perf_counter()
    for offset, payload in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.create_task(send(due, time.perf_counter(), payload)))
    for task in tasks:
        await task
    if sampler is not None:
        sampler.cancel()
    return result


def run_open_loop(
    port: int, schedule: "list[tuple[float, dict]]", sample: "Callable[[], None] | None" = None
) -> LoadResult:
    """Send ``schedule``; call ``sample()`` every :data:`SAMPLE_INTERVAL_S`
    seconds on the way (the client's own loop, so it delays sends by the
    sample's duration at most)."""
    return asyncio.run(_open_loop(port, schedule, sample))


#: ``python -m repro.serve --port 0``, after resolving and printing the
#: chunk budget: the probe is lazy set-up the server would otherwise do on
#: its first miss, and the budget decides whether seeds stack.
SERVER_MAIN = (
    "import json, sys\n"
    "from repro.parallel import chunk_budget_bytes\n"
    "print(json.dumps({'chunk_budget_bytes': chunk_budget_bytes()}), flush=True)\n"
    "from repro.serve.__main__ import main\n"
    "sys.exit(main(['--port', '0']))\n"
)


class ServerProcess:
    """The estimation server (``python -m repro.serve``) in its own process."""

    def __init__(self, root: Path, workdir: Path) -> None:
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self.port: "int | None" = None
        self.stderr_path = workdir / f"server-{time.monotonic_ns()}.err"
        self._stderr = self.stderr_path.open("wb")
        self.process = subprocess.Popen(
            [sys.executable, "-c", SERVER_MAIN],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        budget = self.process.stdout.readline()
        banner = self.process.stdout.readline()
        if not banner:
            self.stop()
            raise RuntimeError("server exited before announcing its port")
        self.budget = json.loads(budget)["chunk_budget_bytes"]
        self.port = int(json.loads(banner)["listening"].rsplit(":", 1)[1])

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, document = call(self.port, "GET", "/healthz")
            except OSError:
                status, document = 0, None
            if status == 200 and document and document.get("status") == "ok":
                return
            time.sleep(0.01)
        raise RuntimeError("server never reported healthy")

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process (Linux ``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def warnings(self) -> int:
        self._stderr.flush()
        return sum("Warning" in line for line in self.stderr_path.read_text().splitlines())

    def stop(self) -> None:
        """Ask for a clean shutdown, then make sure the process is gone."""
        if self.process.poll() is None:
            if self.port is not None:
                try:
                    call(self.port, "POST", "/shutdown")
                except (OSError, ValueError, IndexError):
                    pass
            try:
                self.process.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class InProcessServer:
    """An :class:`~repro.serve.server.EstimationServer` on a thread of this
    process, so the traced run can time the service's calls directly."""

    def __init__(self) -> None:
        from repro.serve.server import EstimationServer
        from repro.serve.service import EstimationService, ServiceConfig

        self.service = EstimationService(ServiceConfig.from_env())
        self.server = EstimationServer(self.service, host=HOST, port=0)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="perfbench-server")
        self._thread.start()
        if not self._ready.wait(SERVER_TIMEOUT_S):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.port

    def _serve(self) -> None:
        try:
            self._loop.run_until_complete(self.server.start())
            self._ready.set()
            self._loop.run_until_complete(self.server.serve_until_stopped())
        finally:
            self._loop.close()

    def stop(self) -> None:
        call(self.port, "POST", "/shutdown")
        self._thread.join(SERVER_TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("in-process server did not stop")
