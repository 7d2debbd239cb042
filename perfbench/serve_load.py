"""Serve workloads: a server subprocess and a closed-loop client.

The client is the benchmark's own: raw HTTP/1.1 over a socket, so its
timestamps (connect, ``accepted`` line, ``done`` line) do not depend on
the program's client library.  Each client thread sends its next
request only after the previous one finished (a closed loop); the
threads take items from one shared stream in order.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Seconds to wait for one request, the listening line, or a drain.
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One request as the client saw it."""

    index: int
    item: Dict[str, object]
    status: int = 0
    events: List[Dict[str, object]] = field(default_factory=list)
    t_start: float = 0.0
    t_accept: float = 0.0
    t_done: float = 0.0
    error: Optional[str] = None
    finished: threading.Event = field(default_factory=threading.Event)

    @property
    def latency_ms(self) -> float:
        return (self.t_done - self.t_start) * 1e3

    @property
    def job_id(self) -> Optional[str]:
        for event in self.events:
            if event.get("event") == "accepted":
                return event.get("job")  # type: ignore[return-value]
        return None

    @property
    def last_seq(self) -> int:
        seqs = [int(e["seq"]) for e in self.events if "seq" in e]
        return max(seqs) if seqs else 0


def post_submit(addr: Tuple[str, int], body: Dict[str, object], record: Record) -> None:
    """POST ``body`` to ``/submit`` and read the event stream into ``record``."""
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    head = (
        "POST /submit HTTP/1.1\r\n"
        f"Host: {addr[0]}:{addr[1]}\r\n"
        "Content-Type: application/json\r\n"
        "Accept: application/x-ndjson\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1")
    record.t_start = time.perf_counter()
    with socket.create_connection(addr, timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(head + payload)
        with sock.makefile("rb") as fh:
            status_line = fh.readline().decode("latin-1").split()
            record.status = int(status_line[1]) if len(status_line) > 1 else 0
            while fh.readline() not in (b"\r\n", b"\n", b""):
                pass
            if record.status != 200:
                record.error = f"HTTP {record.status}: {fh.read(200)!r}"
                record.t_done = time.perf_counter()
                return
            for line in fh:
                if not line.strip():
                    continue
                event = json.loads(line)
                record.events.append(event)
                kind = event.get("event")
                if kind == "accepted":
                    record.t_accept = time.perf_counter()
                elif kind == "done":
                    record.t_done = time.perf_counter()
                    break
    if record.t_done == 0.0:
        record.t_done = time.perf_counter()
        record.error = "stream ended without a done event"


def check_stream(record: Record, after_seq: int = 0) -> Optional[str]:
    """Why the stream is wrong, or None: gapless seq ending in ``done``."""
    seqs = [int(e["seq"]) for e in record.events if "seq" in e]
    if seqs != list(range(after_seq + 1, after_seq + 1 + len(seqs))):
        return f"seq not gapless from {after_seq + 1}: {seqs}"
    if not record.events or record.events[-1].get("event") != "done":
        return "stream does not end in done"
    if record.events[-1].get("ok") is not True:
        return f"done reports failure: {record.events[-1]}"
    for event in record.events:
        if event.get("event") == "result" and event.get("error"):
            return f"result carries an error: {event.get('error')}"
        if event.get("event") == "error":
            return f"error event: {event.get('error')}"
    return None


def request_body(item: Dict[str, object], records: Sequence[Record]) -> Tuple[Dict[str, object], int]:
    """The submit body of one stream item, and the ``after_seq`` it asks for.

    A ``resume`` waits until its target request has finished, so it
    always re-attaches to a finished job.
    """
    if item["kind"] == "app":
        return dict(item["spec"], kind="app"), 0  # type: ignore[arg-type]
    if item["kind"] == "tasks":
        return {"kind": "tasks", "tasks": item["specs"]}, 0
    target = records[int(item["target"])]  # type: ignore[call-overload]
    if not target.finished.wait(REQUEST_TIMEOUT_S):
        raise TimeoutError(f"resume target {target.index} never finished")
    if target.job_id is None:
        raise RuntimeError(f"resume target {target.index} has no job id")
    after = int(float(item["after_frac"]) * target.last_seq)  # type: ignore[arg-type]
    return {"kind": "resume", "job": target.job_id, "after_seq": after}, after


def run_closed_loop(addr: Tuple[str, int], records: Sequence[Record], start: int, clients: int) -> float:
    """Send ``records[start:]`` through ``clients`` closed-loop threads.

    Earlier records are finished requests that a ``resume`` may target.
    Returns the wall time from the first send to the last ``done``.
    """
    cursor = iter(range(start, len(records)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            record = records[index]
            try:
                body, after = request_body(record.item, records)
                post_submit(addr, body, record)
                if record.error is None:
                    record.error = check_stream(record, after)
            except (OSError, ValueError, RuntimeError) as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                record.t_done = record.t_done or time.perf_counter()
            finally:
                record.finished.set()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * (len(records) - start))
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    return time.perf_counter() - t0


class ServerProcess:
    """One ``repro serve`` subprocess with an isolated cache and history."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: Path) -> None:
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(cwd),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: List[str] = []
        self._fresh: "queue.Queue[Optional[str]]" = queue.Queue()
        self._drainer = threading.Thread(target=self._drain_stdout, daemon=True)
        self._drainer.start()
        self.addr = self._await_listening()

    def _drain_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())
            self._fresh.put(line)
        self._fresh.put(None)

    def _await_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self._fresh.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError("server did not start:\n" + "\n".join(self.lines[-20:]))
            if line.startswith("serve: listening on http://"):
                hostport = line.split("http://", 1)[1].split()[0]
                host, _, port = hostport.rpartition(":")
                return host, int(port)

    def get_json(self, path: str) -> Dict[str, object]:
        request = f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("latin-1")
        with socket.create_connection(self.addr, timeout=REQUEST_TIMEOUT_S) as sock:
            sock.sendall(request)
            with sock.makefile("rb") as fh:
                data = fh.read()
        return json.loads(data.split(b"\r\n\r\n", 1)[1])

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU time (user + system) of the server and its reaped children."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")

    def drain(self) -> int:
        """SIGTERM, wait for the graceful drain, reap; the exit code.

        ``repro serve`` prints its listening line before it installs the
        SIGTERM handler, so a signal sent at once kills it without a
        drain; one answered request first means the handler is in place.
        """
        self.get_json("/healthz")
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain within the timeout")
        self._drainer.join(10.0)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._drainer.join(10.0)


def serve_argv(workload: str, trace_out: Optional[Path] = None) -> List[str]:
    """The server command line of a serve workload.

    With ``trace_out`` the server runs under the traced launcher, which
    writes its spans to that file when the server drains.
    """
    if workload == "serve-mixed":
        flags = ["--jobs", "2", "--concurrency", "1"]
    else:
        raise ValueError(workload)
    if trace_out is not None:
        entry = [str(Path(__file__).with_name("serve_launcher.py")), str(trace_out)]
    else:
        entry = ["-m", "repro", "serve"]
    return [sys.executable, *entry, "--port", "0", *flags]


def isolated_env(root: Path, tmp: Path) -> Dict[str, str]:
    """Child environment: program on the path, cache/history/tmp in ``tmp``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["REPRO_HISTORY_PATH"] = str(tmp / "history.jsonl")
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_CHAOS", None)
    return env
