"""The benchmark's load client: one child process, one TCP connection per tenant.

The open-loop phase adds one connection to the benchmark's echo reference,
which carries no load to the program.

Started once per run by ``run.py`` and driven over its stdin/stdout with
one JSON command per line; it answers each with one JSON line.  It uses
only the standard library and blocking sockets, so it never shares the
server's event loop and its own timing does not depend on asyncio's
millisecond timer granularity.

Commands (``files`` holds one arrival-line file per tenant; ``start`` and
``count`` select the records each phase sends from every file):

* ``{"op": "pipelined", "window": W, ...}`` keeps up to ``W`` records in
  flight per connection and reports the arrivals acknowledged ``ok`` and
  the time from the first send to the last reply.
* ``{"op": "open", "rate": R, "echo_port": P, ...}`` sends on a fixed
  schedule, record ``k`` of the interleaved stream due ``k / R`` seconds
  after the start, and reports each record's due-to-ack latency and how
  late each send was.  Between every two program records, half-way, one
  record goes to the echo reference on port ``P`` (a separate connection),
  and its due-to-reply latency is reported apart: the two streams see the
  same machine at the same moments.  This phase runs in one thread over
  ``select``, so no thread hand-off sits inside a measured latency.
* ``{"op": "quit"}`` ends the process.

Every reply is checked: an ``ok`` must echo the id of the record it
answers; anything else is reported in ``not_ok`` with its position.
"""

from __future__ import annotations

import json
import select
import socket
import sys
import threading
import time

_lines_cache: dict[str, list[bytes]] = {}


def _lines(path: str) -> list[bytes]:
    lines = _lines_cache.get(path)
    if lines is None:
        with open(path, "rb") as fh:
            lines = [ln if ln.endswith(b"\n") else ln + b"\n" for ln in fh if ln.strip()]
        _lines_cache[path] = lines
    return lines


def _record_id(line: bytes) -> int:
    return int(json.loads(line)["id"])


class _Connection:
    """One tenant connection: a blocking socket and its reply reader."""

    def __init__(self, port: int, tenant: str) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.sock.sendall(f"hello {tenant}\n".encode())
        hello = json.loads(self.reader.readline())
        if hello.get("status") != "hello":
            raise RuntimeError(f"unexpected greeting {hello!r}")

    def close(self) -> None:
        try:
            self.sock.sendall(b"bye\n")
            self.reader.readline()
        finally:
            self.reader.close()
            self.sock.close()


def _read_replies(conn: _Connection, ids: list[int], on_reply, out: dict) -> None:
    """Read one reply per sent record, in order, checking each."""
    ok = 0
    not_ok = []
    for i, expected in enumerate(ids):
        raw = conn.reader.readline()
        now = time.perf_counter()
        if not raw:
            not_ok.append([i, "closed", ""])
            break
        rec = json.loads(raw)
        if rec.get("status") == "ok" and rec.get("id") == expected:
            ok += 1
        else:
            not_ok.append([i, rec.get("status"), rec.get("reason", "")])
        on_reply(i, now)
    out["ok"] = ok
    out["not_ok"] = not_ok
    out["last_reply"] = time.perf_counter()


def pipelined(cmd: dict) -> dict:
    window = int(cmd["window"])
    start, count = int(cmd["start"]), int(cmd["count"])
    conns = [_Connection(cmd["port"], t) for t in cmd["tenants"]]
    streams = [_lines(f)[start : start + count] for f in cmd["files"]]
    results: list[dict] = [{} for _ in conns]
    threads = []
    first_send = time.perf_counter()
    for conn, lines, out in zip(conns, streams, results):
        slots = threading.Semaphore(window)
        ids = [_record_id(ln) for ln in lines]
        reader = threading.Thread(
            target=_read_replies,
            args=(conn, ids, lambda i, now, s=slots: s.release(), out),
        )

        def send(conn=conn, lines=lines, slots=slots) -> None:
            pending: list[bytes] = []
            for line in lines:
                if not slots.acquire(blocking=False):
                    if pending:
                        conn.sock.sendall(b"".join(pending))
                        pending = []
                    slots.acquire()
                pending.append(line)
            if pending:
                conn.sock.sendall(b"".join(pending))

        threads += [reader, threading.Thread(target=send)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max(r["last_reply"] for r in results)
    for conn in conns:
        conn.close()
    return {
        "sent": sum(len(s) for s in streams),
        "ok": sum(r["ok"] for r in results),
        "not_ok": [r["not_ok"] for r in results],
        "elapsed_s": end - first_send,
    }


#: Seconds an open-loop phase waits for outstanding replies after its last send.
OPEN_GRACE_S = 30.0


def open_loop(cmd: dict) -> dict:
    rate = float(cmd["rate"])
    start, count = int(cmd["start"]), int(cmd["count"])
    conns = [_Connection(cmd["port"], t) for t in cmd["tenants"]]
    streams = [_lines(f)[start : start + count] for f in cmd["files"]]
    n_prog = sum(len(lines) for lines in streams)
    conns.append(_Connection(cmd["echo_port"], "echo"))
    # (due offset, connection, position, line): program record k of
    # connection c at (k * n + c) / rate, echo record j half a gap after
    # program record j.
    schedule = [
        ((k * (len(conns) - 1) + c) / rate, c, k, line)
        for c, lines in enumerate(streams)
        for k, line in enumerate(lines)
    ]
    echo_lines = [ln for lines in zip(*streams) for ln in lines]
    schedule += [((j + 0.5) / rate, len(conns) - 1, j, ln) for j, ln in enumerate(echo_lines)]
    schedule.sort(key=lambda e: e[0])
    socks = [conn.sock for conn in conns]
    index = {sock.fileno(): c for c, sock in enumerate(socks)}
    # Per connection: replies still owed, in send order, as (position, due, id).
    owed: list[list[tuple[int, float, int]]] = [[] for _ in conns]
    head = [0] * len(conns)
    buffers = [b""] * len(conns)
    latency = [[0.0] * len(lines) for lines in streams + [echo_lines]]
    lateness: list[float] = []
    not_ok: list[list] = [[] for _ in conns]
    ok = [0] * len(conns)

    def read(sock, now: float) -> None:
        c = index[sock.fileno()]
        data = sock.recv(65536)
        if not data:
            raise ConnectionError(f"connection {c} closed by the server")
        buffers[c] += data
        *lines, buffers[c] = buffers[c].split(b"\n")
        for raw in lines:
            position, due, expected = owed[c][head[c]]
            head[c] += 1
            latency[c][position] = now - due
            rec = json.loads(raw)
            if rec.get("status") == "ok" and rec.get("id") == expected:
                ok[c] += 1
            else:
                not_ok[c].append([position, rec.get("status"), rec.get("reason", "")])

    t0 = time.perf_counter() + 0.05
    i = 0
    deadline = t0 + (schedule[-1][0] if schedule else 0.0) + OPEN_GRACE_S
    while i < len(schedule) or any(h < len(o) for h, o in zip(head, owed)):
        now = time.perf_counter()
        if i < len(schedule) and t0 + schedule[i][0] <= now:
            offset, c, position, line = schedule[i]
            i += 1
            due = t0 + offset
            if c < len(streams):
                lateness.append(now - due)
            owed[c].append((position, due, _record_id(line)))
            socks[c].sendall(line)
            continue
        wait = (t0 + schedule[i][0] - now) if i < len(schedule) else deadline - now
        if wait <= 0:
            break
        readable, _, _ = select.select(socks, [], [], wait)
        now = time.perf_counter()
        for sock in readable:
            read(sock, now)
    for c in range(len(conns)):
        for position, _, _ in owed[c][head[c]:]:
            not_ok[c].append([position, "timeout", ""])
    for conn in conns:
        conn.close()
    echo_ok = ok.pop()
    if echo_ok != len(echo_lines) or not_ok.pop():
        raise RuntimeError(f"echo reference answered {echo_ok} of {len(echo_lines)} ok")
    return {
        "sent": n_prog,
        "ok": sum(ok),
        "not_ok": not_ok,
        # In due order, so record i and echo record i were sent half a gap apart.
        "latency_ms": [x * 1e3 for slot in zip(*latency[:-1]) for x in slot],
        "echo_latency_ms": [x * 1e3 for x in latency[-1]],
        "lateness_ms": [x * 1e3 for x in lateness],
    }


def main() -> int:
    print(json.dumps({"ready": True}), flush=True)
    for raw in sys.stdin:
        cmd = json.loads(raw)
        if cmd["op"] == "quit":
            break
        handler = {"pipelined": pipelined, "open": open_loop}[cmd["op"]]
        print(json.dumps(handler(cmd)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
