"""The benchmark's stages: setup, pack, sweep, serve and recover.

Each stage calls the program only through its public functions and times
whole passes with :class:`~measure.SpeedClock`; a traced run additionally
wraps those calls in spans.  Every stage repeats identical passes until its
share of ``--seconds`` is used up, checks the first pass against
computations made apart from the program, and checks that later passes
reproduce it exactly.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from measure import SpeedClock, Timed, Tracer, median, start_echo_server
from mixes import Mix

from repro.analysis import SweepTask, run_sweep
from repro.algorithms import get_packer
from repro.analysis.parallel import WORKLOAD_GENERATORS
from repro.algorithms.optimal import bin_packing_min_bins
from repro.bounds import best_lower_bound
from repro.core.batch import ArrivalBatch
from repro.core.items import ItemList
from repro.engine import PackingSession
from repro.obs import TelemetryRegistry
from repro.serving import (
    ServingRuntime,
    SessionManager,
    TcpTransport,
    TenantConfig,
    WalConfig,
    WriteAheadLog,
    recover,
)
from repro.workloads import dump_jsonl, load_trace, save_trace

HERE = Path(__file__).resolve().parent
TENANTS = ("t0", "t1")
#: Records in flight per connection in the pipelined phase: below the
#: runtime's default queue limit (1024), so no arrival is refused, and above
#: its batch size (256), so flushes carry full batches.
WINDOW = 512
#: ``serve --wal`` checkpoints every 512 records by default; the library's
#: WalConfig default is 0, so the benchmark passes the command's default.
CHECKPOINT_EVERY = 512
SETUP_REPEATS = 5
#: Timed pipelined bursts and journal recoveries per serve round.
BURSTS = 5
RECOVERIES = 5


@dataclass
class Run:
    """Everything one benchmark run measures and counts."""

    mix: Mix
    seed: int
    seconds: float
    scale: float
    work: Path
    tracer: Tracer
    clock: SpeedClock = field(default_factory=SpeedClock)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timed: dict[str, list[Timed]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    client: subprocess.Popen | None = None
    #: Each tenant's arrival stream, as written for the load client.
    streams: list[ItemList] = field(default_factory=list)

    def n(self, count: int) -> int:
        return max(40, int(count * self.scale))

    def check(self, fn, *args) -> object:
        """Run one output check, recording a failure instead of raising."""
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))
            return None

    def keep(self, name: str, timed: Timed) -> None:
        self.timed.setdefault(name, []).append(timed)

    def budget_left(self, start: float, share: float, passes: int) -> bool:
        return passes == 0 or time.perf_counter() - start < self.seconds * share


# -- setup -------------------------------------------------------------------


def _tenant_streams(items: ItemList, count: int) -> list[ItemList]:
    """Alternate arrival-ordered items between tenants, ``count`` each."""
    seq = list(items)
    return [ItemList(seq[c :: len(TENANTS)][:count]) for c in range(len(TENANTS))]


def _start_client() -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "client.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    ready = proc.stdout.readline()
    if not ready or not json.loads(ready).get("ready"):
        raise RuntimeError("load client did not start")
    return proc


def stop_client(proc: subprocess.Popen | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    try:
        proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
        proc.stdin.flush()
        proc.wait(timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()


def _server_parts(run: Run, wal_dir: Path, registry: TelemetryRegistry):
    mix = run.mix
    kwargs = {k: v for k, v in mix.packer_kwargs.items() if k != "dims"}
    manager = SessionManager(
        TenantConfig(algorithm=mix.algorithm, packer_kwargs=kwargs, dims=mix.dims),
        registry=registry,
    )
    wal = WriteAheadLog(
        wal_dir, config=WalConfig(checkpoint_records=CHECKPOINT_EVERY), registry=registry
    )
    return manager, wal, ServingRuntime(manager, wal=wal)


async def _start_stop_server(run: Run, wal_dir: Path) -> None:
    _, wal, runtime = _server_parts(run, wal_dir, TelemetryRegistry())
    transport = TcpTransport(runtime)
    await transport.start()
    await transport.stop()
    wal.close()


def setup(run: Run) -> None:
    """Generate inputs, write the trace and arrival lines, start server and client.

    Repeated :data:`SETUP_REPEATS` times (the median is reported); the last
    repetition's client is kept for the serve stage.
    """
    mix = run.mix
    per_tenant = run.n(mix.pipelined_per_tenant) + run.n(mix.open_per_tenant)

    def once() -> None:
        items = mix.generate(run.n(mix.items), run.seed)
        save_trace(items, run.work / "trace.jsonl")
        run.streams = _tenant_streams(items, per_tenant)
        for tenant, stream in zip(TENANTS, run.streams):
            (run.work / f"{tenant}.jsonl").write_text(dump_jsonl(stream))
        stop_client(run.client)
        run.client = _start_client()
        asyncio.run(_start_stop_server(run, run.work / "wal-setup"))
        shutil.rmtree(run.work / "wal-setup", ignore_errors=True)

    for _ in range(SETUP_REPEATS):
        timed, _ = run.clock.time(once)
        run.keep("setup", timed)
    run.clock.detach()


# -- pack ----------------------------------------------------------------------


def _pack_once(run: Run):
    span = run.tracer.span
    with span("workloads.load_trace"):
        items = load_trace(run.work / "trace.jsonl", loader="columnar")
    with span("engine.arrival_batch"):
        batch = ArrivalBatch.from_items(items)
    session = PackingSession(get_packer(run.mix.algorithm, **run.mix.packer_kwargs))
    with span("engine.pack_submit_many"):
        session.submit_many(batch)
    with span("engine.result"):
        result = session.result()
    with span("engine.total_usage"):
        usage = result.total_usage()
    return items, session, result, usage


def pack(run: Run) -> None:
    start = time.perf_counter()
    first = None
    passes = 0
    with run.tracer.span("bench.pack"):
        while run.budget_left(start, run.mix.shares[0], passes):
            timed, out = run.clock.time(lambda: _pack_once(run))
            run.keep("pack", timed)
            passes += 1
            items, session, result, usage = out
            run.attempted += len(items)
            if first is None:
                first = out
            elif result.assignment != first[2].assignment or usage != first[3]:
                run.problems.append("pack: a repeated pass placed items differently")
    run.clock.detach()
    items, session, result, usage = first
    run.values["pack.items"] = len(items)
    run.values["engine.peak_open_bins"] = session.stats.peak_open_bins
    run.values["engine.bins_opened"] = session.stats.bins_opened
    run.values["usage_over_lb"] = _check_packing(run, items, result, usage)


def _check_packing(run: Run, items, result, usage: float) -> float:
    """Capacity, exactly-once, usage and the packer's own rule; returns usage/LB."""
    ids, arr, dep, sizes = checks.columns(items)
    bins = run.check(checks.placements, result, ids)
    if bins is None:
        return 0.0
    run.check(checks.check_capacity, bins, arr, dep, sizes, "pack")
    run.check(checks.check_usage, usage, bins, arr, dep, "pack")
    mix = run.mix
    category = None
    if mix.algorithm == "classify-duration":
        category = checks.duration_categories(arr, dep, mix.packer_kwargs["alpha"])
        run.check(checks.check_one_category_per_bin, bins, category)
    ref = checks.reference_first_fit(arr, dep, sizes, category=category)
    run.check(checks.require, bool((ref == bins).all()),
              f"pack: {mix.algorithm} placements differ from the reference First Fit")
    return usage / checks.lower_bounds(arr, dep, sizes)[0]


# -- sweep ---------------------------------------------------------------------


def _tasks(run: Run) -> list[SweepTask]:
    tasks = []
    for packer, pkw, workload, wkw in run.mix.grid:
        wkw = dict(wkw)
        if run.scale < 1:
            wkw["n"] = max(20, int(wkw["n"] * run.scale))
        tasks.append(SweepTask(packer, workload, packer_kwargs=pkw, workload_kwargs=wkw))
    return tasks


def _cell_seconds(outcome) -> float:
    for row in outcome.telemetry.metrics:
        if row["name"] == "span:sweep.cell":
            return float(row["seconds"])
    return 0.0


def sweep(run: Run) -> None:
    tasks = _tasks(run)
    workers = min(2, os.cpu_count() or 1)
    start = time.perf_counter()
    first = None
    passes = 0
    cell_s: list[float] = []
    pool_wait: list[float] = []
    with run.tracer.span("bench.sweep"):
        while run.budget_left(start, run.mix.shares[1], passes):

            def once():
                with run.tracer.span("analysis.run_sweep"):
                    return run_sweep(tasks, max_workers=workers, executor="process")

            timed, outcomes = run.clock.time(once)
            run.keep("sweep", timed)
            passes += 1
            run.attempted += len(outcomes)
            run.failed += sum(1 for o in outcomes if o.error is not None)
            seconds = [_cell_seconds(o) for o in outcomes]
            cell_s += seconds
            pool_wait.append(timed.raw_s - sum(seconds) / workers)
            key = [(o.usage, o.denominator, o.exact, o.degraded_reason) for o in outcomes]
            if first is None:
                first = (outcomes, key)
            elif key != first[1]:
                run.problems.append("sweep: a repeated pass measured different cells")
    run.clock.detach()
    outcomes = first[0]
    for o in outcomes:
        if o.error is not None:
            print(f"sweep cell {o.task.workload_kwargs} failed: {o.error}", file=sys.stderr)
    run.values["sweep.cells"] = len(tasks)
    run.values["adversary.cell_s_p50"] = median(cell_s)
    run.values["sweep.pool_wait_s"] = median(pool_wait)
    for name in ("nodes", "memo_hits", "memo_misses"):
        run.values[f"adversary.{name}"] = sum(getattr(o.solver, name) for o in outcomes)
    run.values["adversary.exact_cells"] = sum(1 for o in outcomes if o.exact)
    run.values["adversary.node_budget_cells"] = sum(
        1 for o in outcomes if o.degraded_reason == "node_budget"
    )
    _check_sweep(run, outcomes)


def _check_sweep(run: Run, outcomes) -> None:
    """Own LB <= denominator <= usage per cell; sampled slice optima vs HiGHS."""
    milp_budget = 6
    lb_seconds = 0.0
    for o in outcomes:
        if o.error is not None:
            continue
        kwargs = dict(o.task.workload_kwargs)
        items = WORKLOAD_GENERATORS[o.task.workload](kwargs.pop("n"), **kwargs)
        with run.tracer.span("bounds.best_lower_bound"):
            t0 = time.perf_counter()
            best_lower_bound(items)
            lb_seconds += time.perf_counter() - t0
        _, arr, dep, sizes = checks.columns(items)
        pointwise, per_coordinate = checks.lower_bounds(arr, dep, sizes)
        cell = f"sweep cell {kwargs}"
        run.check(checks.require, o.denominator <= o.usage * (1 + 1e-9),
                  f"{cell}: denominator {o.denominator!r} exceeds usage {o.usage!r}")
        if o.exact:
            run.check(checks.require, pointwise <= o.denominator * (1 + 1e-9),
                      f"{cell}: own lower bound {pointwise!r} exceeds OPT {o.denominator!r}")
        else:
            # A degraded cell reports the Proposition 1-3 bound itself.
            run.check(checks.require, math.isclose(o.denominator, per_coordinate, rel_tol=1e-9),
                      f"{cell}: bound {o.denominator!r} differs from recomputed {per_coordinate!r}")
        if o.exact and milp_budget > 0:
            for slice_sizes in checks.sample_slices(arr, dep, sizes, 2, 14):
                want = checks.milp_min_bins(slice_sizes)
                got = bin_packing_min_bins(slice_sizes)
                run.check(checks.require, got == want, f"{cell}: slice optimum {got} != HiGHS {want}")
                milp_budget -= 1
    run.values["bounds.lb_s"] = lb_seconds


# -- serve and recover ---------------------------------------------------------


def _registry_totals(registry: TelemetryRegistry) -> dict[str, float]:
    """Counter values summed over labels; histograms as ``name.sum``/``name.count``."""
    out: dict[str, float] = {}
    for row in registry.snapshot().metrics:
        name = row["name"]
        if row["kind"] == "counter":
            out[name] = out.get(name, 0.0) + float(row["value"])
        elif row["kind"] == "histogram":
            out[f"{name}.sum"] = out.get(f"{name}.sum", 0.0) + float(row["sum"])
            out[f"{name}.count"] = out.get(f"{name}.count", 0.0) + float(row["count"])
    return out


def _trace_serving(tracer: Tracer, manager, wal, runtime, submit_span: str) -> None:
    """Wrap the public calls of one runtime (traced runs only)."""
    if not tracer.enabled:
        return
    tracer.wrap(runtime, "offer_line", "serving.offer_line")
    tracer.wrap(runtime, "flush", "serving.flush")
    tracer.wrap(manager, "submit_many", submit_span)
    open_journal = wal.tenant
    wrapped: set[int] = set()

    def tenant(name: str):
        journal = open_journal(name)
        if id(journal) not in wrapped:
            wrapped.add(id(journal))
            tracer.wrap(journal, "append_arrival", "wal.append_arrival")
            tracer.wrap(journal, "sync", "wal.sync")
            tracer.wrap(journal, "checkpoint", "wal.checkpoint")
        return journal

    wal.tenant = tenant


class _Client:
    """The load-client child process, driven one command at a time."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.proc = run.client

    async def call(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = await asyncio.get_running_loop().run_in_executor(None, self.proc.stdout.readline)
        if not line:
            raise RuntimeError("load client exited")
        return json.loads(line)


async def _serve_round(run: Run, client: _Client, index: int, echo_port: int) -> None:
    """Pipelined bursts, an open-loop phase, a simulated crash, recoveries."""
    mix, clock, tracer = run.mix, run.clock, run.tracer
    wal_dir = run.work / f"wal-{index}"
    registry = TelemetryRegistry()
    manager, wal, runtime = _server_parts(run, wal_dir, registry)
    _trace_serving(tracer, manager, wal, runtime, "engine.submit_many")
    transport = TcpTransport(runtime)
    port = await transport.start()
    p_count, o_count = run.n(mix.pipelined_per_tenant), run.n(mix.open_per_tenant)
    files = [str(run.work / f"{t}.jsonl") for t in TENANTS]
    base = {"port": port, "tenants": list(TENANTS), "files": files}
    refused: list[set[int]] = [set() for _ in TENANTS]

    def account(phase: dict, start: int) -> None:
        run.attempted += phase["sent"]
        run.failed += phase["sent"] - phase["ok"]
        for c, bad in enumerate(phase["not_ok"]):
            refused[c].update(start + position for position, _, _ in bad)
            for position, status, reason in bad[:3]:
                print(f"serve: {TENANTS[c]} record {start + position} answered {status} {reason}",
                      file=sys.stderr)

    # The pipelined records go out in bursts, each between two reference
    # loops, so one round yields several machine-speed-scaled samples.
    edges = [p_count * b // BURSTS for b in range(BURSTS + 1)]
    for start, stop in zip(edges, edges[1:]):
        before = clock.start()
        piped = await client.call(
            {**base, "op": "pipelined", "start": start, "count": stop - start, "window": WINDOW}
        )
        # Kept as seconds per acknowledged arrival, so bursts compare directly.
        run.keep("serve", clock.bracket(piped["elapsed_s"] / max(piped["ok"], 1), before))
        account(piped, start)
    clock.detach()
    # The open-loop records go out at a fixed rate; the client sends one
    # record to the echo reference (``measure.start_echo_server``) half a
    # gap after each of the program's, so each record's latency is paired
    # with one taken under the same machine conditions.  Below a millisecond
    # latency follows how fast idle vCPUs wake, which the reference loop
    # does not see.
    opened = await client.call({**base, "op": "open", "start": p_count, "count": o_count,
                                "rate": mix.open_rate, "echo_port": echo_port})
    latency, echo = opened["latency_ms"], opened["echo_latency_ms"]
    run.samples.setdefault("ack_ms", []).extend(latency)
    run.samples.setdefault("ack_over_rtt", []).extend(a / e for a, e in zip(latency, echo))
    run.samples.setdefault("rtt_ms", []).extend(echo)
    run.samples.setdefault("lateness_ms", []).extend(opened["lateness_ms"])
    account(opened, p_count)

    # Simulated crash: stop the batchers mid-stream (no drain, no final
    # checkpoint), then close the journal the way process exit closes its
    # file descriptors.
    batchers = [t for t in asyncio.all_tasks() if t.get_name().startswith("repro-serving-batch-")]
    for task in batchers:
        task.cancel()
    await asyncio.gather(*batchers, return_exceptions=True)
    await transport.stop()
    wal.close()
    totals = _registry_totals(registry)
    for name in ("serving.batch_items.sum", "serving.batch_items.count", "serving.rejects",
                 "serving.wal.bytes", "serving.wal.appends"):
        run.samples.setdefault(name, []).append(totals.get(name, 0.0))

    # Recovery only reads the journal, so it is repeated on fresh runtimes;
    # the last recovered runtime is checked and drained.
    for attempt in range(RECOVERIES):
        manager2, wal2, runtime2 = _server_parts(run, wal_dir, TelemetryRegistry())
        _trace_serving(tracer, manager2, wal2, runtime2, "engine.replay_submit_many")

        def rehydrate(runtime2=runtime2):
            with tracer.span("recovery.recover"):
                return recover(runtime2)

        timed, report = clock.time(rehydrate)
        run.keep("recover", timed)
        run.attempted += report.replayed
        run.samples.setdefault("recovery.records", []).append(report.replayed)
        run.samples.setdefault("recovery.records_per_s", []).append(report.replayed / timed.raw_s)
        if attempt < RECOVERIES - 1:
            wal2.close()
    run.clock.detach()
    await _check_recovery(run, runtime2, refused)
    shutil.rmtree(wal_dir)


async def _check_recovery(run: Run, runtime, refused: list[set[int]]) -> None:
    """Recovered ≡ uninterrupted, then drain: lost == 0, each ack placed once."""
    acked = [
        ItemList(r for k, r in enumerate(stream) if k not in bad)
        for stream, bad in zip(run.streams, refused)
    ]
    for tenant, items in zip(TENANTS, acked):
        fresh = PackingSession(get_packer(run.mix.algorithm, **run.mix.packer_kwargs))
        fresh.submit_many(ArrivalBatch.from_items(items))
        run.check(
            checks.require,
            runtime.snapshot(tenant) == fresh.snapshot(),
            f"recovery: tenant {tenant} snapshot {runtime.snapshot(tenant)} "
            f"!= uninterrupted {fresh.snapshot()}",
        )
    report = await runtime.drain()
    run.check(checks.require, report.lost == 0, f"drain after recovery lost {report.lost} items")
    closed = {c.tenant: c for c in report.closed}
    for tenant, items in zip(TENANTS, acked):
        result = closed[tenant].result
        ids, arr, dep, sizes = checks.columns(items)
        bins = run.check(checks.placements, result, ids)
        if bins is not None:
            run.check(checks.check_capacity, bins, arr, dep, sizes, f"served tenant {tenant}")


async def _serve(run: Run) -> None:
    client = _Client(run)
    echo = await start_echo_server()
    echo_port = echo.sockets[0].getsockname()[1]
    start = time.perf_counter()
    rounds = 0
    try:
        with run.tracer.span("bench.serve"):
            while run.budget_left(start, run.mix.shares[2], rounds):
                await _serve_round(run, client, rounds, echo_port)
                rounds += 1
    finally:
        echo.close()
        await echo.wait_closed()


def serve(run: Run) -> None:
    # The server shares this process with the benchmark's own objects
    # (inputs, check data, modules).  Frozen, they stay out of the cyclic
    # collector's full passes, which a standalone server would not make
    # over them either; the server's own sessions are collected as usual.
    gc.collect()
    gc.freeze()
    try:
        asyncio.run(_serve(run))
    finally:
        gc.unfreeze()
