#!/usr/bin/env python3
"""End-to-end benchmark: pack, sweep, serve and recover on one workload.

Run from the repository root::

    python3 perfbench/run.py --workload short-jobs --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from ``--seed``, then spends
``--seconds`` on whole passes of three stages: packing the trace (a quarter
of the time), a fixed ``run_sweep`` cell grid (a quarter), and live TCP
serving with the write-ahead log on, each serve round ending in a simulated
crash and a timed recovery (half).  Every output is checked against
computations made apart from the program (see ``checks.py``).

Timed figures are scaled to nominal machine speed by a reference loop timed
just before and after each pass, and open-loop latency by an echo server's
latency timed the same way (``measure.py``); the table printed before
the result shows each raw wall-clock figure beside its scaled one.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
(from spans around each call into the program) with ``--trace 1``.

``--steady N`` runs the benchmark N times per workload as child processes,
alternating the workload order, and prints each metric's median, quartiles
and spread against its bound in ``BENCHMARK.json``, raw beside scaled;
with ``--traced`` each run is paired with a traced run (alternating which
goes first), and the tracing overhead and the per-layer medians are
printed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import RTT_NOMINAL_MS, Timed, Tracer, median, quantile  # noqa: E402
from mixes import MIXES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}
DETAIL_PREFIX = "bench-detail "
LAYERS = ("workloads", "engine", "bounds", "analysis", "serving", "wal", "recovery")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help=f"one of {sorted(MIXES)} (comma-separated with --steady)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(SPEC.get("run_seconds", 20)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="input-size factor (tests use a tiny one)")
    p.add_argument("--steady", type=int, default=0, metavar="N", help="steadiness mode: N runs per workload")
    p.add_argument("--traced", action="store_true", help="steadiness mode: pair each run with a traced run")
    args = p.parse_args(argv)
    names = args.workload.split(",")
    unknown = [w for w in names if w not in MIXES]
    if unknown or (len(names) > 1 and not args.steady):
        p.error(f"unknown or repeated workload {args.workload!r}; choose from {sorted(MIXES)}")
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        p.error("--seconds must be positive and --scale in (0, 1]")
    return args


def _import_program():
    """Import the stages with the program from this checkout's ``src``."""
    os.environ.pop("REPRO_VECTOR_SOA", None)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {ROOT / 'src'}")
    import stages

    return stages


# -- one run -------------------------------------------------------------------


#: End-to-end metrics: name -> (unit, better).  BENCHMARK.json carries the
#: same table; ``test_perfbench.py`` keeps the two equal.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "serve_arrivals_per_s": ("arr/s", "higher"),
    "ack_p50_ms": ("ms", "lower"),
    "recover_s": ("s", "lower"),
    "pack_items_per_s": ("items/s", "higher"),
    "sweep_cells_per_s": ("cells/s", "higher"),
    "usage_over_lb": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "workloads.load_records_per_s": ("records/s", "higher"),
    "engine.place_items_per_s": ("items/s", "higher"),
    "engine.submit_many_ms_p50": ("ms", "lower"),
    "engine.result_s": ("s", "lower"),
    "engine.peak_open_bins": ("count", "lower"),
    "engine.bins_opened": ("count", "lower"),
    "bounds.lb_s": ("s", "lower"),
    "adversary.cell_s_p50": ("s", "lower"),
    "adversary.nodes": ("count", "lower"),
    "adversary.memo_hits": ("count", "higher"),
    "adversary.memo_misses": ("count", "lower"),
    "adversary.exact_cells": ("count", "higher"),
    "adversary.node_budget_cells": ("count", "lower"),
    "sweep.pool_wait_s": ("s", "lower"),
    "serving.offer_us_p50": ("us", "lower"),
    "serving.flush_ms_p50": ("ms", "lower"),
    "serving.items_per_flush": ("items", "higher"),
    "serving.busy_replies": ("count", "lower"),
    "serving.ack_p99_ms": ("ms", "lower"),
    "serving.client_lateness_ms": ("ms", "lower"),
    "wal.append_us_p50": ("us", "lower"),
    "wal.sync_ms_p50": ("ms", "lower"),
    "wal.bytes_per_record": ("B", "lower"),
    "recovery.records_per_s": ("records/s", "higher"),
    "recovery.records": ("count", "lower"),
    "ref.loop_ms": ("ms", "lower"),
    "ref.rtt_ms": ("ms", "lower"),
    **{f"{layer}.self_pct": ("%", "lower") for layer in LAYERS},
}


def _median_s(timed: list[Timed]) -> tuple[float, float]:
    """Median scaled and median raw seconds of a stage's passes."""
    return median([t.scaled_s for t in timed]), median([t.raw_s for t in timed])


def end_to_end(run) -> dict[str, tuple[float, float]]:
    """``name -> (machine-speed-scaled value, raw wall-clock value)``."""
    setup, setup_raw = _median_s(run.timed["setup"])
    pack, pack_raw = _median_s(run.timed["pack"])
    sweep, sweep_raw = _median_s(run.timed["sweep"])
    serve, serve_raw = _median_s(run.timed["serve"])
    recover, recover_raw = _median_s(run.timed["recover"])
    items, cells = run.values["pack.items"], run.values["sweep.cells"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup, setup_raw),
        "serve_arrivals_per_s": (1.0 / serve, 1.0 / serve_raw),
        "ack_p50_ms": (
            median(run.samples["ack_over_rtt"]) * RTT_NOMINAL_MS, median(run.samples["ack_ms"])
        ),
        "recover_s": (recover, recover_raw),
        "pack_items_per_s": (items / pack, items / pack_raw),
        "sweep_cells_per_s": (cells / sweep, cells / sweep_raw),
        "usage_over_lb": (run.values["usage_over_lb"],) * 2,
        "peak_rss_mb": (rss, rss),
    }


def per_layer(run) -> dict[str, float]:
    tr, v, s = run.tracer, run.values, run.samples
    items = v["pack.items"]

    def ratio(num: str, den: str) -> float:
        return sum(s[num]) / max(sum(s[den]), 1.0)

    out = {
        "workloads.load_records_per_s": items / median(tr.durations("workloads.load_trace")),
        "engine.place_items_per_s": items / median(tr.durations("engine.pack_submit_many")),
        "engine.submit_many_ms_p50": median(tr.durations("engine.submit_many")) * 1e3,
        "engine.result_s": median(tr.durations("engine.result")),
        "engine.peak_open_bins": v["engine.peak_open_bins"],
        "engine.bins_opened": v["engine.bins_opened"],
        "bounds.lb_s": v["bounds.lb_s"],
        "adversary.cell_s_p50": v["adversary.cell_s_p50"],
        "adversary.nodes": v["adversary.nodes"],
        "adversary.memo_hits": v["adversary.memo_hits"],
        "adversary.memo_misses": v["adversary.memo_misses"],
        "adversary.exact_cells": v["adversary.exact_cells"],
        "adversary.node_budget_cells": v["adversary.node_budget_cells"],
        "sweep.pool_wait_s": v["sweep.pool_wait_s"],
        "serving.offer_us_p50": median(tr.durations("serving.offer_line")) * 1e6,
        "serving.flush_ms_p50": median(tr.durations("serving.flush")) * 1e3,
        "serving.items_per_flush": ratio("serving.batch_items.sum", "serving.batch_items.count"),
        "serving.busy_replies": median(s["serving.rejects"]),
        "serving.ack_p99_ms": quantile(s["ack_ms"], 0.99),
        "serving.client_lateness_ms": quantile(s["lateness_ms"], 0.99),
        "wal.append_us_p50": median(tr.durations("wal.append_arrival")) * 1e6,
        "wal.sync_ms_p50": median(tr.durations("wal.sync")) * 1e3,
        "wal.bytes_per_record": ratio("serving.wal.bytes", "serving.wal.appends"),
        "recovery.records_per_s": median(s["recovery.records_per_s"]),
        "recovery.records": median(s["recovery.records"]),
        "ref.loop_ms": median(run.clock.refs) * 1e3,
        "ref.rtt_ms": median(s["rtt_ms"]),
    }
    self_s = tr.self_times()
    total = sum(self_s.values()) or 1.0
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * self_s.get(layer, 0.0) / total
    return out


def run_once(args: argparse.Namespace) -> int:
    try:
        stages = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    run = stages.Run(
        mix=MIXES[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        work=work,
        tracer=Tracer(enabled=bool(args.trace)),
    )
    try:
        stages.setup(run)
        stages.pack(run)
        stages.sweep(run)
        stages.serve(run)
    finally:
        stages.stop_client(run.client)
        shutil.rmtree(work, ignore_errors=True)
    e2e = end_to_end(run)
    layers = per_layer(run) if args.trace else {}
    for name, (value, raw) in e2e.items():
        unit, better = END_TO_END[name]
        print(f"{name:24s} {value:14.4f} {unit:8s} raw {raw:14.4f}  ({better} is better)")
    for name, value in layers.items():
        unit, better = PER_LAYER[name]
        print(f"{name:32s} {value:14.4f} {unit:10s} ({better} is better)")
    for layer, seconds in sorted(run.tracer.self_times().items()):
        print(f"self time {layer:12s} {seconds:10.4f} s")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {
        "end_to_end": {
            name: {"value": v, "raw": r, "unit": END_TO_END[name][0], "better": END_TO_END[name][1]}
            for name, (v, r) in e2e.items()
        },
        "per_layer": {
            name: {"value": v, "unit": PER_LAYER[name][0], "better": PER_LAYER[name][1]}
            for name, v in layers.items()
        },
        "passes": {
            name: [[t.raw_s, t.ref_before_s, t.ref_after_s] for t in timed]
            for name, timed in run.timed.items()
        },
    }
    print(DETAIL_PREFIX + json.dumps(detail))
    if args.trace:
        chosen = {name: (v, PER_LAYER[name][0]) for name, v in layers.items()}
    else:
        chosen = {name: (v, END_TO_END[name][0]) for name, (v, _) in e2e.items()}
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in chosen.items()},
            }
        )
    )
    return 0


# -- steadiness mode -----------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    detail = next(json.loads(ln[len(DETAIL_PREFIX):]) for ln in lines if ln.startswith(DETAIL_PREFIX))
    return {"result": json.loads(lines[-1]), "detail": detail["end_to_end"], "layers": detail["per_layer"]}


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def steady(args: argparse.Namespace) -> int:
    workloads = args.workload.split(",")
    bounds = {m["name"]: m["bound"] for m in SPEC.get("end_to_end", [])}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.steady):
        for w in workloads if k % 2 == 0 else workloads[::-1]:
            seed = args.seed + k
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for trace in order if args.traced else (0,):
                out = _child(w, seed, args.seconds, trace)
                (traced if trace else runs)[w].append(out)
                print(f"run {k} {w} seed {seed} trace {trace}: correct={out['result']['correct']} "
                      f"attempted={out['result']['attempted']} failed={out['result']['failed']}", flush=True)
    worst = 0.0
    for w in workloads:
        print(f"\n== {w}: {len(runs[w])} runs")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs[w]}
        print(f"failed share per run: {sorted(shares)}")
        print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} "
              f"{'/bound':>7s} | {'raw median':>12s} {'raw spread':>10s}")
        for name in runs[w][0]["detail"]:
            vals = [r["detail"][name]["value"] for r in runs[w]]
            raws = [r["detail"][name]["raw"] for r in runs[w]]
            med, q1, q3, spread = _spread(vals)
            rmed, _, _, rspread = _spread(raws)
            bound = bounds.get(name, float("nan"))
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:22s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} {bound:6.2f} "
                  f"{spread / bound:7.2f} | {rmed:12.4f} {rspread:10.3f}")
        if traced[w]:
            print("tracing overhead (traced median / untraced median - 1, scaled figures):")
            for name in runs[w][0]["detail"]:
                plain = median([r["detail"][name]["value"] for r in runs[w]])
                with_spans = median([r["detail"][name]["value"] for r in traced[w]])
                print(f"  {name:22s} {100.0 * (with_spans / plain - 1.0):+7.1f}%")
            print("per-layer medians over the traced runs:")
            for name, metric in traced[w][0]["layers"].items():
                value = median([r["layers"][name]["value"] for r in traced[w]])
                print(f"  {name:32s} {value:14.4f} {metric['unit']}")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    return steady(args) if args.steady else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
