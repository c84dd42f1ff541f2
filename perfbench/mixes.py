"""The benchmark's workloads: inputs, packer and sweep grid per name.

Every workload runs the program's defaults: the packer is built by name
through the registry with only the parameters the ``serve`` command itself
passes by default (``alpha=2.0`` for classify-duration), and
``REPRO_VECTOR_SOA`` is cleared before the program is imported.

Inputs come from ``--seed``.  The sweep grid does not: a cell's exact
adversary cost varies about 2x between instance seeds (the n=200
``uniform`` cells take 1.8-3.2 s), so a seed-drawn grid would measure the
draw instead of the program.  The grid is fixed, like a user's experiment
grid, and the seed varies everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Mix:
    name: str
    why: str
    algorithm: str
    packer_kwargs: dict
    dims: int
    #: ``(n, seed) -> ItemList`` over the program's generators.
    generate: Callable
    items: int
    #: Records per tenant in the pipelined and the open-loop phase.
    pipelined_per_tenant: int
    open_per_tenant: int
    #: Open-loop arrivals per second over all connections: a constant well
    #: below capacity, not derived from the run, so a faster program gets
    #: the same load.
    open_rate: float
    #: ``(packer, packer_kwargs, workload, workload_kwargs)`` sweep cells.
    grid: tuple = field(default_factory=tuple)
    #: Shares of ``--seconds`` for the pack, sweep and serve stages.  A
    #: stage whose passes are long gets more time, so every metric is the
    #: median of enough passes.
    shares: tuple = (0.3, 0.15, 0.55)


def _short_jobs(n: int, seed: int):
    from repro.workloads import uniform_random

    # Sizes 0.05-0.5, durations 1-4 (mu ~ 4), 8 arrivals per time unit:
    # about 20 items and 6-13 bins open at once.
    return uniform_random(
        n, seed=seed, size_range=(0.05, 0.5), duration_range=(1.0, 4.0), arrival_span=n / 8.0
    )


def _long_sessions(n: int, seed: int):
    from repro.workloads import gaming_sessions

    # 1000 heavy-tailed sessions per hour keep 250-400 bins open.
    return gaming_sessions(n, seed=seed, horizon_hours=n / 1000.0)


def _vector_3d(n: int, seed: int):
    from repro.workloads import vector_uniform

    return vector_uniform(n, dims=3, seed=seed, correlation=0.0, arrival_span=n / 8.0)


def _cells(packer, kwargs, workload, specs):
    return tuple((packer, dict(kwargs), workload, dict(spec)) for spec in specs)


MIXES = {
    "short-jobs": Mix(
        name="short-jobs",
        why="few open bins and short uniform jobs: per-record serving costs and the exact adversary dominate",
        algorithm="first-fit",
        packer_kwargs={},
        dims=1,
        generate=_short_jobs,
        items=6000,
        pipelined_per_tenant=2500,
        open_per_tenant=500,
        open_rate=1000.0,
        # Two n=200 cells exhaust the B&B node budget; the smaller ones solve.
        grid=_cells(
            "first-fit",
            {},
            "uniform",
            [{"n": 200, "seed": 1}, {"n": 140, "seed": 0}, {"n": 140, "seed": 1}]
            + [{"n": 100, "seed": s} for s in range(4)],
        ),
        # A sweep pass takes about 2 s here (the node-budget cell).
        shares=(0.2, 0.35, 0.45),
    ),
    "long-sessions": Mix(
        name="long-sessions",
        why="hundreds of open bins under classify-duration: the scalar placement scan dominates pack and serve",
        algorithm="classify-duration",
        packer_kwargs={"alpha": 2.0},
        dims=1,
        generate=_long_sessions,
        items=6000,
        pipelined_per_tenant=2500,
        open_per_tenant=500,
        open_rate=1000.0,
        grid=_cells(
            "classify-duration", {"alpha": 2.0}, "gaming", [{"n": 200, "seed": s} for s in range(16)]
        ),
    ),
    "vector-3d": Mix(
        name="vector-3d",
        why="3-resource items on the default vector-first-fit path; sweep cells degrade to bounds",
        algorithm="vector-first-fit",
        packer_kwargs={"dims": 3},
        dims=3,
        generate=_vector_3d,
        items=6000,
        pipelined_per_tenant=2500,
        open_per_tenant=500,
        open_rate=1000.0,
        grid=_cells(
            "vector-first-fit",
            {"dims": 3},
            "vector",
            [{"n": 200, "dims": 3, "seed": s} for s in range(16)],
        ),
    ),
}
