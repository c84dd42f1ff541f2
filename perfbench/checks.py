"""Output checks computed apart from the program.

Nothing here calls the program's packers, bounds or solvers: placements,
capacities, usage and lower bounds are recomputed from the raw item columns
with numpy and plain Python, and slice optima with scipy's HiGHS ``milp``.
Each check raises :class:`CheckFailed` with a message naming what differs.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def columns(items) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, arrivals, departures, sizes[n, d])`` of an item sequence."""
    seq = list(items)
    ids = np.array([r.id for r in seq], dtype=np.int64)
    arr = np.array([r.arrival for r in seq], dtype=np.float64)
    dep = np.array([r.departure for r in seq], dtype=np.float64)
    sizes = np.array([r.sizes for r in seq], dtype=np.float64).reshape(len(seq), -1)
    return ids, arr, dep, sizes


def placements(result, ids: np.ndarray) -> np.ndarray:
    """Bin index per id, checking every id is placed exactly once."""
    assignment = result.assignment
    placed_ids = [r.id for r in result.items]
    require(len(placed_ids) == len(set(placed_ids)), "an item is placed twice")
    require(
        set(placed_ids) == set(ids.tolist()) and set(assignment) == set(placed_ids),
        f"placed ids differ from submitted ids ({len(placed_ids)} placed, {len(ids)} submitted)",
    )
    return np.array([assignment[int(i)] for i in ids], dtype=np.int64)


def max_bin_level(bins: np.ndarray, arr: np.ndarray, dep: np.ndarray, sizes: np.ndarray) -> float:
    """Highest per-coordinate bin level over every event (departures first at ties).

    Events are sorted by (bin, time, departure-before-arrival); each bin's
    deltas sum to zero, so one global cumulative sum reads every bin's level.
    """
    n = len(bins)
    times = np.concatenate([arr, dep])
    kinds = np.concatenate([np.ones(n), np.zeros(n)])  # departures (0) first
    owner = np.concatenate([bins, bins])
    deltas = np.concatenate([sizes, -sizes])
    order = np.lexsort((kinds, times, owner))
    levels = np.cumsum(deltas[order], axis=0)
    return float(levels.max()) if n else 0.0


def check_capacity(bins, arr, dep, sizes, what: str) -> None:
    peak = max_bin_level(bins, arr, dep, sizes)
    require(peak <= 1.0 + TOL, f"{what}: a bin reaches level {peak!r} > 1")


def union_usage(bins: np.ndarray, arr: np.ndarray, dep: np.ndarray) -> float:
    """Sum over bins of the length of the union of their items' intervals."""
    order = np.lexsort((arr, bins))
    total = 0.0
    cur_bin = None
    lo = hi = 0.0
    for k in order.tolist():
        b, a, d = int(bins[k]), float(arr[k]), float(dep[k])
        if b != cur_bin or a > hi:
            total += hi - lo
            cur_bin, lo, hi = b, a, d
        elif d > hi:
            hi = d
    return total + (hi - lo)


def check_usage(usage: float, bins, arr, dep, what: str) -> float:
    own = union_usage(bins, arr, dep)
    require(
        math.isclose(usage, own, rel_tol=1e-9, abs_tol=1e-9),
        f"{what}: program usage {usage!r} differs from recomputed {own!r}",
    )
    return own


def lower_bounds(arr: np.ndarray, dep: np.ndarray, sizes: np.ndarray) -> tuple[float, float]:
    """``(∫ max_k ⌈S_k(t)⌉ dt, max_k ∫ ⌈S_k(t)⌉ dt)``, S_k the size of coordinate k active at t.

    At every instant each open bin holds at most one unit per coordinate,
    so any packing keeps at least ⌈S_k(t)⌉ bins open for every k.  The first
    (pointwise) bound dominates the second, which is the paper's
    Proposition 3 taken per coordinate; both dominate the demand and span
    bounds.
    """
    times = np.concatenate([arr, dep])
    deltas = np.concatenate([sizes, -sizes])
    order = np.argsort(times, kind="stable")
    t = times[order]
    level = np.cumsum(deltas[order], axis=0)
    last = np.r_[np.nonzero(np.diff(t))[0], len(t) - 1]
    needed = np.ceil(level[last] - TOL)[:-1]
    widths = np.diff(t[last])
    return float((widths * needed.max(axis=1)).sum()), float((widths[:, None] * needed).sum(axis=0).max())


# -- reference online packers -------------------------------------------------


class _RefBin:
    __slots__ = ("level", "departures", "closes")

    def __init__(self, dims: int) -> None:
        self.level = [0.0] * dims
        self.departures: list[tuple[float, int]] = []
        self.closes = -math.inf


def _first_fit_into(
    open_bins: list[tuple[int, _RefBin]], t: float, size: tuple, d: float, k: int, sizes_of
) -> int:
    """Place at ``t`` into the earliest-opened bin that fits; -1 if none."""
    for index, b in open_bins:
        while b.departures and b.departures[0][0] <= t:
            _, j = heapq.heappop(b.departures)
            b.level = [x - s for x, s in zip(b.level, sizes_of(j))]
        if all(x + s <= 1.0 + TOL for x, s in zip(b.level, size)):
            b.level = [x + s for x, s in zip(b.level, size)]
            heapq.heappush(b.departures, (d, k))
            b.closes = max(b.closes, d)
            return index
    return -1


def reference_first_fit(
    arr: np.ndarray, dep: np.ndarray, sizes: np.ndarray, category=None
) -> np.ndarray:
    """First Fit in arrival order; bin indices in opening order.

    With ``category`` (one label per item), First Fit runs separately inside
    each category while bin indices stay global, which is how the
    classify-by-duration algorithm numbers its bins.
    """
    n, dims = sizes.shape
    rows = [tuple(r) for r in sizes.tolist()]
    arr_l, dep_l = arr.tolist(), dep.tolist()
    groups: dict[object, list[tuple[int, _RefBin]]] = {}
    out = np.empty(n, dtype=np.int64)
    opened = 0
    for k in range(n):
        t = arr_l[k]
        key = None if category is None else category[k]
        group = groups.setdefault(key, [])
        group[:] = [(i, b) for i, b in group if b.closes > t]
        index = _first_fit_into(group, t, rows[k], dep_l[k], k, rows.__getitem__)
        if index < 0:
            b = _RefBin(dims)
            b.level = list(rows[k])
            b.departures.append((dep_l[k], k))
            b.closes = dep_l[k]
            index = opened
            opened += 1
            group.append((index, b))
        out[k] = index
    return out


def duration_categories(arr: np.ndarray, dep: np.ndarray, alpha: float) -> list[int]:
    """Category ``i`` with ``d/base ∈ (α^(i-1), α^i]``, base the first item's duration."""
    durations = (dep - arr).tolist()
    base = durations[0]
    out = []
    for d in durations:
        ratio = d / base
        i = math.floor(math.log(ratio, alpha)) if ratio > 0 else 0
        while ratio > alpha**i:
            i += 1
        while ratio <= alpha ** (i - 1):
            i -= 1
        out.append(i)
    return out


def check_one_category_per_bin(bins: np.ndarray, categories: list[int]) -> None:
    seen: dict[int, int] = {}
    for b, c in zip(bins.tolist(), categories):
        require(seen.setdefault(b, c) == c, f"bin {b} holds duration categories {seen[b]} and {c}")


# -- exact slice optima -------------------------------------------------------


def milp_min_bins(sizes: list[float]) -> int:
    """Minimum unit bins for ``sizes`` by HiGHS MILP (assignment model)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(sizes)
    m = _ffd_count(sizes)
    # Variables: x[i, j] (n*m) then y[j] (m); minimise the bins used.
    c = np.r_[np.zeros(n * m), np.ones(m)]
    assign = np.zeros((n, n * m + m))
    for i in range(n):
        assign[i, i * m : (i + 1) * m] = 1.0
    capacity = np.zeros((m, n * m + m))
    for j in range(m):
        capacity[j, j : n * m : m] = sizes
        capacity[j, n * m + j] = -1.0
    order = np.zeros((max(m - 1, 0), n * m + m))
    for j in range(m - 1):  # y_j >= y_{j+1}: breaks bin symmetry
        order[j, n * m + j] = -1.0
        order[j, n * m + j + 1] = 1.0
    constraints = [
        LinearConstraint(assign, 1.0, 1.0),
        LinearConstraint(capacity, -np.inf, TOL),
    ]
    if m > 1:
        constraints.append(LinearConstraint(order, -np.inf, 0.0))
    res = milp(c, constraints=constraints, integrality=np.ones_like(c), bounds=Bounds(0, 1))
    require(res.status == 0, f"milp did not solve a {n}-item slice: {res.message}")
    return int(round(res.fun))


def _ffd_count(sizes: list[float]) -> int:
    levels: list[float] = []
    for s in sorted(sizes, reverse=True):
        for j, lv in enumerate(levels):
            if lv + s <= 1.0 + TOL:
                levels[j] = lv + s
                break
        else:
            levels.append(s)
    return len(levels)


def sample_slices(
    arr: np.ndarray, dep: np.ndarray, sizes: np.ndarray, count: int, max_items: int
) -> list[list[float]]:
    """Active size multisets at ``count`` evenly spread elementary slices."""
    times = np.unique(np.concatenate([arr, dep]))
    mids = (times[:-1] + times[1:]) / 2.0
    active = (arr[None, :] <= mids[:, None]) & (mids[:, None] < dep[None, :])
    counts = active.sum(axis=1)
    candidates = np.nonzero((counts >= 4) & (counts <= max_items))[0]
    if len(candidates) == 0:
        return []
    picks = candidates[np.linspace(0, len(candidates) - 1, count).round().astype(int)]
    return [sorted(sizes[active[p], 0].tolist()) for p in np.unique(picks)]
