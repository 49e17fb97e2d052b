"""Causal geometry of 1+1 Minkowski space in null coordinates.

Points carry (t, x) and the null pair u = t - x, v = t + x; the causal order
is the coordinatewise order on (u, v). Regions are finite unions of open
convex cells, each an intersection of interval bounds in t, x, u and v.
Double cones are pure (u, v) boxes, axis rectangles pure (t, x) boxes, and
backward light cones / causal complements are one-sided (u, v) wedges, so
every operation here reduces to interval arithmetic.

Every cell carries its exact hull: each of its four bounds is the tightest
one the other three coordinates allow, found in closed form by eliminating
the other coordinate of the pair, so cones, rects, wedges and their mixed
intersections alike have exact bounds in both frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .config import TOL
from .errors import (
    DisconnectedRegionError,
    InternalInconsistencyError,
    RegionError,
)

INF = math.inf


# ---------------------------------------------------------------------------
# points and intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    t: float
    x: float

    @property
    def u(self) -> float:
        return self.t - self.x

    @property
    def v(self) -> float:
        return self.t + self.x

    @classmethod
    def from_null(cls, u: float, v: float) -> "Point":
        return cls(t=0.5 * (u + v), x=0.5 * (v - u))


def causal_relation(p: Point, q: Point) -> str:
    """'timelike', 'null' or 'spacelike' from the sign of (du)(dv)."""
    s = (q.u - p.u) * (q.v - p.v)
    if abs(s) <= TOL.geo:
        return "null"
    return "timelike" if s > 0 else "spacelike"


@dataclass(frozen=True)
class Interval:
    """Open interval; endpoints may be infinite."""

    lo: float = -INF
    hi: float = INF

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, value: float) -> bool:
        return self.lo < value < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Open-in-open containment; endpoint equality allowed."""
        return self.lo <= other.lo and other.hi <= self.hi


FULL = Interval()


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """Open convex cell: conjunction of interval bounds in t, x, u, v."""

    t: Interval = FULL
    x: Interval = FULL
    u: Interval = FULL
    v: Interval = FULL

    def contains(self, p: Point) -> bool:
        return (
            self.t.contains(p.t)
            and self.x.contains(p.x)
            and self.u.contains(p.u)
            and self.v.contains(p.v)
        )

    @property
    def bounded(self) -> bool:
        return self.t.bounded and self.x.bounded

    def intersect(self, other: "Cell") -> Optional["Cell"]:
        return make_cell(
            t=self.t.intersect(other.t),
            x=self.x.intersect(other.x),
            u=self.u.intersect(other.u),
            v=self.v.intersect(other.v),
        )


def make_cell(t=FULL, x=FULL, u=FULL, v=FULL) -> Optional[Cell]:
    """The exact hull of the cell the four bounds cut out; None when empty.

    With u = t - x and v = t + x, eliminating the other coordinate of the
    pair (Fourier-Motzkin) gives each bound as the max of four lower terms
    or the min of four upper terms. Empty inputs are refused first, so every
    term is lo + lo, hi + hi or lo - hi and no inf - inf arises.
    """
    if any(i.empty for i in (t, x, u, v)):
        return None
    hull = (
        Interval(
            max(t.lo, x.lo + u.lo, v.lo - x.hi, 0.5 * (u.lo + v.lo)),
            min(t.hi, x.hi + u.hi, v.hi - x.lo, 0.5 * (u.hi + v.hi)),
        ),
        Interval(
            max(x.lo, t.lo - u.hi, v.lo - t.hi, 0.5 * (v.lo - u.hi)),
            min(x.hi, t.hi - u.lo, v.hi - t.lo, 0.5 * (v.hi - u.lo)),
        ),
        Interval(
            max(u.lo, t.lo - x.hi, 2 * t.lo - v.hi, v.lo - 2 * x.hi),
            min(u.hi, t.hi - x.lo, 2 * t.hi - v.lo, v.hi - 2 * x.lo),
        ),
        Interval(
            max(v.lo, t.lo + x.lo, 2 * t.lo - u.hi, u.lo + 2 * x.lo),
            min(v.hi, t.hi + x.hi, 2 * t.hi - u.lo, u.hi + 2 * x.hi),
        ),
    )
    if any(i.empty for i in hull):
        return None
    return Cell(*hull)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Finite union of open cells, tagged with how it was built."""

    kind: str
    cells: tuple[Cell, ...]

    def contains(self, p: Point) -> bool:
        return any(c.contains(p) for c in self.cells)

    @property
    def bounded(self) -> bool:
        return all(c.bounded for c in self.cells)

    @property
    def empty(self) -> bool:
        return not self.cells


def _interval_arg(pair, name: str) -> Interval:
    lo, hi = float(pair[0]), float(pair[1])
    iv = Interval(lo, hi)
    if iv.empty:
        raise RegionError(f"{name} interval ({lo}, {hi}) is empty")
    if not iv.bounded:
        raise RegionError(f"{name} interval must be bounded")
    return iv


def double_cone(u, v) -> Region:
    """Open double cone: a box in null coordinates."""
    cell = make_cell(u=_interval_arg(u, "u"), v=_interval_arg(v, "v"))
    return Region("double_cone", (cell,))


def rect(t, x) -> Region:
    """Open axis-aligned rectangle in (t, x)."""
    cell = make_cell(t=_interval_arg(t, "t"), x=_interval_arg(x, "x"))
    return Region("rect", (cell,))


def union(*regions: Region) -> Region:
    cells: list[Cell] = []
    for r in regions:
        if r.empty:
            raise RegionError("union members must be nonempty")
        cells.extend(r.cells)
    if not cells:
        raise RegionError("union of nothing")
    return Region("union", tuple(cells))


def _meet_cells(families: Iterable[Iterable[Cell]]) -> list[Cell]:
    """Nonempty intersections taking one cell from each family, in order.

    Each accumulated cell meets every cell of the next family; the search
    stops as soon as nothing is left.
    """
    families = iter(families)
    pieces = list(next(families))
    for cells in families:
        if not pieces:
            break
        pieces = [inter for p in pieces for c in cells if (inter := p.intersect(c)) is not None]
    return pieces


def _region_from_cells(cells: Iterable[Optional[Cell]], kind: str) -> Region:
    kept = tuple(c for c in cells if c is not None)
    return Region(kind, kept)


def hull(region: Region, axis: str) -> Interval:
    """The smallest interval holding the region's cells along ``axis``,
    one of "t", "x", "u" and "v"."""
    if region.empty:
        raise RegionError("hull of empty region")
    ivs = [getattr(c, axis) for c in region.cells]
    return Interval(min(iv.lo for iv in ivs), max(iv.hi for iv in ivs))


# ---------------------------------------------------------------------------
# causal operations
# ---------------------------------------------------------------------------


def blc(v_or_point) -> Region:
    """Backward light cone: everything that can causally influence the input.

    The past of an open region with null suprema (b, d) is the open wedge
    {u < b, v < d}; unions map to unions of wedges. Accepts a Point as the
    degenerate limit.
    """
    if isinstance(v_or_point, Point):
        p = v_or_point
        return Region("wedge", (make_cell(u=Interval(-INF, p.u), v=Interval(-INF, p.v)),))
    region: Region = v_or_point
    if region.empty:
        raise RegionError("backward light cone of empty region")
    cells = [
        make_cell(u=Interval(-INF, c.u.hi), v=Interval(-INF, c.v.hi))
        for c in region.cells
    ]
    return _region_from_cells(cells, "wedge" if len(cells) == 1 else "union")


def _cell_complement(c: Cell) -> list[Cell]:
    """Interior of the causal complement of one convex cell (its null hull)."""
    right = make_cell(u=Interval(c.u.hi, INF), v=Interval(-INF, c.v.lo))
    left = make_cell(u=Interval(-INF, c.u.lo), v=Interval(c.v.hi, INF))
    return [w for w in (right, left) if w is not None]


def causal_complement(region: Region) -> Region:
    """Interior of the set of points spacelike from every point of the region.

    Distributes over unions: the complement of a union is the intersection
    of the member complements, each of which is a pair of wedges.
    """
    if region.empty:
        raise RegionError("causal complement of empty region")
    pieces = _meet_cells(_cell_complement(c) for c in region.cells)
    return Region("union" if len(pieces) > 1 else "wedge", tuple(pieces))


def components(region: Region) -> list[Region]:
    """Connected components, merging cells with open overlap."""
    cells = list(region.cells)
    n = len(cells)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if cells[i].intersect(cells[j]) is not None:
                parent[find(i)] = find(j)
    groups: dict[int, list[Cell]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(cells[i])
    return [Region("union" if len(g) > 1 else region.kind, tuple(g)) for g in groups.values()]


def causal_completion(region: Region) -> Region:
    """Smallest double cone with the same causal complement: the null hull.

    Double cones are fixed points. Disconnected input raises, with the
    per-component completions attached to the error.
    """
    if region.empty:
        raise RegionError("causal completion of empty region")
    if not region.bounded:
        raise RegionError("causal completion requires a bounded region")
    comps = components(region)
    if len(comps) > 1:
        raise DisconnectedRegionError(
            f"region has {len(comps)} components; completion computed per component",
            components=[causal_completion(c) for c in comps],
        )
    cell = make_cell(u=hull(region, "u"), v=hull(region, "v"))
    return Region("double_cone", (cell,))


def _hulls_spacelike(c1: Cell, c2: Cell) -> bool:
    return (c1.u.hi <= c2.u.lo and c2.v.hi <= c1.v.lo) or (
        c2.u.hi <= c1.u.lo and c1.v.hi <= c2.v.lo
    )


def spacelike_separated(r1: Region, r2: Region) -> bool:
    """Null-hull separation, componentwise across unions."""
    if r1.empty or r2.empty:
        raise RegionError("spacelike separation of empty region")
    return all(_hulls_spacelike(c1, c2) for c1 in r1.cells for c2 in r2.cells)


def causal_shadow_check(r1: Region, r2: Region) -> bool:
    """Whether r1 lies inside the causal completion of r2."""
    hull = causal_completion(r2).cells[0]
    return all(
        hull.u.contains_interval(c.u) and hull.v.contains_interval(c.v)
        for c in r1.cells
    )


# ---------------------------------------------------------------------------
# weak common-cause region construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakCCConstruction:
    """A slab inside the union of backward light cones, with its checks.

    region: the slab (an open rect)
    completion: its causal completion (a double cone containing V1 and V2)
    depth: T with the slab spanning t in (-T - margin, -T)
    checks: named interval-arithmetic postconditions, all True
    """

    region: Region
    completion: Region
    depth: float
    margin: float
    t_overlap: float
    t_min: float
    checks: dict = field(default_factory=dict)


def weak_cc_region(
    v1: Region,
    v2: Region,
    margin: float = 0.5,
    depth: float | None = None,
) -> WeakCCConstruction:
    """Build a slab V in (BLC(V1) \\ V1) u (BLC(V2) \\ V2) whose completion
    contains V1 u V2.

    The slab top sits at t = -depth; when depth is None it is chosen one
    unit below the latest time at which the two backward-light-cone slices
    overlap and both regions are fully in the future. The spatial extent is
    the connected BLC-union slice at the top time: at every interior time
    the slices are strictly wider, so the open slab lies inside the open
    union without any shrink.
    """
    if not (v1.bounded and v2.bounded):
        raise RegionError("weak common-cause construction needs bounded regions")
    if not spacelike_separated(v1, v2):
        raise RegionError("regions are not spacelike separated")
    if margin <= 0:
        raise RegionError("margin must be positive")
    b1, d1 = hull(v1, "u").hi, hull(v1, "v").hi
    b2, d2 = hull(v2, "u").hi, hull(v2, "v").hi
    t_overlap = 0.5 * (min(b1, b2) + min(d1, d2))
    t_min = min(hull(v1, "t").lo, hull(v2, "t").lo)
    latest = min(t_overlap, t_min)
    if depth is None:
        top = latest - 1.0
    else:
        top = -float(depth)
        if top > latest:
            raise RegionError(
                f"slab top {top} must not exceed min(overlap time {t_overlap}, "
                f"region floor {t_min})"
            )
    x_lo = top - max(b1, b2)
    x_hi = max(d1, d2) - top
    if not x_lo < x_hi:
        raise InternalInconsistencyError("slab slice is empty; no overlap depth exists")
    slab = rect(t=(top - margin, top), x=(x_lo, x_hi))
    completion = causal_completion(slab)
    checks = {
        "slab_below_regions": top <= t_min,
        "slab_in_blc_union": top <= t_overlap
        and x_lo >= top - max(b1, b2)
        and x_hi <= max(d1, d2) - top,
        "completion_contains_inputs": causal_shadow_check(v1, slab)
        and causal_shadow_check(v2, slab),
    }
    if not all(checks.values()):
        failed = [k for k, ok in checks.items() if not ok]
        raise InternalInconsistencyError(
            f"weak common-cause construction failed checks: {failed}"
        )
    return WeakCCConstruction(
        region=slab,
        completion=completion,
        depth=-top,
        margin=margin,
        t_overlap=t_overlap,
        t_min=t_min,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# tilde decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TildeDecomposition:
    """Split of a common-cause region by which backward cone covers it.

    part1: inside BLC(V1) but not BLC(V2)
    part2: inside BLC(V2) but not BLC(V1)
    common: inside both (the leftover common-past part)
    The three parts are disjoint and cover the region up to boundary sets.
    """

    part1: Region
    part2: Region
    common: Region


def _interior_not(region: Region) -> list[list[Cell]]:
    """For each cell, the interior complement as a list of one-sided cells."""
    out = []
    for c in region.cells:
        flips = []
        for axis in ("t", "x", "u", "v"):
            iv = getattr(c, axis)
            if iv.lo != -INF:
                flips.append(make_cell(**{axis: Interval(-INF, iv.lo)}))
            if iv.hi != INF:
                flips.append(make_cell(**{axis: Interval(iv.hi, INF)}))
        out.append([f for f in flips if f is not None])
    return out


def _meet_region(*families: Iterable[Cell]) -> Region:
    """The region of the nonempty meets taking one cell from each family."""
    cells = _meet_cells(families)
    return Region("union" if len(cells) != 1 else "cell", tuple(cells))


def tilde_regions(v1: Region, v2: Region, v: Region) -> TildeDecomposition:
    """Decompose v by backward-cone coverage from v1 and v2 (boundary sets dropped)."""
    b1 = blc(v1)
    b2 = blc(v2)
    return TildeDecomposition(
        part1=_meet_region(v.cells, b1.cells, *_interior_not(b2)),
        part2=_meet_region(v.cells, b2.cells, *_interior_not(b1)),
        common=_meet_region(v.cells, b1.cells, b2.cells),
    )


# ---------------------------------------------------------------------------
# slices, sampling, serialization
# ---------------------------------------------------------------------------


def slice_at(region: Region, t: float) -> list[tuple[float, float]]:
    """Open x-intervals of the time-t slice, merged where they overlap."""
    raw = []
    for c in region.cells:
        if not c.t.contains(t):
            continue
        iv = c.x
        iv = iv.intersect(Interval(t - c.u.hi, t - c.u.lo))
        iv = iv.intersect(Interval(c.v.lo - t, c.v.hi - t))
        if not iv.empty:
            raw.append((iv.lo, iv.hi))
    raw.sort()
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1] + TOL.geo:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def sample_points(region: Region, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform over the region, via stratified rejection sampling.

    Stratifies the bounding box into a near-square grid with one proposal
    per stratum and repeats until n points are accepted.
    """
    if not region.bounded:
        raise RegionError("sampling requires a bounded region")
    tb, xb = hull(region, "t"), hull(region, "x")
    pts: list[tuple[float, float]] = []
    side = max(4, int(math.isqrt(max(n, 1))))
    rounds = 0
    while len(pts) < n and rounds < 1000:
        rounds += 1
        gt = np.linspace(tb.lo, tb.hi, side + 1)
        gx = np.linspace(xb.lo, xb.hi, side + 1)
        ts = rng.uniform(np.repeat(gt[:-1], side), np.repeat(gt[1:], side))
        xs = rng.uniform(np.tile(gx[:-1], side), np.tile(gx[1:], side))
        for tv, xv in zip(ts, xs):
            p = Point(float(tv), float(xv))
            if region.contains(p):
                pts.append((p.t, p.x))
                if len(pts) == n:
                    break
    if len(pts) < n:
        raise RegionError("rejection sampling failed; region too thin in its box")
    return np.array(pts)


def _iv_record(iv: Interval):
    return [None if iv.lo == -INF else iv.lo, None if iv.hi == INF else iv.hi]


def region_record(region: Region) -> dict:
    """Serializable description carrying both coordinate systems."""
    return {
        "kind": region.kind,
        "cells": [
            {
                "t": _iv_record(c.t),
                "x": _iv_record(c.x),
                "u": _iv_record(c.u),
                "v": _iv_record(c.v),
            }
            for c in region.cells
        ],
    }


def describe(region: Region) -> str:
    """One-line human description in both (t, x) and (u, v)."""

    def fmt(iv: Interval) -> str:
        lo = "-inf" if iv.lo == -INF else f"{iv.lo:g}"
        hi = "inf" if iv.hi == INF else f"{iv.hi:g}"
        return f"({lo}, {hi})"

    parts = []
    for c in region.cells:
        parts.append(f"t {fmt(c.t)} x {fmt(c.x)} | u {fmt(c.u)} v {fmt(c.v)}")
    return f"{region.kind}[" + "; ".join(parts) + "]"
