"""Causal geometry suite.

Interval arithmetic carries the proofs here, so the checks come in two
layers: exact identities on the interval representation, and Monte Carlo
point sampling as an independent oracle for the set-level claims.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ccbench import geometry as geo
from ccbench.errors import (
    DisconnectedRegionError,
    InternalInconsistencyError,
    RegionError,
)
from ccbench.toynet import SliceCone

UNIT_CONE = geo.double_cone(u=(-1.0, 1.0), v=(-1.0, 1.0))
FAR_CONE = geo.double_cone(u=(-11.0, -9.0), v=(9.0, 11.0))  # unit cone at x = 10


def random_region(rng):
    """Bounded connected region: cone, rect, or an overlapping union."""
    kind = rng.integers(3)
    t0, x0 = rng.uniform(-5, 5, size=2)
    w, h = rng.uniform(0.2, 3.0, size=2)
    if kind == 0:
        return geo.double_cone(u=(t0 - x0 - w, t0 - x0 + w), v=(t0 + x0 - h, t0 + x0 + h))
    if kind == 1:
        return geo.rect(t=(t0, t0 + w), x=(x0, x0 + h))
    base = geo.rect(t=(t0, t0 + w), x=(x0, x0 + h))
    # second cell shifted by less than the extent, so the union stays connected
    shift = rng.uniform(-0.4, 0.4, size=2) * [w, h]
    other = geo.rect(
        t=(t0 + shift[0], t0 + w + shift[0]), x=(x0 + shift[1], x0 + h + shift[1])
    )
    return geo.union(base, other)


def same_hull(r1, r2):
    return (
        geo.hull(r1, "u") == geo.hull(r2, "u")
        and geo.hull(r1, "v") == geo.hull(r2, "v")
    )


# ---------------------------------------------------------------------------
# points and relations
# ---------------------------------------------------------------------------


def test_null_coordinates_round_trip():
    p = geo.Point(t=2.0, x=-3.0)
    assert (p.u, p.v) == (5.0, -1.0)
    q = geo.Point.from_null(u=p.u, v=p.v)
    assert (q.t, q.x) == (p.t, p.x)


def test_causal_relation_cases():
    o = geo.Point(0.0, 0.0)
    assert geo.causal_relation(o, geo.Point(2.0, 0.5)) == "timelike"
    assert geo.causal_relation(o, geo.Point(0.5, 2.0)) == "spacelike"
    assert geo.causal_relation(o, geo.Point(1.0, 1.0)) == "null"
    # symmetric in its arguments
    assert geo.causal_relation(geo.Point(2.0, 0.5), o) == "timelike"


def test_point_past_membership():
    past = geo.blc(geo.Point(0.0, 0.0))
    assert past.contains(geo.Point(-1.0, 0.2))
    assert not past.contains(geo.Point(-1.0, 2.0))
    assert not past.contains(geo.Point(1.0, 0.0))


# ---------------------------------------------------------------------------
# region constructors and containment
# ---------------------------------------------------------------------------


def test_double_cone_contains_center_not_corner():
    assert UNIT_CONE.contains(geo.Point(0.0, 0.0))
    assert not UNIT_CONE.contains(geo.Point(1.0, 0.0))  # boundary: open region
    assert not UNIT_CONE.contains(geo.Point(0.0, 1.5))


def test_rect_gains_null_bounds():
    r = geo.rect(t=(0.0, 1.0), x=(0.0, 2.0))
    (c,) = r.cells
    assert (c.u.lo, c.u.hi) == (-2.0, 1.0)
    assert (c.v.lo, c.v.hi) == (0.0, 3.0)


def test_empty_interval_rejected():
    with pytest.raises(RegionError, match="empty"):
        geo.rect(t=(1.0, 1.0), x=(0.0, 1.0))
    with pytest.raises(RegionError, match="bounded"):
        geo.double_cone(u=(0.0, np.inf), v=(0.0, 1.0))


def test_union_requires_members():
    with pytest.raises(RegionError):
        geo.union()


def test_unit_cone_is_t_x_square():
    # {|t| + |x| < 1}
    assert UNIT_CONE.contains(geo.Point(0.4, 0.55))
    assert not UNIT_CONE.contains(geo.Point(0.4, 0.65))
    assert geo.hull(UNIT_CONE, "t") == geo.Interval(-1.0, 1.0)
    assert geo.hull(UNIT_CONE, "x") == geo.Interval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_double_complement_is_completion(seed):
    rng = np.random.default_rng(seed)
    r = random_region(rng)
    twice = geo.causal_complement(geo.causal_complement(r))
    assert same_hull(twice, geo.causal_completion(r))
    assert len(twice.cells) == 1


@pytest.mark.parametrize("seed", range(20))
def test_complement_idempotent_after_one_pass(seed):
    rng = np.random.default_rng(100 + seed)
    r = random_region(rng)
    once = geo.causal_complement(r)
    thrice = geo.causal_complement(geo.causal_complement(once))
    assert set(once.cells) == set(thrice.cells)


@pytest.mark.parametrize("seed", range(20))
def test_double_cones_fixed_under_completion(seed):
    rng = np.random.default_rng(200 + seed)
    t0, x0 = rng.uniform(-4, 4, size=2)
    w, h = rng.uniform(0.3, 2.0, size=2)
    cone = geo.double_cone(u=(t0 - w, t0 + w), v=(x0 - h, x0 + h))
    assert geo.causal_completion(cone).cells == cone.cells


@pytest.mark.parametrize("seed", range(20))
def test_region_spacelike_from_its_complement(seed):
    rng = np.random.default_rng(300 + seed)
    r = random_region(rng)
    comp = geo.causal_complement(r)
    assert geo.spacelike_separated(r, comp)
    assert geo.spacelike_separated(comp, r)


def test_completion_rejects_disconnected_input():
    both = geo.union(UNIT_CONE, FAR_CONE)
    with pytest.raises(DisconnectedRegionError) as err:
        geo.causal_completion(both)
    parts = err.value.components
    assert len(parts) == 2
    assert same_hull(parts[0], UNIT_CONE) or same_hull(parts[1], UNIT_CONE)


def test_components_split_and_merge():
    assert len(geo.components(geo.union(UNIT_CONE, FAR_CONE))) == 2
    overlap = geo.union(
        geo.rect(t=(0.0, 1.0), x=(0.0, 1.0)), geo.rect(t=(0.5, 1.5), x=(0.5, 1.5))
    )
    assert len(geo.components(overlap)) == 1


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def test_sampled_points_land_inside():
    rng = np.random.default_rng(0)
    pts = geo.sample_points(UNIT_CONE, 500, rng)
    assert pts.shape == (500, 2)
    assert all(UNIT_CONE.contains(geo.Point(t, x)) for t, x in pts)


def test_sampling_unbounded_region_rejected():
    with pytest.raises(RegionError, match="bounded"):
        geo.sample_points(geo.blc(UNIT_CONE), 10, np.random.default_rng(0))


def test_separated_cones_spacelike_pointwise():
    rng = np.random.default_rng(1)
    p1 = geo.sample_points(UNIT_CONE, 300, rng)
    p2 = geo.sample_points(FAR_CONE, 300, rng)
    assert geo.spacelike_separated(UNIT_CONE, FAR_CONE)
    for (t1, x1), (t2, x2) in zip(p1, p2):
        rel = geo.causal_relation(geo.Point(t1, x1), geo.Point(t2, x2))
        assert rel == "spacelike"


@pytest.mark.parametrize("seed", range(5))
def test_region_sits_inside_its_past(seed):
    rng = np.random.default_rng(400 + seed)
    r = random_region(rng)
    cone = geo.blc(r)
    for t, x in geo.sample_points(r, 100, rng):
        assert cone.contains(geo.Point(t, x))


def test_complement_points_spacelike_from_region_points():
    rng = np.random.default_rng(2)
    comp = geo.causal_complement(UNIT_CONE)
    # clip the unbounded wedges to a box to sample from them
    box = geo.rect(t=(-4.0, 4.0), x=(-4.0, 4.0))
    clipped = geo._meet_region(comp.cells, box.cells)
    inside = geo.sample_points(UNIT_CONE, 200, rng)
    outside = geo.sample_points(clipped, 200, rng)
    for (t1, x1), (t2, x2) in zip(inside, outside):
        rel = geo.causal_relation(geo.Point(t1, x1), geo.Point(t2, x2))
        assert rel == "spacelike"


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------


def test_unit_cone_slices():
    assert geo.slice_at(UNIT_CONE, 0.0) == [(-1.0, 1.0)]
    assert geo.slice_at(UNIT_CONE, 0.5) == [(-0.5, 0.5)]
    assert geo.slice_at(UNIT_CONE, 1.0) == []


def test_slice_merges_overlapping_cells():
    r = geo.union(
        geo.rect(t=(0.0, 1.0), x=(0.0, 1.0)), geo.rect(t=(0.0, 1.0), x=(0.5, 2.0))
    )
    assert geo.slice_at(r, 0.5) == [(0.0, 2.0)]


# ---------------------------------------------------------------------------
# the slab construction
# ---------------------------------------------------------------------------


def test_slab_construction_worked_instance():
    built = geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.5, depth=6.0)
    (slab_cell,) = built.region.cells
    assert (slab_cell.t.lo, slab_cell.t.hi) == (-6.5, -6.0)
    assert (slab_cell.x.lo, slab_cell.x.hi) == (-7.0, 17.0)
    (hull,) = built.completion.cells
    assert (hull.u.lo, hull.u.hi) == (-23.5, 1.0)
    assert (hull.v.lo, hull.v.hi) == (-13.5, 11.0)
    assert built.depth == 6.0
    assert built.t_overlap == -4.0
    assert built.t_min == -1.0
    assert built.checks == {
        "slab_below_regions": True,
        "slab_in_blc_union": True,
        "completion_contains_inputs": True,
    }


def test_slab_default_depth_one_below_overlap():
    built = geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.5)
    assert built.depth == 5.0  # overlap time -4, floor -1, one unit below


def test_slab_postconditions_sampled():
    rng = np.random.default_rng(3)
    built = geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.5, depth=6.0)
    b1, b2 = geo.blc(UNIT_CONE), geo.blc(FAR_CONE)
    for t, x in geo.sample_points(built.region, 400, rng):
        p = geo.Point(t, x)
        assert b1.contains(p) or b2.contains(p)
        assert not UNIT_CONE.contains(p) and not FAR_CONE.contains(p)
    # and the completion really contains both inputs
    assert geo.causal_shadow_check(UNIT_CONE, built.region)
    assert geo.causal_shadow_check(FAR_CONE, built.region)


@pytest.mark.parametrize("seed", range(8))
def test_slab_construction_random_separated_cones(seed):
    rng = np.random.default_rng(500 + seed)
    c1 = rng.uniform(-3, 0)
    c2 = c1 + rng.uniform(2.5, 8.0)  # centers > diameter apart: spacelike
    v1 = geo.double_cone(u=(-c1 - 1, -c1 + 1), v=(c1 - 1, c1 + 1))
    v2 = geo.double_cone(u=(-c2 - 1, -c2 + 1), v=(c2 - 1, c2 + 1))
    built = geo.weak_cc_region(v1, v2, margin=rng.uniform(0.2, 1.5))
    assert all(built.checks.values())
    for t, x in geo.sample_points(built.region, 60, rng):
        p = geo.Point(t, x)
        assert geo.blc(v1).contains(p) or geo.blc(v2).contains(p)


def test_slab_rejects_bad_inputs():
    touching = geo.double_cone(u=(-1.0, 1.0), v=(0.5, 2.5))
    with pytest.raises(RegionError, match="spacelike"):
        geo.weak_cc_region(UNIT_CONE, touching)
    with pytest.raises(RegionError, match="margin"):
        geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.0)
    with pytest.raises(RegionError, match="slab top"):
        geo.weak_cc_region(UNIT_CONE, FAR_CONE, depth=2.0)
    with pytest.raises(RegionError, match="bounded"):
        geo.weak_cc_region(geo.blc(UNIT_CONE), FAR_CONE)


# ---------------------------------------------------------------------------
# tilde decomposition
# ---------------------------------------------------------------------------


def test_tilde_split_worked_instance():
    built = geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.5, depth=6.0)
    tilde = geo.tilde_regions(UNIT_CONE, FAR_CONE, built.region)
    t = -6.25
    assert geo.slice_at(tilde.part1, t) == [(-7.0, 2.75)]
    assert geo.slice_at(tilde.part2, t) == [(7.25, 17.0)]
    assert geo.slice_at(tilde.common, t) == [(2.75, 7.25)]


def test_tilde_parts_partition_the_slab():
    rng = np.random.default_rng(4)
    built = geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.5, depth=6.0)
    tilde = geo.tilde_regions(UNIT_CONE, FAR_CONE, built.region)
    hits = 0
    for t, x in geo.sample_points(built.region, 500, rng):
        p = geo.Point(t, x)
        inside = [r.contains(p) for r in (tilde.part1, tilde.part2, tilde.common)]
        assert sum(inside) <= 1
        hits += sum(inside)
    # boundary lines are null sets; every sampled point lands in exactly one part
    assert hits == 500


def test_shadow_membership_goldens():
    p = geo.Point(-6.0, 5.0)
    built = geo.weak_cc_region(UNIT_CONE, FAR_CONE, margin=0.5, depth=6.0)
    assert geo.blc(UNIT_CONE).contains(p)
    assert not built.region.contains(p)  # sits on the slab's open top edge
    assert not geo.causal_complement(UNIT_CONE).contains(p)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_region_record_shape():
    rec = geo.region_record(UNIT_CONE)
    assert rec["kind"] == "double_cone"
    assert rec["cells"][0]["u"] == [-1.0, 1.0]
    wedge = geo.region_record(geo.blc(UNIT_CONE))
    assert wedge["cells"][0]["u"] == [None, 1.0]


def test_describe_mentions_both_charts():
    text = geo.describe(UNIT_CONE)
    assert "u (-1, 1)" in text and "t (-1, 1)" in text


# ---------------------------------------------------------------------------
# complement and completion identities, as properties
# ---------------------------------------------------------------------------

# Coordinates on a grid of 1/8: hulls, wedges and the closed-form cell
# bounds are then exact, so the identities hold with no tolerance.
GRID = 0.125


@st.composite
def drawn_regions(draw):
    """A double cone on the grid, or a toy-net slice cone as its diamond or
    as its cell hull (a rect, which its completion strictly contains)."""
    kind = draw(st.sampled_from(["double_cone", "diamond", "cell_hull"]))
    if kind == "double_cone":
        u0, v0 = draw(st.integers(-80, 80)), draw(st.integers(-80, 80))
        du, dv = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        return geo.double_cone(u=(u0 * GRID, (u0 + du) * GRID), v=(v0 * GRID, (v0 + dv) * GRID))
    lo = draw(st.integers(0, 9))
    cone = SliceCone(draw(st.integers(0, 6)), lo, draw(st.integers(lo, 9)))
    return cone.diamond() if kind == "diamond" else cone.cell_hull()


def inside(inner, outer) -> bool:
    """Every cell of ``inner`` lies in one cell of ``outer``, an intersection
    of wedges (a double cone or a wedge is its own null-coordinate box)."""
    return all(
        any(o.u.contains_interval(c.u) and o.v.contains_interval(c.v) for o in outer.cells)
        for c in inner.cells
    )


@given(r=drawn_regions(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_region_lies_in_its_double_complement(r, seed):
    twice = geo.causal_complement(geo.causal_complement(r))
    assert inside(r, twice)
    # the sampled points are an oracle apart from the interval bounds
    pts = geo.sample_points(r, 20, np.random.default_rng(seed))
    assert all(twice.contains(geo.Point(t, x)) for t, x in pts)


@given(r=drawn_regions())
@settings(max_examples=60, deadline=None)
def test_triple_complement_is_the_complement(r):
    once = geo.causal_complement(r)
    thrice = geo.causal_complement(geo.causal_complement(once))
    assert set(thrice.cells) == set(once.cells)


@given(r=drawn_regions())
@settings(max_examples=60, deadline=None)
def test_completion_is_idempotent(r):
    comp = geo.causal_completion(r)
    assert geo.causal_completion(comp).cells == comp.cells
    assert comp.cells == geo.causal_complement(geo.causal_complement(r)).cells


@given(r=drawn_regions(), s=drawn_regions())
@settings(max_examples=80, deadline=None)
def test_causal_complement_agrees_with_spacelike_separation(r, s):
    assert geo.spacelike_separated(r, geo.causal_complement(r))
    verdict = geo.spacelike_separated(r, s)
    assert verdict == geo.spacelike_separated(s, r)
    assert verdict == inside(s, geo.causal_complement(r)) == inside(r, geo.causal_complement(s))


# ---------------------------------------------------------------------------
# cell bounds against an independent hull
# ---------------------------------------------------------------------------

# Each coordinate as a linear form in (t, x).
FORMS = {"t": (1.0, 0.0), "x": (0.0, 1.0), "u": (1.0, -1.0), "v": (1.0, 1.0)}


@st.composite
def grid_intervals(draw):
    """An interval on the 1/8 grid, each end finite or infinite, possibly empty."""
    lo = draw(st.one_of(st.none(), st.integers(-24, 24)))
    hi = draw(st.one_of(st.none(), st.integers(-24, 24)))
    return geo.Interval(-geo.INF if lo is None else lo * GRID, geo.INF if hi is None else hi * GRID)


def octagon_rows(bounds):
    """A z <= b rows of the closed octagon the four intervals cut out."""
    rows, rhs = [], []
    for name, iv in bounds.items():
        a = np.array(FORMS[name])
        if np.isfinite(iv.lo):
            rows.append(-a)
            rhs.append(-iv.lo)
        if np.isfinite(iv.hi):
            rows.append(a)
            rhs.append(iv.hi)
    return np.array(rows).reshape(-1, 2), np.array(rhs)


def lp_extreme(rows, rhs, form, sign) -> float:
    """min (sign 1) or max (sign -1) of the form over the closed octagon."""
    res = linprog(sign * np.array(form), A_ub=rows, b_ub=rhs, bounds=[(None, None)] * 2)
    if res.status == 3:
        return -sign * geo.INF
    assert res.status == 0, res.message
    return sign * res.fun


def lp_has_interior(rows, rhs) -> bool:
    """Whether some point meets every row with slack: max s, A z + s <= b."""
    if not len(rows):
        return True
    slack_rows = np.hstack([rows, np.ones((len(rows), 1))])
    res = linprog([0.0, 0.0, -1.0], A_ub=slack_rows, b_ub=rhs, bounds=[(None, None)] * 2 + [(None, 1)])
    return res.status == 0 and -res.fun > 1e-9


@given(t=grid_intervals(), x=grid_intervals(), u=grid_intervals(), v=grid_intervals())
@settings(max_examples=200, deadline=None)
def test_cell_bounds_are_the_lp_hull(t, x, u, v):
    bounds = {"t": t, "x": x, "u": u, "v": v}
    cell = geo.make_cell(**bounds)
    rows, rhs = octagon_rows(bounds)
    if not all(iv.lo < iv.hi for iv in bounds.values()) or not lp_has_interior(rows, rhs):
        assert cell is None
        return
    assert cell is not None
    for name, form in FORMS.items():
        hull = (lp_extreme(rows, rhs, form, 1), lp_extreme(rows, rhs, form, -1))
        got = getattr(cell, name)
        assert (got.lo, got.hi) == pytest.approx(hull, abs=1e-9), name


def test_parallelogram_cell_is_bounded():
    # a t-slab cut by a u-strip is a bounded parallelogram in every chart
    cell = geo.make_cell(t=geo.Interval(-1, 1), u=geo.Interval(0, 1))
    assert cell.bounded
    assert (cell.x, cell.v) == (geo.Interval(-2, 1), geo.Interval(-3, 2))
    region = geo.Region("cell", (cell,))
    assert geo.causal_completion(region).cells == geo.double_cone(u=(0, 1), v=(-3, 2)).cells
    pts = geo.sample_points(region, 50, np.random.default_rng(0))
    assert len(pts) == 50
    assert all(region.contains(geo.Point(t, x)) for t, x in pts)
