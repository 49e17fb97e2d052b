"""Brickwork net suite.

The lattice-geometry dictionary, the Heisenberg assignment and its
axioms, and the end-to-end common-cause demonstration on a small chain.
Deliberately corrupted nets act as negative controls for the axiom
checker.
"""

import json
import re
import time

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from ccbench import DensityState, MatrixAlgebra, Projection, commoncause, geometry as geo, toynet
from ccbench import _linalg as la
from ccbench.cli import main as cli_main
from ccbench.errors import (
    CommutationError,
    InfeasibleError,
    NotFaithfulError,
    NotUnitaryError,
    RegionError,
    StructureError,
    ValidationError,
)
from ccbench.qprob import EpsilonPureState, PairProduct, commuting_meet
from ccbench.record import render_text
from ccbench.toynet import (
    NetModel,
    SliceCone,
    build_net,
    check_axioms,
    demo_state,
    region_algebra,
    weak_rccp_demo,
)

from conftest import HeisenbergAlgebra

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def embedded_pauli(net, site):
    return la.embed_factor(SX, (2,) * net.n_sites, (site,))


def cone_of(net, region):
    """The slice cone recovered from a region, as region_algebra recovers it."""
    return toynet._cone_from_region(region, net.n_sites, net.n_steps)


def heisenberg(net, cone):
    """The dense oracle U(k)* (factors lo..hi) U(k) of a slice cone."""
    factor = MatrixAlgebra.tensor_factor((2,) * net.n_sites, tuple(range(cone.lo, cone.hi + 1)))
    return HeisenbergAlgebra(net.evolution(cone.step), factor)


# ---------------------------------------------------------------------------
# lattice-geometry dictionary
# ---------------------------------------------------------------------------


def test_slice_cone_charts():
    cone = SliceCone(step=2, lo=1, hi=2)
    (d,) = cone.diamond().cells
    assert (d.u.lo, d.u.hi) == (-0.5, 1.5)
    assert (d.v.lo, d.v.hi) == (2.5, 4.5)
    (h,) = cone.cell_hull().cells
    assert (h.t.lo, h.t.hi) == (1.5, 2.5)
    assert (h.x.lo, h.x.hi) == (0.5, 2.5)


def test_region_round_trip_through_geometry():
    net = build_net(5, "swap", n_steps=3)
    cone = SliceCone(2, 1, 3)
    recovered = cone_of(net, cone.diamond())
    assert (recovered.step, (recovered.lo, recovered.hi)) == (2, (1, 3))
    assert heisenberg(net, recovered).n_basis == 64
    # the package builds step-0 rows only
    with pytest.raises(StructureError, match="step 2"):
        region_algebra(net, cone.diamond())
    row = region_algebra(net, SliceCone(0, 1, 3).diamond())
    assert row.structure.acting == (1, 2, 3)


def test_off_lattice_regions_rejected():
    net = build_net(5, "swap", n_steps=3)
    shifted = geo.double_cone(u=(-0.2, 0.8), v=(0.8, 1.8))
    with pytest.raises(RegionError, match="off-lattice"):
        region_algebra(net, shifted)
    outside = SliceCone(1, 3, 6).diamond()
    with pytest.raises(RegionError, match="outside the chain"):
        region_algebra(net, outside)
    too_late = SliceCone(7, 1, 2).diamond()
    with pytest.raises(RegionError, match="horizon"):
        region_algebra(net, too_late)
    # the geometric errors come before the step-0 refusal
    with pytest.raises(RegionError, match="outside the chain"):
        region_algebra(net, SliceCone(2, 3, 6).diamond())


# ---------------------------------------------------------------------------
# net construction
# ---------------------------------------------------------------------------


def test_net_size_limits(tmp_path, capsys):
    # nets take 4..16 sites; the dense entry points, and the CLI before it
    # builds any state, stop at 10
    with pytest.raises(ValidationError):
        build_net(3, "swap")
    with pytest.raises(ValidationError):
        build_net(17, "swap")
    with pytest.raises(ValidationError):
        build_net(6, "ising")
    net = build_net(11, "swap", n_steps=2)
    with pytest.raises(ValidationError, match="NetModel.evolution"):
        net.evolution(1)
    with pytest.raises(ValidationError, match="region_algebra"):
        region_algebra(net, SliceCone(0, 0, 1))
    with pytest.raises(ValidationError, match="demo_state"):
        demo_state(net)
    # a layer chaining its gates carries one site's operator along the chain
    chain = [[((i, i + 1), toynet.SWAP) for i in range(11)]] * 2
    with pytest.raises(ValidationError, match="check_axioms: an evolved support of 11 sites"):
        check_axioms(NetModel(12, chain), sample_pairs=20, seed=0)
    doc = tmp_path / "eleven.json"
    doc.write_text(
        json.dumps(
            {
                "kind": "toynet",
                "payload": {
                    "n_sites": 11,
                    "state": "product",
                    "d1": {"step": 2, "sites": [0, 1]},
                    "d2": {"step": 2, "sites": [8, 9]},
                },
            }
        )
    )
    assert cli_main(["toynet-demo", "--scenario", str(doc)]) == 2
    assert "payload.n_sites = 11" in capsys.readouterr().err


def test_gate_validation():
    with pytest.raises(NotUnitaryError):
        NetModel(4, [[((0, 1), np.eye(4) * 2.0)]])
    with pytest.raises(ValidationError):
        NetModel(4, [[((0, 0), np.eye(4))]])
    with pytest.raises(ValidationError):
        NetModel(4, [[((0, 1), np.eye(3))]])


def test_brickwork_alternation():
    net = build_net(6, "swap", n_steps=4)
    assert [pair for pair, _ in net.layers[0]] == [(0, 1), (2, 3), (4, 5)]
    assert [pair for pair, _ in net.layers[1]] == [(1, 2), (3, 4)]
    assert [pair for pair, _ in net.layers[2]] == [(0, 1), (2, 3), (4, 5)]


def test_random_net_is_seed_deterministic():
    a = build_net(5, "random", seed=7, n_steps=3)
    b = build_net(5, "random", seed=7, n_steps=3)
    for la_, lb in zip(a.layers, b.layers):
        for (pa, ga), (pb, gb) in zip(la_, lb):
            assert pa == pb
            assert np.array_equal(ga, gb)


def gate_on_sites(gate, n, i, j):
    """2^n matrix of a two-qubit gate whose first factor is qubit i, built as
    P* (gate x I) P with P the permutation that brings qubits i, j first."""
    order = [i, j] + [q for q in range(n) if q not in (i, j)]
    dim = 2**n
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        moved = int("".join(str(bits[q]) for q in order), 2)
        perm[moved, idx] = 1.0
    return perm.T @ np.kron(gate, np.eye(2 ** (n - 2))) @ perm


def test_evolution_matches_an_independent_product():
    rng = np.random.default_rng(9)
    layers = [
        [((0, 1), la.haar_unitary(4, rng)), ((3, 1), la.haar_unitary(4, rng))],
        [((4, 0), la.haar_unitary(4, rng)), ((2, 3), la.haar_unitary(4, rng))],
        [((1, 4), la.haar_unitary(4, rng))],
    ]
    net = NetModel(5, layers)
    expected = np.eye(32, dtype=complex)
    for k, layer in enumerate(layers, start=1):
        for (i, j), gate in layer:
            expected = gate_on_sites(gate, 5, i, j) @ expected
        assert np.max(np.abs(net.evolution(k) - expected)) < 1e-12


def layer_matrix(net, k):
    """2^n matrix of layer k (1-based): its gates multiplied in list order."""
    m = np.eye(net.dim, dtype=complex)
    for (i, j), gate in net.layers[k - 1]:
        m = gate_on_sites(gate, net.n_sites, i, j) @ m
    return m


def test_evolution_composes_and_caches():
    net = build_net(4, "random", seed=1, n_steps=3)
    u2 = net.evolution(2)
    assert np.allclose(u2, layer_matrix(net, 2) @ layer_matrix(net, 1))
    assert net.evolution(2) is u2
    assert np.array_equal(net.evolution(0), np.eye(16))
    with pytest.raises(RegionError):
        net.evolution(5)


# ---------------------------------------------------------------------------
# Heisenberg picture
# ---------------------------------------------------------------------------


def test_swap_net_streams_single_sites():
    # free streaming: a one-site algebra at step 2 is a one-site algebra at
    # step 0, shifted two cells along its light ray
    net = build_net(6, "swap", n_steps=4)
    for site, origin in ((2, 0), (3, 5)):
        alg = heisenberg(net, SliceCone(2, site, site))
        assert alg.n_basis == 4
        homes = [
            s for s in range(6) if alg.contains(embedded_pauli(net, s))
        ]
        assert homes == [origin]


def test_step_zero_algebra_is_plain_factor():
    net = build_net(5, "random", seed=0, n_steps=2)
    alg = region_algebra(net, SliceCone(0, 1, 2))
    expected = MatrixAlgebra.tensor_factor((2,) * 5, (1, 2))
    assert alg.n_basis == expected.n_basis
    assert all(alg.contains(g) for g in expected.generators)


def test_region_algebra_embeds_its_generators_only_when_read(monkeypatch):
    net = build_net(6, "random", seed=3, n_steps=2)
    real = la.embed_factor
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(la, "embed_factor", counting)
    alg = region_algebra(net, SliceCone(0, 1, 3))
    assert calls == []
    eager = [real(x, (2,) * 6, (i,)) for i, x in alg.structure.local_generators()]
    assert all(np.array_equal(g, e) for g, e in zip(alg.generators, eager))
    assert len(alg.generators) == 6 and len(calls) == 6


def test_same_step_cones_commute_for_any_gates():
    # both algebras are conjugated by the same evolution, so spacelike
    # separation at equal step reduces to disjoint base intervals
    net = build_net(6, "random", seed=3, n_steps=3)
    a1 = heisenberg(net, SliceCone(2, 0, 1))
    a2 = heisenberg(net, SliceCone(2, 4, 5))
    worst = max(
        la.comm_residual(g1, g2) for g1 in a1.generators for g2 in a2.generators
    )
    assert worst < 1e-12


def test_primitive_causality_exact():
    net = build_net(5, "random", seed=2, n_steps=3)
    cone = SliceCone(1, 1, 2)
    direct = heisenberg(net, cone)
    completed = heisenberg(net, cone_of(net, geo.causal_completion(cone.diamond())))
    assert len(direct.generators) == len(completed.generators)
    assert all(
        np.array_equal(g1, g2)
        for g1, g2 in zip(direct.generators, completed.generators)
    )


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def test_axioms_hold_on_brickwork_net():
    net = build_net(5, "random", seed=0, n_steps=3)
    report = check_axioms(net, sample_pairs=25, seed=0)
    assert report.ok
    assert report.n_isotony == 25
    assert report.n_causality == 25
    assert report.n_primitive == 25
    assert report.max_spacelike_commutator < 1e-10
    rec = report.to_record()
    assert rec["ok"] is True
    assert rec["isotony_violations"] == []


def test_long_range_gate_breaks_isotony():
    rng = np.random.default_rng(4)
    bad = NetModel(5, [[((0, 2), la.haar_unitary(4, rng))]], label="corrupt")
    inner = heisenberg(bad, SliceCone(1, 0, 0))
    outer = heisenberg(bad, SliceCone(0, 0, 1))
    assert not all(outer.contains(g) for g in inner.generators)
    # the violating configuration is a ~1/60 draw, so sample generously
    report = check_axioms(bad, sample_pairs=300, seed=1)
    assert not report.ok
    assert report.isotony_violations


def dense_axioms(net, sample_pairs, seed):
    """The sampled axiom checks through the dense oracle's generators: the
    same cone draws as check_axioms, each algebra conjugated by the full U(k)."""
    rng = np.random.default_rng(seed)
    n, max_step = net.n_sites, min(net.n_steps, 3)

    def draw():
        k = int(rng.integers(0, max_step + 1))
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, min(n, a + 3)))
        return SliceCone(k, a, min(b, n - 1))

    def gens(cone):
        return heisenberg(net, cone).generators

    counts = [0, 0, 0]  # isotony, causality, primitive
    iso_bad, caus_bad, prim_bad, max_comm = [], [], [], 0.0
    guard = 0
    while min(counts) < sample_pairs and guard < 60 * sample_pairs:
        guard += 1
        c1 = draw()
        if counts[2] < sample_pairs:
            counts[2] += 1
            completed = gens(cone_of(net, geo.causal_completion(c1.diamond())))
            if not all(np.array_equal(g, h) for g, h in zip(gens(c1), completed)):
                prim_bad.append(c1)
        if counts[0] < sample_pairs:
            counts[0] += 1
            if rng.integers(2) == 0 or c1.step == 0:
                outer = SliceCone(c1.step, int(rng.integers(0, c1.lo + 1)), int(rng.integers(c1.hi, n)))
            else:
                outer = SliceCone(c1.step - 1, max(0, c1.lo - 1), min(n - 1, c1.hi + 1))
            big = heisenberg(net, outer)
            if not all(big.contains(g) for g in gens(c1)):
                iso_bad.append((c1, outer))
        if counts[1] < sample_pairs:
            c2 = draw()
            if geo.spacelike_separated(c1.cell_hull(), c2.cell_hull()):
                counts[1] += 1
                worst = max(la.comm_residual(g, h) for g in gens(c1) for h in gens(c2))
                max_comm = max(max_comm, worst)
                if worst > 1e-10:
                    caus_bad.append((c1, c2, worst))
    return counts, iso_bad, caus_bad, prim_bad, max_comm


def planted_net(n, pair, seed):
    rng = np.random.default_rng(seed)
    layers = [list(layer) for layer in build_net(n, "random", seed=seed, n_steps=3).layers]
    layers[0].append((pair, la.haar_unitary(4, rng)))
    return NetModel(n, layers, label="corrupt")


def haar_net(n, pairs, rng, label):
    """A net with a Haar-random gate on each listed site pair, layer by layer."""
    return NetModel(n, [[(p, la.haar_unitary(4, rng)) for p in layer] for layer in pairs], label=label)


def explicit_net():
    """6 sites, off the brickwork on purpose: reversed (3, 1) and (5, 0)
    gates, non-neighbour gates, and in every layer two gates that overlap on
    a site and do not commute, so the order of a layer's gates matters."""
    pairs = [
        [(1, 2), (2, 3), (5, 4)],
        [(3, 1), (4, 5), (5, 0)],
        [(0, 1), (1, 4), (2, 5)],
    ]
    return haar_net(6, pairs, np.random.default_rng(11), label="corrupt")


def assert_matches_dense(report, dense):
    counts, iso_bad, caus_bad, prim_bad, max_comm = dense
    assert [report.n_isotony, report.n_causality, report.n_primitive] == counts
    assert report.isotony_violations == iso_bad
    assert report.primitive_violations == prim_bad == []
    assert [(a, b) for a, b, _ in report.causality_violations] == [(a, b) for a, b, _ in caus_bad]
    for (_, _, w_new), (_, _, w_old) in zip(report.causality_violations, caus_bad):
        assert abs(w_new - w_old) < 1e-12
    assert abs(report.max_spacelike_commutator - max_comm) < 1e-12


@pytest.mark.parametrize(
    "net",
    [build_net(6, "random", seed=6, n_steps=3), planted_net(6, (5, 0), 6), explicit_net()],
    ids=["clean", "planted", "explicit"],
)
def test_relative_evolution_checks_match_the_dense_path(net):
    report = check_axioms(net, sample_pairs=40, seed=3)
    assert_matches_dense(report, dense_axioms(net, 40, seed=3))
    assert report.ok == (net.label != "corrupt")
    if net.label == "corrupt":
        # violations found by evolving forward (k2 < k1) and backward (k2 > k1)
        assert {c1.step < c2.step for c1, c2, _ in report.causality_violations} == {True, False}


@st.composite
def explicit_nets(draw):
    n = draw(st.integers(5, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(st.lists(pair, min_size=1, max_size=3), min_size=1, max_size=3))
    return haar_net(n, pairs, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), label="drawn")


@settings(max_examples=25, deadline=None)
@given(net=explicit_nets(), seed=st.integers(0, 2**16))
def test_local_checks_match_the_dense_path_on_drawn_nets(net, seed):
    assert_matches_dense(check_axioms(net, sample_pairs=8, seed=seed), dense_axioms(net, 8, seed))


def test_check_axioms_forms_no_full_chain_operator(monkeypatch):
    def no_evolution(self, k):
        raise AssertionError("check_axioms built a 2^n evolution")

    monkeypatch.setattr(NetModel, "evolution", no_evolution)
    for net in (build_net(8, "random", seed=0, n_steps=3), planted_net(8, (0, 7), 0)):
        report = check_axioms(net, sample_pairs=30, seed=0)
        assert [report.n_isotony, report.n_causality, report.n_primitive] == [30, 30, 30]
        assert report.ok == (net.label != "corrupt")


@pytest.mark.parametrize("support", [(1, 2), (3, 4, 5), (0, 5)])
def test_relative_image_from_a_support_matches_the_dense_conjugation(support):
    net = explicit_net()
    dims = (2,) * net.n_sites
    x = la.random_density(2 ** len(support), np.random.default_rng(len(support)))
    for k_to, k_from in ((3, 0), (2, 1), (0, 3), (1, 2)):
        w = net.evolution(k_to) @ la.dagger(net.evolution(k_from))
        dense = w @ la.embed_factor(x, dims, support) @ la.dagger(w)
        out_support, m = toynet._relative_image(net, k_to, k_from, support, x)
        assert set(support) <= set(out_support)
        assert np.max(np.abs(la.embed_factor(m, dims, out_support) - dense)) < 1e-12


def test_axioms_on_fourteen_sites():
    start = time.perf_counter()
    report = check_axioms(build_net(14, "random", seed=0, n_steps=3), sample_pairs=100, seed=0)
    assert time.perf_counter() - start < 2.0
    assert report.ok
    assert report.max_spacelike_commutator == 0.0
    planted = check_axioms(planted_net(14, (0, 13), 0), sample_pairs=100, seed=0)
    assert planted.causality_violations
    assert planted.max_spacelike_commutator > 1e-6


def test_three_cell_gate_breaks_causality():
    rng = np.random.default_rng(5)
    bad = NetModel(5, [[((0, 3), la.haar_unitary(4, rng))]], label="corrupt")
    c1, c2 = SliceCone(1, 0, 0), SliceCone(0, 3, 3)
    assert geo.spacelike_separated(c1.cell_hull(), c2.cell_hull())
    a1 = heisenberg(bad, c1)
    a2 = heisenberg(bad, c2)
    worst = max(
        la.comm_residual(g1, g2) for g1 in a1.generators for g2 in a2.generators
    )
    assert worst > 1e-6
    report = check_axioms(bad, sample_pairs=300, seed=2)
    assert not report.ok
    assert report.causality_violations
    assert report.max_spacelike_commutator > 1e-6


# ---------------------------------------------------------------------------
# end-to-end demonstration
# ---------------------------------------------------------------------------


def test_demo_state_is_faithful_mixture():
    net = build_net(5, "swap")
    phi = demo_state(net, seed=0, epsilon=0.05)
    assert phi.faithful
    evals = np.linalg.eigvalsh(phi.mat)
    assert evals.min() >= 0.05 / 32 - 1e-12
    assert abs(np.trace(phi.mat) - 1.0) < 1e-12


def test_epsilon_pure_state_is_accepted_from_its_construction(monkeypatch):
    # no factorization or eigendecomposition: the floor is eps/d less the
    # rounding bound, and the matrix is the one a DensityState would store
    rng = np.random.default_rng(4)
    psi = la.random_pure_state(64, rng)
    mat = 0.95 * np.outer(psi, psi.conj()) + 0.05 * np.eye(64) / 64

    def refuse(*args, **kwargs):
        raise AssertionError("an epsilon-pure state was factorized")

    monkeypatch.setattr(scipy.linalg.lapack, "zpotrf", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    phi = EpsilonPureState(psi, 0.05)
    assert phi.faithful
    monkeypatch.undo()
    ref = DensityState(mat)
    assert np.array_equal(phi.mat, ref.mat) and not phi.mat.flags.writeable
    assert 0.0 < 0.05 / 64 - phi._floor < 1e-14
    assert phi.min_eigenvalue > phi._floor


@pytest.mark.parametrize(
    "scale, epsilon",
    [(1.0, 0.0), (1.0, -0.01), (1.0, 1.5), (1.0, 1e-13), (1.001, 0.05), (np.nan, 0.05)],
    ids=["pure", "negative", "above-one", "below-floor", "not-unit", "not-finite"],
)
def test_epsilon_pure_states_outside_the_bound_are_validated_as_before(scale, epsilon):
    # the same verdict, message and faithfulness as a DensityState of the matrix
    psi = scale * la.random_pure_state(16, np.random.default_rng(2))
    mat = (1.0 - epsilon) * np.outer(psi, psi.conj()) + epsilon * np.eye(16) / 16

    def outcome(build):
        try:
            phi = build()
        except Exception as exc:  # the verdict under test
            return type(exc), str(exc)
        return phi.faithful, phi.mat.tobytes()

    got = outcome(lambda: EpsilonPureState(psi, epsilon))
    assert got == outcome(lambda: DensityState(mat))


def test_demo_pipeline_on_six_sites():
    net = build_net(6, "random", seed=0, n_steps=3)
    phi = demo_state(net, seed=0, epsilon=0.05)
    d1, d2 = SliceCone(2, 0, 1), SliceCone(2, 4, 5)
    demo = weak_rccp_demo(net, phi, d1, d2, budget=10)

    assert demo.pair_correlation > 1e-9
    assert demo.attempts >= 1
    cert = demo.certificate
    assert cert.verified
    assert cert.margin_A > 1e-9 and cert.margin_B > 1e-9
    assert max(cert.residual_screen_C, cert.residual_screen_Cperp) <= 1e-9

    # the cause really lives in the step-0 row algebra under the slab
    row = region_algebra(net, SliceCone(0, *demo.lattice_sites))
    assert row.contains(cert.cause.mat)
    assert demo.lattice_step == 0

    # geometric containments: slab inside the past of the inputs and below
    # them, completion above both
    r1, r2 = d1.diamond(), d2.diamond()
    assert geo.causal_shadow_check(r1, demo.region)
    assert geo.causal_shadow_check(r2, demo.region)
    b1, b2 = geo.blc(r1), geo.blc(r2)
    rng = np.random.default_rng(0)
    for t, x in geo.sample_points(demo.region, 100, rng):
        p = geo.Point(t, x)
        assert b1.contains(p) or b2.contains(p)
        assert not r1.contains(p) and not r2.contains(p)

    rec = demo.to_record()
    assert rec["certificate"]["verified"] is True
    assert rec["d1"] == {"step": 2, "sites": [0, 1]}
    assert "certificate.verified: True" in render_text(rec).splitlines()


def test_demo_evolves_on_light_cone_supports_without_a_dense_evolution(monkeypatch):
    net = build_net(8, "random", seed=0, n_steps=3)
    u2 = net.evolution(2).copy()
    d1, d2 = SliceCone(2, 1, 2), SliceCone(2, 6, 7)

    def no_evolution(self, k):
        raise AssertionError("weak_rccp_demo built a 2^n evolution")

    monkeypatch.setattr(NetModel, "evolution", no_evolution)
    demo = weak_rccp_demo(net, demo_state(net, seed=0), d1, d2)
    assert demo.certificate.verified
    dims = (2,) * net.n_sites
    for p, cone in ((demo.a, d1), (demo.b, d2)):
        sites = tuple(range(cone.lo, cone.hi + 1))
        heis = u2 @ p.mat @ la.dagger(u2)
        p_loc = la.partial_trace(heis, dims, sites) / 2 ** (net.n_sites - len(sites))
        expected = la.dagger(u2) @ la.embed_factor(p_loc, dims, sites) @ u2
        assert np.max(np.abs(p.mat - expected)) < 1e-12


def test_full_row_demo_validates_candidates_on_their_support(monkeypatch):
    # D1 = [1, 2] and D2 = [5, 6] at step 2 snap to the whole step-0 row:
    # find_strong_cc then uses the state, the meet and the synthesized cause
    # as they are, and each candidate is validated on its light-cone support
    # and embedded. Each attempt's meet, whose supports' union is the whole
    # chain, is settled from its factors' defects, so no 2^n Projection is
    # validated; demo_state's state is accepted from its construction, and
    # nothing of size 2^n is eigendecomposed
    net = build_net(8, "random", seed=0)
    full = 2**net.n_sites
    counts = {"eigvalsh": [], "eigh": [], "Projection": [], "DensityState": []}

    def counting(name, original):
        def wrapper(*args):
            mat = args[-1]
            counts[name].append(np.shape(mat)[0])
            return original(*args)

        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for cls in (Projection, DensityState):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    demo = weak_rccp_demo(net, demo_state(net, seed=0), SliceCone(2, 1, 2), SliceCone(2, 5, 6))
    monkeypatch.undo()

    assert demo.lattice_sites == (0, net.n_sites - 1)
    assert demo.certificate.verified and demo.certificate.is_strong
    assert counts["eigvalsh"].count(full) == 0
    assert counts["eigh"].count(full) == 0
    assert counts["DensityState"].count(full) == 0
    assert counts["Projection"].count(full) == 0
    local = [d for d in counts["Projection"] if d < full]
    assert len(local) == 2 * demo.attempts
    # the trusted embedding gives what validating at 2^n would
    for p in (demo.a, demo.b):
        ref = Projection(p.mat)
        assert ref.rank == p.rank
        assert np.array_equal(ref.mat, p.mat)


def test_nine_site_demo_builds_its_cause_without_a_full_eigendecomposition(monkeypatch):
    # net-cause's 9-site op: the cause is synthesized on the full step-0
    # row in closed form from ψ, with no basis of the meet's range and no
    # eigendecomposition larger than k + 1 for a cause of rank k; the state
    # is read through ψ and never built as a matrix (no outer product of
    # 2^9-vectors), the meet is settled from its factors (no Projection
    # validated at 2^9), and nothing of size 2^9 is eigendecomposed; the
    # cause is then checked against dense products formed here, with the
    # state matrix read last
    net = build_net(9, "random", seed=0, n_steps=3)
    full = 2**net.n_sites
    sizes = {"eigh": [], "eigvalsh": [], "outer": [], "Projection": [], "range_basis": []}
    syntheses = []  # the eigendecomposition sizes of each synthesis

    def counting(name, original):
        def wrapper(*args, **kwargs):
            sizes[name].append(np.shape(args[-1])[0])
            return original(*args, **kwargs)

        return wrapper

    def cause(*args, **kwargs):
        start = len(sizes["eigh"]), len(sizes["eigvalsh"])
        out = real_cause(*args, **kwargs)
        syntheses.append(sizes["eigh"][start[0]:] + sizes["eigvalsh"][start[1]:])
        return out

    real_cause = commoncause._Compression.cause
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "outer", counting("outer", np.outer))
    monkeypatch.setattr(Projection, "__init__", counting("Projection", Projection.__init__))
    monkeypatch.setattr(la, "range_basis", counting("range_basis", la.range_basis))
    monkeypatch.setattr(commoncause._Compression, "cause", cause)
    phi = demo_state(net, seed=0)
    demo = weak_rccp_demo(net, phi, SliceCone(2, 1, 2), SliceCone(2, 6, 7))
    monkeypatch.undo()

    assert all(full not in seen for seen in sizes.values())
    assert sizes["eigh"] and sizes["Projection"]  # the counters saw the op
    assert sizes["range_basis"] == []
    assert syntheses
    assert all(d <= demo.certificate.cause.rank + 1 for seen in syntheses for d in seen)
    eps, psi = phi.epsilon, phi.psi
    built = la.hermitize((1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(full) / full)
    assert phi.mat.tobytes() == built.tobytes()
    assert demo.lattice_sites == (0, net.n_sites - 1)
    cert = demo.certificate
    assert cert.verified and cert.is_strong and cert.cause.rank == 1
    rho, a, b, c = phi.mat, demo.a.mat, demo.b.mat, cert.cause.mat

    def weight(x):
        return np.trace(rho @ x).real

    ab = a @ b
    r = (weight(ab) - weight(a) * weight(b)) / (1.0 - weight(a) - weight(b) + weight(ab))
    assert np.linalg.norm(c @ c - c) <= 1e-12
    assert np.linalg.norm(ab @ c - c) <= 1e-10  # C <= AB
    assert np.linalg.norm(c @ a - a @ c) <= 1e-10
    assert np.linalg.norm(c @ b - b @ c) <= 1e-10
    assert weight(c) == pytest.approx(r, abs=1e-10)


def reduction_cases():
    """(net, step, keep): random nets of 6-9 sites and the explicit net, whose
    layers hold overlapping gates, at steps 1-3, with kept sites in and out
    of order."""
    cases = []
    for n, seed in ((6, 0), (7, 1), (8, 2), (9, 3)):
        net = build_net(n, "random", seed=seed, n_steps=3)
        for k, keep in ((1, (0, 1, n - 2, n - 1)), (2, (n - 1, 0, 1)), (3, (3, 1)), (2, (2,))):
            cases.append((net, k, keep))
    net = explicit_net()
    cases += [(net, k, keep) for k in (1, 2, 3) for keep in ((4, 0, 1), (0, 1, 4, 5))]
    return cases


@pytest.mark.parametrize("net, k, keep", reduction_cases())
def test_vector_route_reduces_the_state_as_the_dense_route(net, k, keep):
    phi = demo_state(net, seed=net.n_sites)
    dims, gates = (2,) * net.n_sites, toynet._gate_sequence(net, k, 0)
    vector = phi.reduced(dims, keep, gates)
    dense = DensityState(phi.mat).reduced(dims, keep, gates)
    assert vector.shape == dense.shape == (2 ** len(keep),) * 2
    assert np.max(np.abs(vector - dense)) < 1e-13
    # the dense route against the 2^n evolution, factors in the order of keep
    u = net.evolution(k)
    rho = la.partial_trace(u @ phi.mat @ la.dagger(u), (2,) * net.n_sites, tuple(sorted(keep)))
    order = [sorted(keep).index(s) for s in keep]
    m = len(keep)
    rho = rho.reshape((2,) * 2 * m).transpose(order + [p + m for p in order]).reshape(vector.shape)
    assert np.max(np.abs(dense - rho)) < 1e-13


# net-cause's region pairs and their mirror images (D1 right of D2), on
# the full row and on a row short of the chain
DEMO_CASES = [
    (6, (2, 0, 1), (2, 4, 4)),
    (7, (2, 0, 1), (2, 4, 5)),
    (7, (3, 5, 6), (3, 0, 1)),
    (8, (2, 4, 4), (2, 0, 1)),
    (8, (3, 2, 3), (3, 0, 1)),
    (9, (2, 6, 7), (2, 1, 2)),
]


@pytest.mark.parametrize("n, d1, d2", DEMO_CASES)
def test_vector_route_demo_matches_the_dense_route(n, d1, d2):
    net = build_net(n, "random", seed=0, n_steps=3)
    phi = demo_state(net, seed=0)
    demos = [
        weak_rccp_demo(net, state, SliceCone(*d1), SliceCone(*d2))
        for state in (phi, DensityState(phi.mat))
    ]
    vector, dense = demos
    assert vector.lattice_sites == dense.lattice_sites
    assert vector.attempts == dense.attempts
    assert (vector.a.rank, vector.b.rank) == (dense.a.rank, dense.b.rank)
    assert vector.certificate.cause.rank == dense.certificate.cause.rank
    assert abs(vector.pair_correlation - dense.pair_correlation) < 1e-12
    for field in ("residual_screen_C", "residual_screen_Cperp", "margin_A", "margin_B", "correlation"):
        assert abs(getattr(vector.certificate, field) - getattr(dense.certificate, field)) < 1e-12
    for demo in demos:
        assert demo.certificate.verified and demo.certificate.is_strong
        # the sweep's correlation is the certified pair's
        assert abs(demo.pair_correlation - demo.certificate.correlation) < 1e-12


@pytest.mark.parametrize("route", ["vector", "dense"])
def test_regions_in_either_order_give_the_certified_correlation(route):
    # D1 to the right of D2: the reduced state's factors must follow
    # sites1 + sites2, or the sweep splits it at the wrong place
    net = build_net(8, "random", seed=0)
    phi = demo_state(net, seed=0)
    state = phi if route == "vector" else DensityState(phi.mat)
    right, left = SliceCone(2, 4, 4), SliceCone(2, 0, 1)
    swapped = weak_rccp_demo(net, state, right, left)
    ordered = weak_rccp_demo(net, state, left, right)
    for demo in (swapped, ordered):
        assert abs(demo.pair_correlation - demo.certificate.correlation) < 1e-12
    assert abs(swapped.pair_correlation - ordered.pair_correlation) < 1e-12
    assert (swapped.a.rank, swapped.b.rank) == (ordered.b.rank, ordered.a.rank)


def test_epsilon_pure_demo_evolves_no_full_chain_matrix(monkeypatch):
    # demo_state keeps psi and eps: the step-k state is evolved as a vector,
    # so the state's evolution never hands apply_factor a 2^n x 2^n matrix;
    # a plain DensityState with the same matrix is still evolved as one.
    # Only calls made while the state is reduced are counted: products by an
    # embedded candidate or meet go through apply_factor on 2^n matrices
    net = build_net(8, "random", seed=0)
    full = (2**net.n_sites,) * 2
    phi = demo_state(net, seed=0)
    shapes, reducing = [], []
    original = la.apply_factor

    def counting(x_loc, m, dims, acting):
        if reducing:
            shapes.append(np.shape(m))
        return original(x_loc, m, dims, acting)

    def watched(real_reduced):
        def watched_reduced(*args):
            reducing.append(True)
            try:
                return real_reduced(*args)
            finally:
                reducing.clear()
        return watched_reduced

    monkeypatch.setattr(la, "apply_factor", counting)
    for cls in (DensityState, EpsilonPureState):
        monkeypatch.setattr(cls, "reduced", watched(cls.reduced))
    demo = weak_rccp_demo(net, phi, SliceCone(2, 1, 2), SliceCone(2, 5, 6))
    assert demo.certificate.verified
    assert (2**net.n_sites, 1) in shapes
    assert full not in shapes
    shapes.clear()
    weak_rccp_demo(net, DensityState(phi.mat), SliceCone(2, 1, 2), SliceCone(2, 5, 6))
    assert full in shapes


def test_full_row_demo_evaluates_each_weight_once(monkeypatch):
    # on the full row, find_strong_cc evaluates phi(A), phi(B) and phi(A^B)
    # and the synthesis phi(C); the synthesis and the verification reuse
    # them, so no operand is evaluated twice in the 2^n state
    from ccbench import commoncause

    net = build_net(8, "random", seed=0)
    phi = demo_state(net, seed=0)
    real_eval = commoncause.state_eval
    operands = []

    def counted_eval(state, x):
        if state is phi:
            operands.append(x)  # kept alive, so identities stay distinct
        return real_eval(state, x)

    monkeypatch.setattr(commoncause, "state_eval", counted_eval)
    demo = weak_rccp_demo(net, phi, SliceCone(2, 1, 2), SliceCone(2, 5, 6))
    monkeypatch.undo()
    assert demo.lattice_sites == (0, net.n_sites - 1)
    cause = demo.certificate.cause
    assert sum(x is cause for x in operands) == 1
    assert sum(x is demo.a for x in operands) == sum(x is demo.b for x in operands) == 1
    assert all(sum(x is y for y in operands) == 1 for x in operands)
    assert len(operands) == 3 * demo.attempts + 1


def evolved_candidate(net, k, sites, p_loc):
    """A step-k projection on ``sites`` evolved to step 0 on its light-cone
    support and embedded, as weak_rccp_demo embeds its candidates."""
    support, m = toynet._relative_image(net, 0, k, sites, p_loc)
    return Projection(m).embedded((2,) * net.n_sites, support)


# (step, D1 sites, D2 sites) whose step-0 supports are disjoint, overlap, or
# nest: B's sites at step 1 hold A's, and B's projection commutes with A's
MEET_CASES = {
    "disjoint": (1, (0, 1), (5, 6)),
    "overlapping": (2, (2,), (4,)),
    "nested": (1, (2, 3), (1, 2, 3, 4)),
}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(MEET_CASES)), seed=st.integers(0, 2**16))
def test_meet_on_the_union_of_supports_matches_the_dense_meet(kind, seed):
    rng = np.random.default_rng(seed)
    net = build_net(8, "random", seed=seed, n_steps=3)
    k, s1, s2 = MEET_CASES[kind]
    u = la.haar_unitary(2 ** len(s1), rng)

    def spectral(mask):
        return (u * mask) @ la.dagger(u)

    half = 2 ** len(s1) // 2
    p1 = spectral(rng.permutation([1.0] * half + [0.0] * half))
    if kind == "nested":
        inner = spectral(rng.permutation([1.0] * half + [0.0] * half))
        outer = la.haar_projection(4, int(rng.integers(1, 4)), rng)
        p2 = la.embed_factor(inner, (2,) * 4, (1, 2)) @ la.embed_factor(outer, (2,) * 4, (0, 3))
    else:
        p2 = la.haar_projection(2 ** len(s2), int(rng.integers(1, 2 ** len(s2))), rng)
    a, b = evolved_candidate(net, k, s1, p1), evolved_candidate(net, k, s2, p2)
    sa, sb = set(a.sites), set(b.sites)
    shapes = {"disjoint": not sa & sb, "overlapping": bool(sa & sb) and not sa <= sb, "nested": sa < sb}
    assert shapes[kind]
    support = tuple(sorted(sa | sb))
    assert len(support) < net.n_sites

    meet = commuting_meet(a, b)
    ref = Projection(la.hermitize(a.mat @ b.mat))
    assert meet.rank == ref.rank
    assert np.max(np.abs(meet.mat - ref.mat)) <= 1e-12
    assert meet.factor[0][1] == (2,) * net.n_sites and meet.sites == support
    dims = (2,) * net.n_sites
    pair = PairProduct(a.within(dims, support), b.within(dims, support))
    scaled = pair.commutator_norm * np.sqrt(2.0 ** (net.n_sites - len(support)))
    dense = la.comm_residual(a.mat, b.mat)
    assert abs(scaled - dense) <= 1e-12 * max(1.0, dense)


def test_noncommuting_factor_projections_on_overlapping_supports_are_refused():
    # random projections on sites (2, 3) and (3, 4) of an 8-site chain: the
    # check on their 3-site union refuses them with the full-space residual
    rng = np.random.default_rng(11)
    dims = (2,) * 8
    a = Projection(la.haar_projection(4, 2, rng)).embedded(dims, (2, 3))
    b = Projection(la.haar_projection(4, 2, rng)).embedded(dims, (3, 4))
    message = re.escape(f"A and B do not commute (residual {la.comm_residual(a.mat, b.mat):.3g})")
    with pytest.raises(CommutationError, match=message):
        commuting_meet(a, b)
    phi = DensityState(la.random_faithful_density(256, rng))
    with pytest.raises(CommutationError, match=message):
        commoncause.find_strong_cc(phi, a, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_row_short_of_a_candidate_support_is_still_refused(seed):
    # step 2 [2, 3] against [6, 7]: the snapped row drops a site of D1's
    # light cone, so A's support is not in the row and contains says no
    net = build_net(8, "random", seed=seed)
    with pytest.raises(InfeasibleError, match="projection A is not in the given algebra"):
        weak_rccp_demo(net, demo_state(net, seed=0), SliceCone(2, 2, 3), SliceCone(2, 6, 7))


def test_candidate_supports_inside_the_row_settle_membership(monkeypatch):
    # step 2 [0, 1] against [4, 4]: both supports lie in the step-0 row, so
    # no numeric membership test runs and the meet reaches the row from S
    net = build_net(8, "random", seed=0, n_steps=3)

    def refuse(self, m, tol=None):
        raise AssertionError("membership was tested numerically")

    monkeypatch.setattr(MatrixAlgebra, "contains", refuse)
    demo = weak_rccp_demo(net, demo_state(net, seed=0), SliceCone(2, 0, 1), SliceCone(2, 4, 4))
    monkeypatch.undo()
    assert demo.certificate.verified and demo.certificate.is_strong
    lo, hi = demo.lattice_sites
    assert hi - lo + 1 < net.n_sites
    support = set(demo.a.sites) | set(demo.b.sites)
    assert support <= set(range(lo, hi + 1))
    row = region_algebra(net, SliceCone(0, lo, hi))
    assert row.contains(demo.certificate.cause.mat)


@pytest.mark.parametrize("n, d1, d2", [(9, (2, 1, 2), (2, 6, 7)), (8, (2, 1, 2), (2, 5, 6))])
def test_demo_on_disjoint_supports_forms_no_full_space_matrix(monkeypatch, n, d1, d2):
    # the candidates' light cones are disjoint and cover the chain: the meet
    # is kept as P_A ⊗ P_B, and no embedding, span projection or hermitize
    # reaches dimension 2^n; read afterwards, A, B and C are a verified
    # strong cause under the dense product AB
    net = build_net(n, "random", seed=n, n_steps=3)
    state = demo_state(net, seed=1)
    for name in ("embed_factor", "span_project", "hermitize"):

        def refusing(*args, _make=getattr(la, name), _name=name):
            out = _make(*args)
            assert 2**n not in out.shape, f"la.{_name} formed a {out.shape} matrix"
            return out

        monkeypatch.setattr(la, name, refusing)
    demo = weak_rccp_demo(net, state, SliceCone(*d1), SliceCone(*d2))
    monkeypatch.undo()
    assert not set(demo.a.sites) & set(demo.b.sites)
    assert set(demo.a.sites) | set(demo.b.sites) == set(range(n))
    a, b, c = demo.a.mat, demo.b.mat, demo.certificate.cause.mat
    ab = a @ b
    assert la.frob(ab - la.dagger(ab)) <= 1e-12
    meet = Projection(la.hermitize(ab))
    assert la.frob(meet.mat @ c - c) <= 1e-10
    dense = commoncause.quantum_verify_cc(DensityState(state.mat), Projection(a), Projection(b), Projection(c))
    assert dense.verified and dense.is_strong
    got = demo.certificate
    for field in ("residual_screen_C", "residual_screen_Cperp", "margin_A", "margin_B", "correlation"):
        assert abs(getattr(dense, field) - getattr(got, field)) <= 1e-10


def test_demo_refuses_nets_above_the_dense_limit():
    # the refusal comes before the state is read, so a stand-in state will do
    class Faithful:
        faithful = True

        def require_faithful(self):
            pass

    net = build_net(11, "random", seed=0, n_steps=3)
    with pytest.raises(ValidationError, match="weak_rccp_demo: 11 sites exceed"):
        weak_rccp_demo(net, Faithful(), SliceCone(2, 1, 2), SliceCone(2, 6, 7))


def test_demo_rejects_bad_setups():
    net = build_net(6, "random", seed=0, n_steps=3)
    phi = demo_state(net, seed=0, epsilon=0.05)
    with pytest.raises(RegionError, match="spacelike"):
        weak_rccp_demo(net, phi, SliceCone(2, 0, 2), SliceCone(2, 2, 3))
    with pytest.raises(RegionError, match="same slice"):
        weak_rccp_demo(net, phi, SliceCone(1, 0, 1), SliceCone(2, 4, 5))
    pure = demo_state(net, seed=0, epsilon=0.0)
    with pytest.raises(NotFaithfulError):
        weak_rccp_demo(net, pure, SliceCone(2, 0, 1), SliceCone(2, 4, 5))


def product_state(n_sites, seed):
    rng = np.random.default_rng(seed)
    rho = la.random_density(2, rng)
    for _ in range(n_sites - 1):
        rho = np.kron(rho, la.random_density(2, rng))
    return DensityState(rho)


def test_demo_product_state_is_an_honest_negative():
    # step-2 regions whose common-cause slab exists, so the product-state
    # sweep, not the geometry, decides the outcome; swap gates only permute
    # the sites, so the evolved state is still a product state
    net = build_net(6, "swap", n_steps=3)
    with pytest.raises(InfeasibleError, match="product"):
        weak_rccp_demo(
            net, product_state(6, 8), SliceCone(2, 0, 1), SliceCone(2, 4, 5)
        )


@pytest.mark.parametrize(
    "n_sites, d1, d2, product",
    [
        (10, SliceCone(2, 1, 2), SliceCone(2, 8, 9), False),
        # step-0 regions have no slab below them: a product state there is a
        # geometric RegionError, decided before the product-state sweep
        (6, SliceCone(0, 0, 1), SliceCone(0, 4, 5), True),
    ],
    ids=["far-apart", "step0-product"],
)
def test_demo_checks_geometry_before_evolution(monkeypatch, n_sites, d1, d2, product):
    net = build_net(n_sites, "random", seed=0, n_steps=3)
    phi = product_state(n_sites, 8) if product else demo_state(net, seed=0)

    def no_evolution(self, k):
        raise AssertionError("2^n evolution built before the geometry check")

    monkeypatch.setattr(NetModel, "evolution", no_evolution)
    with pytest.raises(RegionError, match="slab top"):
        weak_rccp_demo(net, phi, d1, d2)


@pytest.mark.parametrize(
    "d1, d2, message",
    [
        # beyond the built horizon: an IndexError deep in the evolution
        (SliceCone(5, 0, 1), SliceCone(5, 4, 5), r"step 5 outside the built horizon 3"),
        # past the chain's end: a RegionError about the slab top
        (SliceCone(2, 0, 1), SliceCone(2, 4, 9), r"sites \[4, 9\] outside the chain"),
        (SliceCone(2, 0, 1).diamond(), SliceCone(2, 4, 5), "takes SliceCones, got Region"),
    ],
    ids=["step", "sites", "region"],
)
def test_demo_refuses_a_cone_outside_the_net(d1, d2, message):
    net = build_net(6, "random", seed=0, n_steps=3)
    with pytest.raises(RegionError, match=message):
        weak_rccp_demo(net, demo_state(net, seed=0), d1, d2)
