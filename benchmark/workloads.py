"""The benchmark's four workloads: inputs, the timed op, and its check.

A workload builds a pool of rounds from the seed. A round is a fixed list of
op inputs whose make-up is the same in every round, so a run of whole rounds
always has the same mix. Each op calls the public function that the matching
CLI command dispatches to, through its module attribute (so a traced run sees
it), and returns what the check needs. Checks go to ``oracles``, which never
calls the function under test.

``scale="tiny"`` gives the same workloads on the smallest inputs that still
exercise every check, for the self-tests.
"""

from __future__ import annotations

import numpy as np

from ccbench import _linalg as la
from ccbench import bell, commoncause, config, qprob, toynet

import oracles

N_STEPS = 3  # the built horizon of every net; cones reach step 3


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


class NetAxioms:
    """check_axioms on random brickwork nets; one in four has a long-range gate.

    The run's seed draws the gates, the planted gate and the checker's probe
    pairs. The seed of check_axioms' own cone draw is fixed by the op's place
    in the round instead, so every round checks the same cone pairs: the cost
    of a check depends on which cones it draws (a step-0 cone needs no
    conjugation, a wider cone more commutators), and with seeded draws the
    median op of a run moved by 20% between seeds.
    The planted gate joins the two end sites in layer 1; a sampled check sees
    it only through a spacelike pair whose supports it links, and whether the
    draw holds such a pair depends on the draw alone, so planted ops use one
    draw that holds one.
    """

    name = "net-axioms"

    def __init__(self, scale: str):
        tiny = scale == "tiny"
        self.n_sites = 6 if tiny else 8
        self.sample_pairs = 3 if tiny else 4
        self.planted_check_seed = 2 if tiny else 0
        self.make_up = ("clean",) if tiny else ("clean", "clean", "clean")
        self.make_up += ("planted",)

    def rounds(self, seed: int, n_rounds: int) -> list[list[dict]]:
        out = []
        for r in range(n_rounds):
            rnd = []
            for j, kind in enumerate(self.make_up):
                rng = _rng(seed, r, j)
                inp = {"kind": kind, "net_seed": _seed(rng)}
                if kind == "clean":
                    inp["check_seed"] = j + 1
                    inp["probes"] = self._probe_pairs(rng)
                else:
                    base = toynet.build_net(self.n_sites, "random", seed=inp["net_seed"], n_steps=N_STEPS)
                    layers = [list(layer) for layer in base.layers]
                    layers[0].append(((0, self.n_sites - 1), la.haar_unitary(4, rng)))
                    inp["layers"] = layers
                    inp["check_seed"] = self.planted_check_seed
                rnd.append(inp)
            out.append(rnd)
        return out

    def _probe_pairs(self, rng) -> list:
        """Two spacelike cone pairs for the checker: steps 0 and k > 0, then two k > 0."""
        pairs = []
        for first_step in (0, None):
            while True:
                k1 = first_step if first_step is not None else int(rng.integers(1, N_STEPS + 1))
                k2 = int(rng.integers(1, N_STEPS + 1))
                c = []
                for k in (k1, k2):
                    lo = int(rng.integers(0, self.n_sites))
                    c.append((k, lo, min(self.n_sites - 1, lo + int(rng.integers(0, 2)))))
                if oracles.cells_spacelike(*c):
                    pairs.append(tuple(c))
                    break
        return pairs

    def run(self, inp):
        if inp["kind"] == "clean":
            net = toynet.build_net(self.n_sites, "random", seed=inp["net_seed"], n_steps=N_STEPS)
        else:
            net = toynet.build_net(self.n_sites, inp["layers"], seed=inp["net_seed"])
        return net, toynet.check_axioms(net, sample_pairs=self.sample_pairs, seed=inp["check_seed"])

    @staticmethod
    def report(rep) -> dict:
        def cone(c):
            return (c.step, c.lo, c.hi)

        return {
            "ok": rep.ok,
            "n_isotony": rep.n_isotony,
            "n_causality": rep.n_causality,
            "n_primitive": rep.n_primitive,
            "causality_violations": [(cone(a), cone(b), w) for a, b, w in rep.causality_violations],
            "max_spacelike_commutator": rep.max_spacelike_commutator,
        }

    def check(self, inp, out) -> None:
        net, rep = out
        u = oracles.evolutions(net.layers, self.n_sites, N_STEPS)
        if inp["kind"] == "clean":
            oracles.check_axioms_clean(self.report(rep), self.sample_pairs, u, self.n_sites, inp["probes"])
        else:
            oracles.check_axioms_planted(self.report(rep), u, self.n_sites)

    @staticmethod
    def tally(out) -> dict:
        return {"n_causality": out[1].n_causality}


class NetCause:
    """weak_rccp_demo, no axiom checks: five 8-site ops and one 9-site op a round.

    Every region pair below gave a verified cause on twelve seeds; pairs at
    other positions on the same chains end in InfeasibleError on every seed.
    """

    name = "net-cause"
    EPSILON = 0.05
    BUDGET = 10
    FULL = (
        (8, (2, 0, 1), (2, 4, 4)),
        (8, (2, 1, 2), (2, 5, 6)),
        (8, (2, 3, 4), (2, 6, 7)),
        (8, (3, 0, 1), (3, 2, 3)),
        (8, (3, 1, 1), (3, 4, 5)),
        (9, (2, 1, 2), (2, 6, 7)),
    )
    TINY = ((6, (2, 0, 1), (2, 4, 4)),)

    def __init__(self, scale: str):
        self.make_up = self.TINY if scale == "tiny" else self.FULL

    def rounds(self, seed: int, n_rounds: int) -> list[list[dict]]:
        out = []
        for r in range(n_rounds):
            rnd = []
            for j, (n, d1, d2) in enumerate(self.make_up):
                rng = _rng(seed, r, j)
                rnd.append({"n": n, "d1": d1, "d2": d2, "net_seed": _seed(rng), "state_seed": _seed(rng)})
            out.append(rnd)
        return out

    def run(self, inp):
        net = toynet.build_net(inp["n"], "random", seed=inp["net_seed"], n_steps=N_STEPS)
        state = toynet.demo_state(net, seed=inp["state_seed"], epsilon=self.EPSILON)
        demo = toynet.weak_rccp_demo(
            net, state, toynet.SliceCone(*inp["d1"]), toynet.SliceCone(*inp["d2"]), budget=self.BUDGET
        )
        return net, state, demo

    def check(self, inp, out) -> None:
        net, state, demo = out
        n = inp["n"]
        oracles.require(len(demo.region.cells) == 1, "the common-cause region is not one slab")
        cell = demo.region.cells[0]
        u = oracles.evolutions(net.layers, n, N_STEPS)
        oracles.check_cause(
            state.mat, u, n, inp["d1"], inp["d2"],
            demo.a.mat, demo.b.mat, demo.certificate.cause.mat,
            demo.lattice_step, demo.lattice_sites,
            (cell.t.lo, cell.t.hi), (cell.x.lo, cell.x.hi),
        )

    @staticmethod
    def tally(out) -> dict:
        return {"attempts": out[2].attempts}


class BellSeesaw:
    """bell_correlation with 6 restarts on two-qubit states, some embedded in 3x3.

    A round of twenty: seven pure and seven mixed two-qubit states
    alternating, two product states, and four states (two pure, two mixed)
    carried into a 3x3 split by random isometries C^2 -> C^3 on each side.
    """

    name = "bell-seesaw"
    RESTARTS = 6
    FULL = ("pure", "mixed") * 7 + ("product",) * 2 + ("pure3", "mixed3") * 2
    TINY = ("pure", "mixed", "product", "pure3")

    def __init__(self, scale: str):
        self.make_up = self.TINY if scale == "tiny" else self.FULL
        self.splits = {
            d: (qprob.MatrixAlgebra.tensor_factor((d, d), (0,)), qprob.MatrixAlgebra.tensor_factor((d, d), (1,)))
            for d in (2, 3)
        }

    def rounds(self, seed: int, n_rounds: int) -> list[list[dict]]:
        out = []
        for r in range(n_rounds):
            rnd = []
            for j, kind in enumerate(self.make_up):
                rng = _rng(seed, r, j)
                if kind.startswith("pure"):
                    psi = la.random_pure_state(4, rng)
                    rho2 = np.outer(psi, psi.conj())
                elif kind.startswith("mixed"):
                    rho2 = la.random_density(4, rng)
                else:
                    rho2 = np.kron(la.random_density(2, rng), la.random_density(2, rng))
                d = 3 if kind.endswith("3") else 2
                rho = rho2
                if d == 3:
                    v = np.kron(la.haar_unitary(3, rng)[:, :2], la.haar_unitary(3, rng)[:, :2])
                    rho = v @ rho2 @ v.conj().T
                rnd.append({
                    "rho2": rho2, "product": kind == "product", "split": d,
                    "phi": qprob.DensityState(rho), "seed": _seed(rng),
                })
            out.append(rnd)
        return out

    def run(self, inp):
        n1, n2 = self.splits[inp["split"]]
        return bell.bell_correlation(inp["phi"], n1, n2, restarts=self.RESTARTS, seed=inp["seed"]).beta

    def check(self, inp, beta) -> None:
        oracles.check_bell(beta, inp["rho2"], inp["product"])

    @staticmethod
    def tally(out) -> dict:
        return {}


class ClassicalAudit:
    """classical_closedness_audit on 5- and 6-atom spaces.

    A round: six 5-atom spaces and two 6-atom spaces, half with Dirichlet
    weights and half with weights drawn from {1, 2, 3} and normalized, so
    that many events tie.
    """

    name = "classical-audit"
    FULL = ((5, "dirichlet"), (5, "tied")) * 3 + ((6, "dirichlet"), (6, "tied"))
    TINY = ((4, "dirichlet"), (4, "tied"))

    def __init__(self, scale: str):
        self.make_up = self.TINY if scale == "tiny" else self.FULL
        oracles.require(config.TOL.cc == oracles.CC_TOL, "the documented cc tolerance changed")

    def rounds(self, seed: int, n_rounds: int) -> list[list[dict]]:
        out = []
        for r in range(n_rounds):
            rnd = []
            for j, (n, kind) in enumerate(self.make_up):
                rng = _rng(seed, r, j)
                if kind == "dirichlet":
                    w = rng.dirichlet(np.ones(n))
                else:
                    w = rng.integers(1, 4, size=n).astype(float)
                w = w / w.sum()
                rnd.append({"weights": w, "space": commoncause.ClassicalSpace(w)})
            out.append(rnd)
        return out

    def run(self, inp):
        return commoncause.classical_closedness_audit(inp["space"])

    def check(self, inp, rep) -> None:
        oracles.check_audit(inp["weights"], rep.n_correlated_pairs, rep.n_covered, rep.uncovered, rep.closed)

    @staticmethod
    def tally(out) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (NetAxioms, NetCause, BellSeesaw, ClassicalAudit)}
