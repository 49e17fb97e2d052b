"""The whole story on a brickwork circuit net.

A six-site chain of Haar-random two-site gates carries a net of local
algebras (Heisenberg picture). After checking the net's axioms by
sampling, we pick two spacelike regions at step 2, find a correlated
projection pair across them, and synthesize a strong common cause that
lives in the slab below both regions. Run:

    python3 demos/circuit_net_demo.py  (takes a few seconds)
"""

from ccbench import toynet
from ccbench.record import render_text

net = toynet.build_net(6, "random", seed=0, n_steps=3)
print(net)

report = toynet.check_axioms(net, sample_pairs=30, seed=0)
print(
    f"axioms on {report.n_isotony}+{report.n_causality}+{report.n_primitive} "
    f"sampled pairs: ok = {report.ok} "
    f"(max spacelike commutator {report.max_spacelike_commutator:.2e})"
)

phi = toynet.demo_state(net, seed=0, epsilon=0.05)
d1 = toynet.SliceCone(step=2, lo=0, hi=1)
d2 = toynet.SliceCone(step=2, lo=4, hi=5)
demo = toynet.weak_rccp_demo(net, phi, d1, d2, budget=10)
print()
print(render_text(demo.to_record()), end="")

# the certificate's cause is an element of the step-0 row algebra under
# the slab, which is how "localized in the common past" is made literal
row = toynet.region_algebra(net, toynet.SliceCone(0, *demo.lattice_sites))
print()
print("cause contained in the slab row's algebra:", row.contains(demo.certificate.cause.mat))
