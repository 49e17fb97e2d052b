"""Run the bundled scenarios with each capped payload field at its cap.

Usage, from the root of a source tree:

    python3 tools/cap_check.py

Each cap the CLI puts on a payload field is tried on the bundled scenarios
of its command, the field at its cap and the rest as bundled:

- ``count`` (``cli.MAX_COUNT``) of find-cc, on every quantum scenario;
- ``restarts`` (``cli.MAX_RESTARTS``) of bell, on every bell scenario;
- bell on the split ``SPLIT`` under ``bell.MAX_SPLIT_DIM`` with
  ``restarts`` at its cap too, once on a random pure state on which nearly
  every see-saw restart runs all ``bell.MAX_ITERATIONS`` rounds, and once
  on a product state, for which the correlated-pair sweep runs to its end;
- sample-bell with ``n`` (``cli.MAX_SAMPLES``) and ``restarts`` both at
  their caps on the bundled 2 x 2 split, and on ``SPLIT`` in the ``pure``
  ensemble, whose see-saws run longest, with ``restarts`` at its cap and
  ``n`` × ``restarts`` at ``cli.MAX_SEESAWS``;
- toynet-demo with ``budget`` and, in a second run, ``axiom_pairs``
  (``cli.MAX_AXIOM_PAIRS``) at the cap;
- the 10-site toynet-demo with both regions at step ``cli.MAX_STEPS``
  (sites [0, 1] and [8, 9], no axiom samples), once in each state kind;
- classical-audit at ``commoncause.AUDIT_CAP`` atoms and classical find-cc
  at ``commoncause.FIND_CC_CAP``, on the bundled four-block pair refined
  to that many atoms (``refined``).

The variants are written to a temporary directory and run once each, one
at a time, through ``record_sweep.record``: BLAS at one thread, killed at
the sweep's 30 s cap. The script prints each run's exit code and wall
time, then a count of runs by exit code, and exits non-zero if any run
timed out or exited 4 (the CLI's code for an internal error).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record_sweep import CAP_S, crashed, record, tally, tree_env  # noqa: E402

# the slowest split measured under bell.MAX_SPLIT_DIM = 25, with the pure
# state that seed 3 draws (9,005 see-saw rounds in 20 restarts)
SPLIT, PURE_SEED = (4, 6), 3
QUANTUM = ("planted_genuine_dim16", "rank_one_meet", "strong_cause_dim9", "three_causes_dim9")
BELL = ("bell_product_state", "bell_singlet", "bell_werner_mixture")


def refined(payload: dict, n: int) -> dict:
    """The classical payload with atoms split in halves, in turn from atom 0,
    until it has n atoms; each event holds the parts of its atoms."""
    weights = list(payload["weights"])
    parts = [[a] for a in range(len(weights))]
    while len(weights) < n:
        first = parts[(len(weights) - len(parts)) % len(parts)]
        weights[first[0]] /= 2.0
        first.append(len(weights))
        weights.append(weights[first[0]])
    events = {name: sorted(x for a in atoms for x in parts[a])
              for name, atoms in payload["events"].items()}
    return {"weights": weights, "events": events}


def variants() -> list[tuple[str, str, str, dict]]:
    """(name, command, bundled scenario, payload fields set) of each run."""
    from ccbench import bell, cli, commoncause
    from ccbench.record import complex_matrix_record

    dim = SPLIT[0] * SPLIT[1]
    assert dim <= bell.MAX_SPLIT_DIM
    rng = np.random.default_rng(PURE_SEED)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    sides = [np.diag(rng.uniform(0.5, 1.5, d)) for d in SPLIT]
    product = np.kron(*(s / np.trace(s) for s in sides))
    restarts = {"restarts": cli.MAX_RESTARTS}
    on_split = {"split": list(SPLIT), **restarts}
    runs = [(f"{s}.count", "find-cc", s, {"count": cli.MAX_COUNT}) for s in QUANTUM]
    runs += [(f"{s}.restarts", "bell", s, restarts) for s in BELL]
    runs += [
        ("split.pure", "bell", "bell_singlet",
         {**on_split, "state": complex_matrix_record(np.outer(psi, psi.conj()))}),
        ("split.product", "bell", "bell_singlet", {**on_split, "state": complex_matrix_record(product)}),
        ("product_ensemble.n", "sample-bell", "product_ensemble", {"n": cli.MAX_SAMPLES, **restarts}),
        ("product_ensemble.split", "sample-bell", "product_ensemble",
         {**on_split, "ensemble": "pure", "n": cli.MAX_SEESAWS // cli.MAX_RESTARTS}),
        ("eight_qubit_chain.budget", "toynet-demo", "eight_qubit_chain", {"budget": cli.MAX_BUDGET}),
        ("eight_qubit_chain.axiom_pairs", "toynet-demo", "eight_qubit_chain",
         {"axiom_pairs": cli.MAX_AXIOM_PAIRS}),
    ]
    k = cli.MAX_STEPS
    deep = {"n_sites": 10, "n_steps": k, "axiom_pairs": 0,
            "d1": {"step": k, "sites": [0, 1]}, "d2": {"step": k, "sites": [8, 9]}}
    runs += [(f"steps.{kind}", "toynet-demo", "eight_qubit_chain", {**deep, "state": kind})
             for kind in ("entangled", "product")]
    classical = json.loads((Path("scenarios") / "four_block_classical_pair.json").read_text())
    runs += [
        (f"four_block_classical_pair.{name}", command, "four_block_classical_pair",
         refined(classical["payload"], cap))
        for name, command, cap in (("audit", "classical-audit", commoncause.AUDIT_CAP),
                                   ("find", "find-cc", commoncause.FIND_CC_CAP))
    ]
    return runs


def main() -> int:
    env = tree_env()
    runs = variants()
    bundled = Path("scenarios").resolve()
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "scenarios").mkdir()
        os.chdir(tmp)  # record reads scenarios/<name>.json
        for name, command, stem, fields in runs:
            doc = json.loads((bundled / f"{stem}.json").read_text())
            doc["payload"].update(fields)
            Path("scenarios", f"{name}.json").write_text(json.dumps(doc))
            _, _, code, seconds = record(command, name, env)
            codes.append(code)
            print(f"{name} {command}: {code} in {seconds:.2f} s", flush=True)
        os.chdir(bundled.parent)
    print(tally(codes))
    if "timeout" in codes or crashed(codes):
        print(f"cap check: a run reached the {CAP_S} s cap or crashed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
