"""Self-tests of the benchmark: tiny workloads, planted wrong answers, tracing.

    python3 -m pytest benchmark/tests -q

Each workload runs at its tiny scale and passes its checks; each checker is
then fed a planted wrong answer and must reject it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ccbench import commoncause, qprob, toynet  # noqa: E402


def tiny(name: str):
    wl = workloads.WORKLOADS[name]("tiny")
    return wl, wl.rounds(0, 1)[0]


def run_script(*args: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "benchmark" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    wl, rnd = tiny(name)
    for inp in rnd:
        wl.check(inp, wl.run(inp))


def test_bell_checker_rejects_beta_off_by_1e5():
    wl, rnd = tiny("bell-seesaw")
    inp = next(i for i in rnd if i["split"] == 2 and not i["product"])
    beta = wl.run(inp)
    wl.check(inp, beta)
    with pytest.raises(oracles.CheckFailed, match="closed form"):
        wl.check(inp, beta + 1e-5)


def test_audit_checker_rejects_one_flipped_uncovered_entry():
    wl = workloads.ClassicalAudit("tiny")
    weights = np.array([0.4, 0.1, 0.1, 0.4])  # not common-cause closed
    inp = {"weights": weights, "space": commoncause.ClassicalSpace(weights)}
    rep = wl.run(inp)
    wl.check(inp, rep)
    (a, b), *rest = rep.uncovered
    flipped = dataclasses.replace(rep, uncovered=[(a, b ^ {0}), *rest])
    with pytest.raises(oracles.CheckFailed, match="uncovered"):
        wl.check(inp, flipped)


def test_cause_checker_rejects_a_cause_whose_weight_is_not_r():
    wl, (inp,) = tiny("net-cause")
    net, state, demo = wl.run(inp)
    wl.check(inp, (net, state, demo))
    meet = qprob.Projection(demo.a.mat @ demo.b.mat)  # below AB, weight phi(AB) > r
    wrong = dataclasses.replace(demo, certificate=dataclasses.replace(demo.certificate, cause=meet))
    with pytest.raises(oracles.CheckFailed, match="differs from r"):
        wl.check(inp, (net, state, wrong))


def test_axioms_checker_rejects_a_clean_verdict_on_a_planted_net():
    wl, rnd = tiny("net-axioms")
    inp = next(i for i in rnd if i["kind"] == "planted")
    net, rep = wl.run(inp)
    wl.check(inp, (net, rep))
    clean = dataclasses.replace(
        rep, isotony_violations=[], causality_violations=[], primitive_violations=[],
        max_spacelike_commutator=0.0,
    )
    with pytest.raises(oracles.CheckFailed, match="reported clean"):
        wl.check(inp, (net, clean))


def test_checker_evolution_follows_the_package_convention():
    wl, rnd = tiny("net-axioms")
    layers = next(i for i in rnd if i["kind"] == "planted")["layers"]
    for net in (toynet.build_net(5, "random", seed=3, n_steps=3), toynet.build_net(6, layers)):
        u = oracles.evolutions(net.layers, net.n_sites, net.n_steps)
        for k in range(net.n_steps + 1):
            assert np.allclose(u[k], net.evolution(k), atol=1e-12)


def test_traced_run_wraps_every_binding_and_puts_them_back():
    wl, rnd = tiny("net-axioms")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        # quantum_verify_cc is bound in commoncause, toynet and the package
        from ccbench import commoncause as cc

        assert toynet.quantum_verify_cc is cc.quantum_verify_cc
        assert getattr(toynet.quantum_verify_cc, tracing.MARK)
        assert "ccbench.toynet.quantum_verify_cc" in run.wrapped_bindings()
        m = run.measure(wl, [rnd], 0.0, tracer)
    finally:
        restore()
    assert run.wrapped_bindings() == []
    metrics = run.per_layer(m, tracer)
    assert list(metrics) == [name for name, _, _ in tracing.metric_specs()]
    assert metrics["toynet.check_axioms.s"]["value"] > 0
    assert metrics["toynet.region_algebra.calls"]["value"] > 0
    assert 0 < metrics["toynet.check_axioms.spacelike_yield"]["value"] <= 1


def test_result_lines_carry_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.metric_specs()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_script("--workload", "bell-seesaw", "--seed", "3", "--seconds", "0",
                          "--trace", trace, "--scale", "tiny")
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 4
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_script("--workload", "bell-seesaw", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
