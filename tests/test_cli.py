"""Command-line behavior: exit codes, determinism, error naming.

Most tests drive main() in process for speed. Three subprocess tests cover
the entry points: test_module_entry_point (python -m ccbench) and
test_console_script_help (the [project.scripts] target declared in
pyproject.toml, run the way pip's generated launcher runs it) work from the
source tree; test_installed_console_script_help needs `pip install` to have
put the ccbench script on PATH and is skipped otherwise. Exit-code
contract: 0 success, 1 honest negative, 2 parse or schema error, 3 violated
invariant, 4 internal bug (an uncaught exception included).
"""

import json
import os
import shutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ccbench
from ccbench import cli, config
from ccbench.cli import main
from ccbench.errors import InfeasibleError, ValidationError

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def scenario(name):
    return str(SCENARIOS / name)


def run_cli(*argv):
    return main(list(argv))


def text_lines(out):
    """The ``path: value`` lines of a text report."""
    return set(out.splitlines())


# ---------------------------------------------------------------------------
# success paths on the bundled scenarios
# ---------------------------------------------------------------------------


def test_bell_singlet(capsys):
    assert run_cli("bell", "--scenario", scenario("bell_singlet.json")) == 0
    out = text_lines(capsys.readouterr().out)
    assert "beta: 1.414213562" in out
    assert "outcome: ok" in out
    assert "correlated: True" in out


def test_bell_product_state_reports_no_pair(capsys):
    code = run_cli("bell", "--scenario", scenario("bell_product_state.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert "correlated_pair.found: False" in out
    assert "correlated: False" in out


def test_sample_bell_product_ensemble(capsys):
    code = run_cli("sample-bell", "--scenario", scenario("product_ensemble.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert {"fraction: 0", "n: 40"} <= out
    assert "max_beta: 1" in out


def test_bell_werner_tol_override_flips_verdict(capsys):
    run_cli("bell", "--scenario", scenario("bell_werner_mixture.json"))
    default = text_lines(capsys.readouterr().out)
    assert "correlated: True" in default
    run_cli(
        "bell",
        "--scenario",
        scenario("bell_werner_mixture.json"),
        "--tol-override",
        "bell=0.2",
    )
    loose = text_lines(capsys.readouterr().out)
    assert "correlated: False" in loose


def test_find_cc_strong_cause(capsys):
    code = run_cli("find-cc", "--scenario", scenario("strong_cause_dim9.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert "outcome: ok" in out
    assert "certificate.verified: True" in out


def test_find_cc_three_distinct_causes(capsys):
    code = run_cli("find-cc", "--scenario", scenario("three_causes_dim9.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert "n_found: 3" in out
    assert "outcome: ok" in out


def test_find_cc_refuses_a_dependent_pair_at_every_count(tmp_path, capsys):
    # B < A, so φ(A^B) = φ(B): with count 3 this used to skip the check and
    # end as none-found, exit 1
    def diag(*entries):
        return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]

    messages = []
    for count in (1, 3):
        path = tmp_path / f"nested_{count}.json"
        path.write_text(json.dumps({"kind": "quantum", "payload": {
            "state": diag(0.3, 0.3, 0.2, 0.2), "count": count,
            "projections": {"A": diag(1, 1, 1, 0), "B": diag(1, 1, 0, 0)}}}))
        assert run_cli("find-cc", "--scenario", str(path)) == 3
        messages.append(capsys.readouterr().err)
    assert messages[0].startswith("error: pair is not logically independent")
    assert messages[1] == messages[0]


def test_find_cc_fails_verification_alike_at_every_count(tmp_path, capsys):
    # a cc_tol below rounding fails cause 0, which is find_strong_cc's cause;
    # with count 3 the failed cause used to be dropped, ending in exit 1
    doc = json.loads(Path(scenario("three_causes_dim9.json")).read_text())
    results = []
    for count in (1, 3):
        doc["payload"]["count"] = count
        path = tmp_path / f"three_{count}.json"
        path.write_text(json.dumps(doc))
        code = run_cli("find-cc", "--scenario", str(path), "--tol-override", "cc_tol=1e-18")
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == 4
    assert results[0][1].startswith("error: constructed cause failed verification: residuals")


def test_find_cc_infeasible_at_every_count(tmp_path, capsys):
    # with count 3 the rank-one meet used to end as none-found with a warning
    doc = json.loads(Path(scenario("rank_one_meet.json")).read_text())
    doc["payload"]["count"] = 3
    path = tmp_path / "rank_one_3.json"
    path.write_text(json.dumps(doc))
    assert run_cli("find-cc", "--scenario", str(path)) == 1
    out = text_lines(capsys.readouterr().out)
    assert "outcome: infeasible" in out
    assert "message: P has rank 1; its only strict subprojection is 0" in out


def test_genuine_cc_on_planted_instance(capsys):
    code = run_cli("genuine-cc", "--scenario", scenario("planted_genuine_dim16.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert {"certificate.cause.rank: 6", "certificate.is_genuine: True"} <= out
    assert "certificate.verified: True" in out


@pytest.mark.parametrize(
    "name, obstruction",
    [
        ("strong_cause_dim9.json", "AB⊥ [0.17, 0.17]; A⊥B [0.17, 0.17]; A⊥B⊥ [0.08, 0.1], [0.18, 0.18]; boxes ruled out: 4"),
        ("three_causes_dim9.json", "AB⊥ [0.17, 0.17]; A⊥B [0.17, 0.17]; A⊥B⊥ [0.08, 0.1], [0.18, 0.18]; boxes ruled out: 4"),
        ("rank_one_meet.json", "AB [0.4, 0.4]; AB⊥ [0.2, 0.2]; A⊥B [0.2, 0.2]; A⊥B⊥ [0.2, 0.2]; boxes ruled out: 1"),
    ],
)
def test_genuine_cc_rules_out_a_genuine_cause(capsys, name, obstruction):
    sc = cli.load_scenario(scenario(name))
    start = time.perf_counter()
    with pytest.raises(InfeasibleError, match="no genuinely probabilistic cause") as caught:
        ccbench.search_genuine_cc(sc.objects["phi"], sc.objects["A"], sc.objects["B"])
    assert time.perf_counter() - start < 0.5
    assert obstruction in str(caught.value)
    assert run_cli("genuine-cc", "--scenario", scenario(name)) == 1
    out = text_lines(capsys.readouterr().out)
    assert {f"message: {caught.value}", "outcome: infeasible"} <= out


def test_classical_audit_uncovered_pair(capsys):
    code = run_cli("classical-audit", "--scenario", scenario("four_atom_incomplete.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert "closed: False" in out
    assert any(
        {f"uncovered[{i}].A: [0, 1]", f"uncovered[{i}].B: [0, 2]"} <= out for i in range(len(out))
    )


def test_analyze_classical_events(capsys):
    code = run_cli("analyze", "--scenario", scenario("four_block_classical_pair.json"))
    assert code == 0
    assert "outcome: ok" in capsys.readouterr().out


def test_geometry_slab_instance(capsys):
    code = run_cli("geometry", "--scenario", scenario("separated_double_cones.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert "region.cells[0].t: [-6.5, -6]" in out  # slab of the depth-6 construction
    assert "outcome: ok" in out


def test_geometry_point_membership(capsys):
    code = run_cli("geometry", "--scenario", scenario("single_double_cone.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: ok" in out


# ---------------------------------------------------------------------------
# honest negatives (exit 1)
# ---------------------------------------------------------------------------


def test_rank_one_meet_is_infeasible(capsys):
    code = run_cli("find-cc", "--scenario", scenario("rank_one_meet.json"))
    out = text_lines(capsys.readouterr().out)
    assert code == 1
    assert "outcome: infeasible" in out
    assert "message: P has rank 1; its only strict subprojection is 0" in out


def _product_chain(tmp_path, gate, sites1, sites2):
    """eight_qubit_chain.json with the CLI's product state and no axiom sweep."""
    doc = json.loads((SCENARIOS / "eight_qubit_chain.json").read_text())
    payload = doc["payload"]
    payload.update(state="product", axiom_pairs=0, gate=gate)
    payload["d1"]["sites"], payload["d2"]["sites"] = sites1, sites2
    path = tmp_path / "product_chain.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_toynet_product_state_correlated_by_random_gates(tmp_path, capsys):
    code = run_cli("toynet-demo", "--scenario", _product_chain(tmp_path, "random", [0, 1], [4, 5]))
    out = text_lines(capsys.readouterr().out)
    assert code == 0
    assert "demo.certificate.verified: True" in out
    assert "demo.lattice_sites: [0, 6]" in out


@pytest.mark.parametrize(
    "gate, sites1, sites2",
    [
        ("random", [1, 2], [6, 7]),
        ("swap", [0, 1], [4, 5]),
        ("swap", [1, 2], [6, 7]),
    ],
)
def test_toynet_product_state_without_correlation_is_infeasible(
    tmp_path, capsys, gate, sites1, sites2
):
    code = run_cli("toynet-demo", "--scenario", _product_chain(tmp_path, gate, sites1, sites2))
    out = text_lines(capsys.readouterr().out)
    assert code == 1
    assert "outcome: infeasible" in out
    assert "message: no correlated pair across the regions: product state" in out


# weights summing to 1 only within rounding: C = {0, 1, 2} has p(C) < 1 and p(C⊥) = 0
_ZERO_ATOM = {"kind": "classical", "payload": {
    "weights": [0.7, 0.2, 0.1, 0.0], "events": {"A": [0], "B": [0, 1]}}}


def test_find_cc_skips_causes_whose_complement_has_zero_weight(tmp_path, capsys):
    path = tmp_path / "zero_atom.json"
    path.write_text(json.dumps(_ZERO_ATOM))
    assert sum(_ZERO_ATOM["payload"]["weights"]) < 1.0
    assert run_cli("find-cc", "--scenario", str(path)) == 0
    assert "n_found: 2" in text_lines(capsys.readouterr().out)


def test_classical_audit_on_a_zero_weight_atom(tmp_path, capsys):
    path = tmp_path / "zero_atom.json"
    path.write_text(json.dumps(_ZERO_ATOM))
    assert run_cli("classical-audit", "--scenario", str(path)) == 0
    out = text_lines(capsys.readouterr().out)
    assert "n_correlated_pairs: 30" in out
    assert "n_covered: 18" in out


# ---------------------------------------------------------------------------
# parse and schema errors (exit 2)
# ---------------------------------------------------------------------------


def test_missing_file(capsys):
    code = run_cli("bell", "--scenario", "/nonexistent/path.json")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run_cli("bell", "--scenario", str(bad))
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


def test_unknown_kind(tmp_path, capsys):
    doc = tmp_path / "odd.json"
    doc.write_text(json.dumps({"kind": "astrology", "payload": {}}))
    code = run_cli("bell", "--scenario", str(doc))
    assert code == 2
    assert "kind" in capsys.readouterr().err


def test_wrong_kind_for_command(capsys):
    code = run_cli("geometry", "--scenario", scenario("bell_singlet.json"))
    err = capsys.readouterr().err
    assert code == 2
    assert "expects a scenario of kind" in err


@pytest.mark.parametrize("state", ["singlet", [[2, 0, 0, 0]] * 4])
def test_wrong_kind_is_refused_before_the_payload_is_built(tmp_path, state):
    # the kind is checked on the parsed document, so the refused run builds
    # no state and loads no scipy; a payload that fails validation (here a
    # state that is not of unit trace, exit 3 under bell) is refused too
    doc = tmp_path / "bell.json"
    doc.write_text(json.dumps({"kind": "bell", "payload": {"split": [2, 2], "state": state}}))
    probe = (
        "import sys; from ccbench.cli import main; "
        f"code = main(['geometry', '--scenario', {str(doc)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    src = str(Path(ccbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.stdout == "2 []\n"
    assert "expects a scenario of kind geometry, got 'bell'" in proc.stderr
    assert run_cli("bell", "--scenario", str(doc)) == (0 if state == "singlet" else 3)


def test_field_precise_matrix_error(tmp_path, capsys):
    doc = tmp_path / "ragged.json"
    doc.write_text(
        json.dumps(
            {
                "kind": "quantum",
                "payload": {
                    "state": [[1.0, 0.0], [0.0]],
                    "projections": {"A": [[1]], "B": [[1]]},
                },
            }
        )
    )
    code = run_cli("analyze", "--scenario", str(doc))
    err = capsys.readouterr().err
    assert code == 2
    assert "payload.state[1]" in err


@pytest.mark.parametrize("n_sites", [3, 11])
def test_toynet_site_count_outside_demo_range_is_a_parse_error(tmp_path, capsys, n_sites):
    doc = json.loads((SCENARIOS / "eight_qubit_chain.json").read_text())
    doc["payload"]["n_sites"] = n_sites
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code = run_cli("toynet-demo", "--scenario", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert f"payload.n_sites = {n_sites}" in err
    assert "4..10" in err and "16" not in err


@pytest.mark.parametrize(
    "value, code, n_found",
    [(False, 0, 6), (True, 0, 4), ("false", 2, None), ("no", 2, None), (0, 2, None)],
)
def test_find_cc_exclude_trivial_takes_json_booleans_only(tmp_path, capsys, value, code, n_found):
    doc = json.loads((SCENARIOS / "four_block_classical_pair.json").read_text())
    doc["payload"]["exclude_trivial"] = value
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert run_cli("find-cc", "--scenario", str(path)) == code
    out, err = capsys.readouterr()
    if n_found is None:
        assert "payload.exclude_trivial" in err
    else:
        assert f"n_found: {n_found}" in text_lines(out)


def test_tol_override_must_be_known_and_positive(capsys):
    code = run_cli(
        "bell", "--scenario", scenario("bell_singlet.json"), "--tol-override", "bogus=1"
    )
    assert code == 2
    assert "unknown tolerance" in capsys.readouterr().err
    code = run_cli(
        "bell", "--scenario", scenario("bell_singlet.json"), "--tol-override", "bell=-1"
    )
    assert code == 2
    assert "positive" in capsys.readouterr().err
    code = run_cli(
        "bell", "--scenario", scenario("bell_singlet.json"), "--tol-override", "bell"
    )
    assert code == 2
    assert "KEY=VAL" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
def test_tol_override_must_be_finite(capsys, value):
    # float() reads these, and "nan" passed "tolerance must be positive":
    # every "residual > nan" check then passed silently
    code = run_cli(
        "bell", "--scenario", scenario("bell_singlet.json"), "--tol-override", f"comm_tol={value}"
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --tol-override 'comm_tol={value}': value is not a finite number\n"


def _scenario_text(tmp_path, text):
    doc = tmp_path / "nonfinite.json"
    doc.write_text(text)
    return str(doc)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_scenario_tolerance_must_be_finite(tmp_path, capsys, value):
    # json accepts NaN and Infinity; the tolerance parser must not
    doc = _scenario_text(
        tmp_path,
        '{"kind": "classical", "payload": {"weights": [0.4, 0.1, 0.1, 0.4]},'
        f' "tolerances": {{"comm_tol": {value}}}}}',
    )
    assert run_cli("classical-audit", "--scenario", doc) == 2
    assert capsys.readouterr().err == "error: tolerances.comm_tol: expected a finite number\n"


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "1e400", "1" + "0" * 400])
def test_scenario_weights_must_be_finite(tmp_path, capsys, weight):
    # NaN passed ClassicalSpace's sum and sign checks: the audit exited 0
    # with "90 correlated pair(s); 0 admit a nontrivial common cause"
    doc = _scenario_text(
        tmp_path,
        f'{{"kind": "classical", "payload": {{"weights": [{weight}, 0.5, 0.25, 0.25]}}}}',
    )
    assert run_cli("classical-audit", "--scenario", doc) == 2
    assert capsys.readouterr().err == "error: payload.weights: expected a finite number\n"


@pytest.mark.parametrize("entry", ["NaN", "[0.5, Infinity]", "[-Infinity, 0]"])
def test_scenario_matrix_entries_must_be_finite(tmp_path, capsys, entry):
    doc = _scenario_text(
        tmp_path,
        '{"kind": "quantum", "payload": {'
        f'"state": [[{entry}, 0], [0, 0.5]],'
        ' "projections": {"A": [[1, 0], [0, 0]], "B": [[0, 0], [0, 1]]}}}',
    )
    assert run_cli("analyze", "--scenario", doc) == 2
    assert capsys.readouterr().err == "error: payload.state[0][0]: expected a finite number\n"


def test_finite_checks_leave_the_old_exit_2_messages(tmp_path, capsys):
    doc = _scenario_text(
        tmp_path,
        '{"kind": "classical", "payload": {"weights": ["x", 0.5, 0.25, 0.25]}}',
    )
    assert run_cli("classical-audit", "--scenario", doc) == 2
    assert capsys.readouterr().err == "error: payload.weights: expected a number\n"
    code = run_cli(
        "bell", "--scenario", scenario("bell_singlet.json"), "--tol-override", "bell=abc"
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --tol-override 'bell=abc': value is not a number\n"


def test_config_override_refuses_non_finite_values():
    before = config.TOL.comm
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="not finite"):
            with config.temporary(comm_tol=value):
                pass
    assert config.TOL.comm == before


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--scenario", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bell"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# invariant violations (exit 3)
# ---------------------------------------------------------------------------


def test_non_hermitian_state_names_the_invariant(tmp_path, capsys):
    doc = tmp_path / "skew.json"
    doc.write_text(
        json.dumps(
            {
                "kind": "quantum",
                "payload": {
                    "state": [[0.5, 0.3], [0.1, 0.5]],
                    "projections": {"A": [[1, 0], [0, 0]], "B": [[0, 0], [0, 1]]},
                },
            }
        )
    )
    code = run_cli("analyze", "--scenario", str(doc))
    err = capsys.readouterr().err
    assert code == 3
    assert "tol_herm" in err


def test_overlapping_regions_are_an_invariant_error(tmp_path, capsys):
    doc = tmp_path / "overlap.json"
    doc.write_text(
        json.dumps(
            {
                "kind": "geometry",
                "payload": {
                    "regions": {
                        "v1": {"shape": "double_cone", "u": [-1, 1], "v": [-1, 1]},
                        "v2": {"shape": "double_cone", "u": [-1.5, 0.5], "v": [-0.5, 1.5]},
                    }
                },
            }
        )
    )
    code = run_cli("geometry", "--scenario", str(doc))
    err = capsys.readouterr().err
    assert code == 3
    assert "spacelike" in err


# ---------------------------------------------------------------------------
# the parse and invariant message table (exit 2 and 3)
# ---------------------------------------------------------------------------

_DROP = object()
_KNOWN = ", ".join(sorted(config.ALIASES))
_QUBIT_P = [[1, 0], [0, 0]]
_CONE = {"shape": "double_cone", "u": [-1, 1], "v": [-1, 1]}
_BASES = {
    "quantum": {
        "kind": "quantum",
        "payload": {"state": [[0.5, 0], [0, 0.5]], "projections": {"A": _QUBIT_P, "B": _QUBIT_P}},
    },
    "classical": {
        "kind": "classical",
        "payload": {"weights": [0.25, 0.25, 0.25, 0.25], "events": {"A": [0, 1], "B": [1, 2]}},
    },
    "bell": {
        "kind": "bell",
        "payload": {"split": [2, 2], "state": "singlet", "ensemble": "product", "n": 2},
    },
    "geometry": {"kind": "geometry", "payload": {"regions": {"v": _CONE}}},
    "pair": json.loads((SCENARIOS / "separated_double_cones.json").read_text()),
    "toynet": json.loads((SCENARIOS / "eight_qubit_chain.json").read_text()),
}
del _BASES["toynet"]["payload"]["axiom_pairs"]


def _edited(base, edits):
    doc = json.loads(json.dumps(_BASES[base]))
    for path, value in edits.items():
        *head, last = path.split(".")
        node = doc
        for key in head:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return doc


def _row(name, command, base, edits, code, line, argv=()):
    return pytest.param(command, base, edits, argv, code, line, id=name)


# Each row: one malformed scenario (an edit of a valid base document, raw
# text, or no file at all) or flag, with its exit code and the exact first
# stderr line; <path> stands for the scenario path, <known> for the sorted
# tolerance names.
_MESSAGE_ROWS = [
    # files and the top level
    _row("no-file", "bell", "missing", None, 2,
         "error: cannot read scenario file <path>: [Errno 2] No such file or directory: '<path>'"),
    _row("bad-json", "bell", "raw", "{ not json", 2,
         "error: <path>: invalid JSON at line 1, column 3: "
         "Expecting property name enclosed in double quotes"),
    _row("top-list", "bell", "raw", "[]", 2, "error: <path>: top level must be an object"),
    _row("kind", "bell", "bell", {"kind": "astrology"}, 2,
         "error: <path>: kind must be one of quantum, classical, geometry, toynet, bell"),
    _row("kind-list", "bell", "bell", {"kind": ["bell"]}, 2,
         "error: <path>: kind must be one of quantum, classical, geometry, toynet, bell"),
    _row("kind-object", "geometry", "bell", {"kind": {"bell": 1}}, 2,
         "error: <path>: kind must be one of quantum, classical, geometry, toynet, bell"),
    _row("payload", "bell", "bell", {"payload": [1]}, 2, "error: <path>: payload must be an object"),
    _row("seed-negative", "bell", "bell", {"seed": -1}, 2,
         "error: <path>: seed must be a nonnegative integer"),
    _row("seed-bool", "bell", "bell", {"seed": True}, 2,
         "error: <path>: seed must be a nonnegative integer"),
    _row("seed-float", "bell", "bell", {"seed": 1.5}, 2,
         "error: <path>: seed must be a nonnegative integer"),
    _row("wrong-kind", "geometry", "bell", {}, 2,
         "error: command geometry expects a scenario of kind geometry, got 'bell'"),
    # tolerances, in the file and on the command line
    _row("tol-list", "bell", "bell", {"tolerances": [1]}, 2,
         "error: tolerances: expected an object of name -> value"),
    _row("tol-unknown", "bell", "bell", {"tolerances": {"nope": 1}}, 2,
         "error: tolerances.nope: unknown tolerance 'nope' (known: <known>)"),
    _row("tol-unknown-before-value", "bell", "bell", {"tolerances": {"nope": "x"}}, 2,
         "error: tolerances.nope: unknown tolerance 'nope' (known: <known>)"),
    _row("tol-string", "bell", "bell", {"tolerances": {"comm_tol": "1e-9"}}, 2,
         "error: tolerances.comm_tol: expected a number"),
    _row("tol-bool", "bell", "bell", {"tolerances": {"comm_tol": True}}, 2,
         "error: tolerances.comm_tol: expected a number"),
    _row("tol-nan", "bell", "raw",
         '{"kind": "bell", "payload": {"split": [2, 2]}, "tolerances": {"comm_tol": NaN}}', 2,
         "error: tolerances.comm_tol: expected a finite number"),
    _row("tol-zero", "bell", "bell", {"tolerances": {"bell": 0}}, 2,
         "error: tolerances.bell: tolerance must be positive"),
    _row("tol-negative", "bell", "bell", {"tolerances": {"tol_herm": -1e-3}}, 2,
         "error: tolerances.tol_herm: tolerance must be positive"),
    _row("override-no-equals", "bell", "bell", {}, 2,
         "error: --tol-override 'bell': expected KEY=VAL", ("--tol-override", "bell")),
    _row("override-unknown", "bell", "bell", {}, 2,
         "error: --tol-override 'nope=1': unknown tolerance 'nope' (known: <known>)",
         ("--tol-override", "nope=1")),
    _row("override-unknown-before-value", "bell", "bell", {}, 2,
         "error: --tol-override 'nope=abc': unknown tolerance 'nope' (known: <known>)",
         ("--tol-override", "nope=abc")),
    _row("override-text", "bell", "bell", {}, 2,
         "error: --tol-override 'bell=abc': value is not a number", ("--tol-override", "bell=abc")),
    _row("override-inf", "bell", "bell", {}, 2,
         "error: --tol-override 'bell=inf': value is not a finite number",
         ("--tol-override", "bell=inf")),
    _row("override-zero", "bell", "bell", {}, 2,
         "error: --tol-override 'bell=0': tolerance must be positive", ("--tol-override", "bell=0")),
    _row("override-first", "bell", "bell", {"tolerances": {"nope": 1}}, 2,
         "error: --tol-override 'bell': expected KEY=VAL", ("--tol-override", "bell")),
    # quantum payloads
    _row("q-state-missing", "analyze", "quantum", {"payload.state": _DROP}, 2,
         "error: payload.state is required"),
    _row("q-state-text", "analyze", "quantum", {"payload.state": "x"}, 2,
         "error: payload.state: expected a matrix as a list of rows"),
    _row("q-state-empty", "analyze", "quantum", {"payload.state": []}, 2,
         "error: payload.state: expected a matrix as a list of rows"),
    _row("q-state-ragged", "analyze", "quantum", {"payload.state": [[1, 0], [0]]}, 2,
         "error: payload.state[1]: row length 1 != 2"),
    _row("q-state-entry", "analyze", "quantum", {"payload.state": [[True, 0], [0, 0.5]]}, 2,
         "error: payload.state[0][0]: entries must be numbers or [re, im] pairs"),
    _row("q-state-triple", "analyze", "quantum", {"payload.state": [[[1, 0, 0], 0], [0, 0.5]]}, 2,
         "error: payload.state[0][0]: entries must be numbers or [re, im] pairs"),
    _row("q-state-square", "analyze", "quantum", {"payload.state": [[0.5, 0.5]]}, 3,
         "error: payload.state: state must be square, got shape (1, 2)"),
    _row("q-state-herm", "analyze", "quantum", {"payload.state": [[0.5, 0.3], [0.1, 0.5]]}, 3,
         "error: payload.state violates tol_herm: state is not self-adjoint"),
    _row("q-state-trace", "analyze", "quantum", {"payload.state": [[1, 0], [0, 1]]}, 3,
         "error: payload.state violates tol_state: state trace 2.0 is not 1 within tol_state"),
    _row("q-state-negative", "analyze", "quantum", {"payload.state": [[1.5, 0], [0, -0.5]]}, 3,
         "error: payload.state violates tol_state: state has negative eigenvalue -5.000e-01"),
    _row("q-projections-missing", "analyze", "quantum", {"payload.projections": _DROP}, 2,
         "error: payload.projections is required"),
    _row("q-projections-list", "analyze", "quantum", {"payload.projections": [1]}, 2,
         "error: payload.projections: expected an object"),
    _row("q-projection-b-missing", "analyze", "quantum", {"payload.projections.B": _DROP}, 2,
         "error: payload.projections.B is required"),
    _row("q-projection-text", "analyze", "quantum", {"payload.projections.A": "x"}, 2,
         "error: payload.projections.A: expected a matrix as a list of rows"),
    _row("q-projection-idem", "analyze", "quantum",
         {"payload.projections.A": [[0.5, 0], [0, 0]]}, 3,
         "error: payload.projections.A violates tol_proj: "
         "matrix is not idempotent (residual 2.500e-01 > 1e-09)"),
    _row("q-projection-herm", "analyze", "quantum",
         {"payload.projections.A": [[1, 1], [0, 0]]}, 3,
         "error: payload.projections.A violates tol_herm: "
         "operator is not self-adjoint (residual 1.000e+00 > 1e-10)"),
    _row("q-projection-dim", "analyze", "quantum", {"payload.projections.A": [[1]]}, 3,
         "error: payload.projections.A: projection dim 1 != state dim 2"),
    _row("q-projection-c-dim", "analyze", "quantum", {"payload.projections.C": [[1]]}, 3,
         "error: payload.projections.C: projection dim 1 != state dim 2"),
    _row("q-noncommuting", "analyze", "quantum",
         {"payload.projections.B": [[0.5, 0.5], [0.5, 0.5]]}, 3,
         "error: projections do not commute (residual 0.707)"),
    _row("q-count", "find-cc", "quantum", {"payload.count": "2"}, 2,
         "error: payload.count: expected an integer"),
    _row("q-count-bool", "find-cc", "quantum", {"payload.count": True}, 2,
         "error: payload.count: expected an integer"),
    # classical payloads
    _row("c-weights-missing", "analyze", "classical", {"payload.weights": _DROP}, 2,
         "error: payload.weights is required"),
    _row("c-weights-text", "analyze", "classical", {"payload.weights": "x"}, 2,
         "error: payload.weights: expected a list of atom weights"),
    _row("c-weight-text", "analyze", "classical", {"payload.weights": ["x", 1]}, 2,
         "error: payload.weights: expected a number"),
    _row("c-weights-empty", "classical-audit", "classical", {"payload.weights": []}, 3,
         "error: payload.weights: weights must be a nonempty 1-d sequence"),
    _row("c-weight-negative", "classical-audit", "classical", {"payload.weights": [1.5, -0.5]}, 3,
         "error: payload.weights violates weights >= 0: negative atom weight"),
    _row("c-weights-sum", "classical-audit", "classical", {"payload.weights": [0.5, 0.2]}, 3,
         "error: payload.weights violates sum(weights) = 1: weights sum to 0.7, not 1"),
    _row("c-events-list", "analyze", "classical", {"payload.events": [[0, 1], [1, 2]]}, 2,
         "error: payload.events: expected an object"),
    _row("c-event-text", "analyze", "classical", {"payload.events.A": "x"}, 2,
         "error: payload.events.A: expected a list of atom indices"),
    _row("c-event-float", "analyze", "classical", {"payload.events.A": [0.0, 1]}, 2,
         "error: payload.events.A: expected a list of atom indices"),
    _row("c-event-bool", "analyze", "classical", {"payload.events.A": [True, 0]}, 2,
         "error: payload.events.A: expected a list of atom indices"),
    _row("c-event-range", "analyze", "classical", {"payload.events.A": [7]}, 3,
         "error: payload.events.A: atom index 7 out of range"),
    _row("c-event-b-missing", "analyze", "classical", {"payload.events.B": _DROP}, 2,
         "error: payload.events.B is required for this command"),
    _row("c-events-missing", "find-cc", "classical", {"payload.events": _DROP}, 2,
         "error: payload.events.A is required for this command"),
    _row("c-exclude-trivial", "find-cc", "classical", {"payload.exclude_trivial": 1}, 2,
         "error: payload.exclude_trivial: expected true or false"),
    # bell payloads
    _row("b-split-missing", "bell", "bell", {"payload.split": _DROP}, 2,
         "error: payload.split is required"),
    _row("b-split-short", "bell", "bell", {"payload.split": [2]}, 2,
         "error: payload.split: expected [d1, d2]"),
    _row("b-split-text", "bell", "bell", {"payload.split": "2x2"}, 2,
         "error: payload.split: expected [d1, d2]"),
    _row("b-split-entry", "bell", "bell", {"payload.split": [2, "x"]}, 2,
         "error: payload.split[1]: expected an integer"),
    _row("b-split-bool", "bell", "bell", {"payload.split": [True, 2]}, 2,
         "error: payload.split[0]: expected an integer"),
    _row("b-split-small", "bell", "bell", {"payload.split": [1, 2]}, 3,
         "error: payload.split: each side needs dimension >= 2, got 1x2"),
    _row("b-split-large", "sample-bell", "bell", {"payload.split": [1000000, 2]}, 3,
         "error: payload.split: 1000000x2 exceeds the see-saw dimension limit 25"),
    _row("b-split-wide", "bell", "bell", {"payload.split": [2, 513]}, 3,
         "error: payload.split: 2x513 exceeds the see-saw dimension limit 25"),
    _row("b-singlet-split", "bell", "bell", {"payload.split": [2, 3]}, 3,
         "error: payload.state: singlet needs a [2, 2] split"),
    _row("b-werner-split", "bell", "bell",
         {"payload.split": [3, 2], "payload.state": {"werner": 0.5}}, 3,
         "error: payload.state: werner needs a [2, 2] split"),
    _row("b-werner-text", "bell", "bell", {"payload.state": {"werner": "x"}}, 2,
         "error: payload.state.werner: expected a number"),
    _row("b-werner-range", "bell", "bell", {"payload.state": {"werner": 1.5}}, 3,
         "error: payload.state: mixing weight 1.5 outside [0, 1]"),
    _row("b-state-object", "bell", "bell", {"payload.state": {"mix": 0.5}}, 2,
         "error: payload.state: expected a matrix as a list of rows"),
    _row("b-state-dim", "bell", "bell", {"payload.state": [[0.5, 0], [0, 0.5]]}, 3,
         "error: payload.state: state dim 2 != split product 4"),
    _row("b-state-missing", "bell", "bell", {"payload.state": _DROP}, 2,
         "error: payload.state is required for the bell command"),
    _row("b-restarts", "bell", "bell", {"payload.restarts": "20"}, 2,
         "error: payload.restarts: expected an integer"),
    _row("s-ensemble-missing", "sample-bell", "bell", {"payload.ensemble": _DROP}, 2,
         "error: payload.ensemble is required"),
    _row("s-ensemble-unknown", "sample-bell", "bell", {"payload.ensemble": "nope"}, 3,
         "error: payload: unknown ensemble 'nope'"),
    _row("s-n-missing", "sample-bell", "bell", {"payload.n": _DROP}, 2,
         "error: payload.n is required"),
    _row("s-n-float", "sample-bell", "bell", {"payload.n": 2.0}, 2,
         "error: payload.n: expected an integer"),
    _row("s-n-zero", "sample-bell", "bell", {"payload.n": 0}, 3,
         "error: payload: need at least one sample"),
    _row("s-restarts", "sample-bell", "bell", {"payload.restarts": None}, 2,
         "error: payload.restarts: expected an integer"),
    # geometry payloads
    _row("g-regions-missing", "geometry", "geometry", {"payload.regions": _DROP}, 2,
         "error: payload.regions is required"),
    _row("g-regions-empty", "geometry", "geometry", {"payload.regions": {}}, 2,
         "error: payload.regions: expected a nonempty object"),
    _row("g-regions-names", "geometry", "geometry", {"payload.regions": {"w": _CONE}}, 2,
         "error: payload.regions needs either v1 and v2, or v"),
    _row("g-region-text", "geometry", "geometry", {"payload.regions.v": "x"}, 2,
         "error: payload.regions.v: expected a region object"),
    _row("g-shape", "geometry", "geometry", {"payload.regions.v.shape": "circle"}, 2,
         "error: payload.regions.v.shape must be double_cone, rect, or union"),
    _row("g-u-missing", "geometry", "geometry", {"payload.regions.v.u": _DROP}, 2,
         "error: payload.regions.v.u is required"),
    _row("g-u-short", "geometry", "geometry", {"payload.regions.v.u": [1]}, 2,
         "error: payload.regions.v.u: expected [lo, hi]"),
    _row("g-v-entry", "geometry", "geometry", {"payload.regions.v.v": [-1, "1"]}, 2,
         "error: payload.regions.v.v[1]: expected a number"),
    _row("g-u-empty", "geometry", "geometry", {"payload.regions.v.u": [1, -1]}, 3,
         "error: payload.regions.v: u interval (1.0, -1.0) is empty"),
    _row("g-rect-t", "geometry", "geometry",
         {"payload.regions.v": {"shape": "rect", "x": [0, 1]}}, 2,
         "error: payload.regions.v.t is required"),
    _row("g-rect-x", "geometry", "geometry",
         {"payload.regions.v": {"shape": "rect", "t": [0, 1], "x": [0, None]}}, 2,
         "error: payload.regions.v.x[1]: expected a number"),
    _row("g-parts-empty", "geometry", "geometry",
         {"payload.regions.v": {"shape": "union", "parts": []}}, 2,
         "error: payload.regions.v.parts: expected a nonempty list"),
    _row("g-part-text", "geometry", "geometry",
         {"payload.regions.v": {"shape": "union", "parts": [_CONE, "x"]}}, 2,
         "error: payload.regions.v.parts[1]: expected a region object"),
    _row("g-point-short", "geometry", "geometry", {"payload.point": [1]}, 2,
         "error: payload.point: expected [lo, hi]"),
    _row("g-point-entry", "geometry", "geometry", {"payload.point": ["a", 0]}, 2,
         "error: payload.point[0]: expected a number"),
    _row("g-margin", "geometry", "pair", {"payload.margin": "x"}, 2,
         "error: payload.margin: expected a number"),
    _row("g-depth", "geometry", "pair", {"payload.depth": [6]}, 2,
         "error: payload.depth: expected a number"),
    _row("g-overlap", "geometry", "pair", {"payload.regions.v2": _CONE}, 3,
         "error: regions are not spacelike separated"),
    # toy-net payloads
    _row("t-n-sites-missing", "toynet-demo", "toynet", {"payload.n_sites": _DROP}, 2,
         "error: payload.n_sites is required"),
    _row("t-n-sites-text", "toynet-demo", "toynet", {"payload.n_sites": "8"}, 2,
         "error: payload.n_sites: expected an integer"),
    _row("t-n-sites-small", "toynet-demo", "toynet", {"payload.n_sites": 3}, 2,
         "error: payload.n_sites = 3: the demo builds dense 2^n matrices and takes 4..10 sites"),
    _row("t-gate", "toynet-demo", "toynet", {"payload.gate": "cnot"}, 2,
         'error: payload.gate must be "swap" or "random"'),
    _row("t-n-steps-text", "toynet-demo", "toynet", {"payload.n_steps": "3"}, 2,
         "error: payload.n_steps: expected an integer"),
    _row("t-n-steps-zero", "toynet-demo", "toynet", {"payload.n_steps": 0}, 3,
         "error: payload.n_steps must be >= 1"),
    _row("t-d1-missing", "toynet-demo", "toynet", {"payload.d1": _DROP}, 2,
         "error: payload.d1 is required"),
    _row("t-d2-list", "toynet-demo", "toynet", {"payload.d2": [2, 6, 7]}, 2,
         "error: payload.d2: expected {step, sites}"),
    _row("t-step-missing", "toynet-demo", "toynet", {"payload.d1.step": _DROP}, 2,
         "error: payload.d1.step is required"),
    _row("t-step-float", "toynet-demo", "toynet", {"payload.d1.step": 2.0}, 2,
         "error: payload.d1.step: expected an integer"),
    _row("t-sites-missing", "toynet-demo", "toynet", {"payload.d2.sites": _DROP}, 2,
         "error: payload.d2.sites is required"),
    _row("t-sites-short", "toynet-demo", "toynet", {"payload.d1.sites": [1, 2, 3]}, 2,
         "error: payload.d1.sites: expected [lo, hi]"),
    _row("t-sites-entry", "toynet-demo", "toynet", {"payload.d1.sites": ["1", 2]}, 2,
         "error: payload.d1.sites[0]: expected an integer"),
    _row("t-sites-order", "toynet-demo", "toynet", {"payload.d1.sites": [2, 1]}, 3,
         "error: payload.d1.sites [2, 1] outside the chain of 8"),
    _row("t-sites-range", "toynet-demo", "toynet", {"payload.d2.sites": [6, 8]}, 3,
         "error: payload.d2.sites [6, 8] outside the chain of 8"),
    _row("t-step-horizon", "toynet-demo", "toynet",
         {"payload.n_steps": 2, "payload.d1.step": 3}, 3,
         "error: payload.d1.step 3 outside the built horizon 2"),
    _row("t-state", "toynet-demo", "toynet", {"payload.state": "mixed"}, 2,
         'error: payload.state must be "entangled" or "product"'),
    _row("t-epsilon-text", "toynet-demo", "toynet", {"payload.epsilon": "0.1"}, 2,
         "error: payload.epsilon: expected a number"),
    _row("t-epsilon-range", "toynet-demo", "toynet", {"payload.epsilon": 1}, 3,
         "error: payload.epsilon must lie strictly between 0 and 1"),
    _row("t-budget", "toynet-demo", "toynet", {"payload.budget": "10"}, 2,
         "error: payload.budget: expected an integer"),
    _row("t-axiom-pairs", "toynet-demo", "toynet", {"payload.axiom_pairs": 1.0}, 2,
         "error: payload.axiom_pairs: expected an integer"),
    # lower bounds on the optional counts: a search sized below them never runs
    _row("b-restarts-one", "bell", "bell", {"payload.restarts": 1}, 3,
         "error: payload.restarts must be >= 2"),
    _row("s-restarts-zero", "sample-bell", "bell", {"payload.restarts": 0}, 3,
         "error: payload.restarts must be >= 2"),
    _row("q-count-zero", "find-cc", "quantum", {"payload.count": 0}, 3,
         "error: payload.count must be >= 1"),
    _row("t-budget-negative", "toynet-demo", "toynet", {"payload.budget": -3}, 3,
         "error: payload.budget must be >= 1"),
    _row("t-axiom-pairs-negative", "toynet-demo", "toynet", {"payload.axiom_pairs": -1}, 3,
         "error: payload.axiom_pairs must be >= 0"),
    _row("t-n-steps-cap", "toynet-demo", "toynet", {"payload.n_steps": 1000000000000}, 3,
         "error: payload.n_steps must be <= 25"),
    # each capped field one above its cap
    _row("b-split-cap", "bell", "bell", {"payload.split": [2, 13]}, 3,
         "error: payload.split: 2x13 exceeds the see-saw dimension limit 25"),
    _row("b-restarts-cap", "bell", "bell", {"payload.restarts": 21}, 3,
         "error: payload.restarts must be <= 20"),
    _row("s-restarts-cap", "sample-bell", "bell", {"payload.restarts": 21}, 3,
         "error: payload.restarts must be <= 20"),
    _row("s-n-cap", "sample-bell", "bell", {"payload.n": 1001}, 3,
         "error: payload.n must be <= 1000"),
    _row("s-seesaws-cap", "sample-bell", "bell",
         {"payload.split": [2, 3], "payload.state": _DROP, "payload.n": 31, "payload.restarts": 2}, 3,
         "error: payload.n × payload.restarts = 31 × 2 exceeds the see-saw limit 60 "
         "on a split other than 2x2"),
    _row("q-count-cap", "find-cc", "quantum", {"payload.count": 1001}, 3,
         "error: payload.count must be <= 1000"),
    _row("t-budget-cap", "toynet-demo", "toynet", {"payload.budget": 81}, 3,
         "error: payload.budget must be <= 80"),
    _row("t-axiom-pairs-cap", "toynet-demo", "toynet", {"payload.axiom_pairs": 1001}, 3,
         "error: payload.axiom_pairs must be <= 1000"),
]


@pytest.mark.parametrize("command, base, edits, argv, code, line", _MESSAGE_ROWS)
def test_parse_and_invariant_messages(tmp_path, capsys, command, base, edits, argv, code, line):
    path = tmp_path / "scenario.json"
    if base == "raw":
        path.write_text(edits)
    elif base != "missing":
        path.write_text(json.dumps(_edited(base, edits)))
    assert run_cli(command, "--scenario", str(path), *argv) == code
    first = capsys.readouterr().err.splitlines()[0]
    assert first == line.replace("<path>", str(path)).replace("<known>", _KNOWN)


@pytest.mark.parametrize(
    "command, base, edits, code",
    [
        ("bell", "bell", {"payload.restarts": -1}, 3),
        ("find-cc", "quantum", {"payload.count": -5}, 3),
        ("toynet-demo", "toynet", {"payload.budget": 0}, 3),
        ("toynet-demo", "toynet", {"payload.budget": "10"}, 2),
        ("toynet-demo", "toynet", {"payload.axiom_pairs": "x"}, 2),
    ],
)
def test_counts_are_read_before_any_work(tmp_path, monkeypatch, capsys, command, base, edits, code):
    # a count below its bound used to run no search at all (bell's lone
    # identity start reported the singlet as uncorrelated, exit 0; a zero
    # budget exited 1), and toynet's budget and axiom_pairs were read only
    # after the net, the state and the whole demo had run
    def no_work(*args, **kwargs):
        raise AssertionError("computed before the payload was read")

    for module, name in (
        (cli._bell, "bell_correlation"),
        (cli._cc, "find_strong_cc"),
        (cli._cc, "find_multiple_strong_cc"),
        (cli._toynet, "build_net"),
    ):
        monkeypatch.setattr(module, name, no_work)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_edited(base, edits)))
    assert run_cli(command, "--scenario", str(path)) == code
    (key,) = edits
    assert capsys.readouterr().err.startswith(f"error: {key}")


def test_toynet_demo_at_the_step_cap_finishes(tmp_path, capsys):
    edits = {"payload.n_sites": 10, "payload.n_steps": cli.MAX_STEPS, "payload.axiom_pairs": 100}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_edited("toynet", edits)))
    start = time.perf_counter()
    assert run_cli("toynet-demo", "--scenario", str(path)) == 0
    assert time.perf_counter() - start < 15  # the record sweep kills a run at 30 s
    out = text_lines(capsys.readouterr().out)
    assert {"axioms.n_causality: 100", "axioms.ok: True", "outcome: ok"} <= out


@pytest.mark.parametrize("command", ["analyze", "find-cc"])
@pytest.mark.parametrize("events", [None, True, 0, 1.5, "A", [[0, 1], [1, 2]], []])
def test_non_object_events_are_a_parse_error(tmp_path, capsys, command, events):
    # a list here used to crash with exit 4: 'list' object has no attribute 'items'
    path = tmp_path / "events.json"
    path.write_text(json.dumps(_edited("classical", {"payload.events": events})))
    assert run_cli(command, "--scenario", str(path)) == 2
    assert capsys.readouterr().err == "error: payload.events: expected an object\n"


@pytest.mark.parametrize("name", ["A", "C"])
def test_boolean_atom_indices_are_refused(tmp_path, capsys, name):
    # true used to pass as atom 1
    path = tmp_path / "events.json"
    edits = {"payload.events.C": [0, 3], f"payload.events.{name}": [True, 0]}
    path.write_text(json.dumps(_edited("classical", edits)))
    assert run_cli("analyze", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: payload.events.{name}: expected a list of atom indices\n"


@pytest.mark.parametrize(
    "command, name",
    [
        ("analyze", "four_block_classical_pair.json"),
        ("find-cc", "three_causes_dim9.json"),
        ("genuine-cc", "planted_genuine_dim16.json"),
        ("bell", "bell_singlet.json"),
        ("sample-bell", "product_ensemble.json"),
        ("geometry", "single_double_cone.json"),
        ("classical-audit", "four_atom_incomplete.json"),
        ("toynet-demo", "eight_qubit_chain.json"),
    ],
)
def test_negative_seed_flag_is_a_parse_error(capsys, command, name):
    # it used to crash in SeedSequence (exit 4) or be written into the record
    assert run_cli(command, "--scenario", scenario(name), "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed -1: expected a nonnegative integer\n"


# ---------------------------------------------------------------------------
# internal errors (exit 4)
# ---------------------------------------------------------------------------


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def crash(sc, seed):
        raise RuntimeError("planted fault")

    _, kinds, help_text = cli._COMMANDS["bell"]
    monkeypatch.setitem(cli._COMMANDS, "bell", (crash, kinds, help_text))
    code = run_cli("bell", "--scenario", scenario("bell_singlet.json"))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: RuntimeError: planted fault\n")


# the exit code of each error class ccbench exports, as the errors module states it
_EXPORTED_ERRORS = sorted(
    (name for name, obj in vars(ccbench).items()
     if isinstance(obj, type) and issubclass(obj, ccbench.CCBenchError)),
)
_EXIT_CODES = {"InfeasibleError": 1, "ScenarioParseError": 2, "InternalInconsistencyError": 4}


@pytest.mark.parametrize("name", _EXPORTED_ERRORS)
def test_each_exported_error_exits_with_its_code(monkeypatch, capsys, name):
    cls = getattr(ccbench, name)

    def fail(sc, seed):
        raise cls("planted")

    _, kinds, help_text = cli._COMMANDS["bell"]
    monkeypatch.setitem(cli._COMMANDS, "bell", (fail, kinds, help_text))
    code = run_cli("bell", "--scenario", scenario("bell_singlet.json"))
    assert code == cls.exit_code == _EXIT_CODES.get(name, 3)
    assert capsys.readouterr().err == "error: planted\n"


# ---------------------------------------------------------------------------
# records: determinism and structure
# ---------------------------------------------------------------------------


def test_record_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = run_cli(
            "bell",
            "--scenario",
            scenario("bell_singlet.json"),
            "--format",
            "record",
            "--out",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_record_parses_and_echoes_inputs(tmp_path):
    out = tmp_path / "r.json"
    run_cli(
        "classical-audit",
        "--scenario",
        scenario("four_atom_incomplete.json"),
        "--format",
        "record",
        "--out",
        str(out),
    )
    doc = json.loads(out.read_text())
    assert doc["command"] == "classical-audit"
    assert doc["kind"] == "classical"
    assert doc["inputs"]["weights"] == [0.4, 0.1, 0.1, 0.4]
    assert doc["outcome"] == "ok"
    assert doc["results"]["closed"] is False


def test_seed_flag_overrides_scenario_seed(tmp_path):
    out = tmp_path / "r.json"
    run_cli(
        "bell",
        "--scenario",
        scenario("bell_singlet.json"),
        "--seed",
        "17",
        "--format",
        "record",
        "--out",
        str(out),
    )
    assert json.loads(out.read_text())["seed"] == 17


def _nodes(node, path=""):
    """Every node of a record's results under its text-report path."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, f"{path}[{i}]")


def _as_text(value):
    return format(value, ".10g") if isinstance(value, float) else str(value)


def _is_leaf_shown(path, value, nodes, lines):
    """The leaf's own line, its list's one-line form, or its matrix's line."""
    if path in lines:
        return lines[path] == _as_text(value)
    head = path.rpartition("[")[0]
    if head in lines and isinstance(nodes.get(head), list):
        return lines[head] == "[" + ", ".join(map(_as_text, nodes[head])) + "]"
    matrix = re.fullmatch(r"(.*)\[\d+\]\[\d+\]\[[01]\]", path)
    if matrix is None or matrix[1] not in lines:
        return False
    rows = nodes[matrix[1]]
    return lines[matrix[1]] == f"<{len(rows)}x{len(rows[0])} matrix>"


# every bundled scenario under every command that takes its kind
_TEXT_PAIRS = [
    pytest.param(command, path.name, id=f"{path.stem}-{command}")
    for path in sorted(SCENARIOS.glob("*.json"))
    for command, (_, kinds, _) in cli._COMMANDS.items()
    if json.loads(path.read_text())["kind"] in kinds
]


@pytest.mark.parametrize("command, name", _TEXT_PAIRS)
def test_text_report_shows_every_record_leaf(monkeypatch, capsys, command, name):
    # both formats render one report, so the search runs once
    reports, compute = [], cli.run

    def run_once(*args, **kwargs):
        if not reports:
            reports.append(compute(*args, **kwargs))
        return reports[0]

    monkeypatch.setattr(cli, "run", run_once)
    code = run_cli(command, "--scenario", scenario(name), "--format", "record")
    record = capsys.readouterr()
    assert run_cli(command, "--scenario", scenario(name)) == code
    text = capsys.readouterr()
    assert text.err == record.err
    if not record.out:
        assert code in (2, 3) and text.out == ""
        return
    results = json.loads(record.out)["results"]
    *body, last = text.out.splitlines()
    assert last == f"outcome: {json.loads(record.out)['outcome']}"
    lines = dict(line.split(": ", 1) for line in body)
    assert len(lines) == len(body)
    nodes = dict(_nodes(results))
    for path, value in nodes.items():
        if value in ([], {}):
            assert lines[path] == str(value), path
        elif not isinstance(value, (list, dict)):
            assert _is_leaf_shown(path, value, nodes, lines), path


def test_out_file_suppresses_stdout(tmp_path, capsys):
    out = tmp_path / "r.txt"
    run_cli("bell", "--scenario", scenario("bell_singlet.json"), "--out", str(out))
    assert capsys.readouterr().out == ""
    assert "outcome: ok" in out.read_text()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ccbench", "bell", "--scenario", scenario("bell_singlet.json"), "--format", "record"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("{")


def test_console_script_help():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "ccbench" in scripts
    module, attr = scripts["ccbench"].split(":")
    # The same code pip writes into the generated ccbench launcher.
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    src = str(Path(ccbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ccbench")
    for name in ("analyze", "find-cc", "geometry", "toynet-demo"):
        assert name in proc.stdout


@pytest.mark.skipif(
    shutil.which("ccbench") is None,
    reason="ccbench console script not on PATH (package not installed)",
)
def test_installed_console_script_help():
    proc = subprocess.run(["ccbench", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("analyze", "find-cc", "geometry", "toynet-demo"):
        assert name in proc.stdout
