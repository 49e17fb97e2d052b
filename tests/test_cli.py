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
import subprocess
import sys
from pathlib import Path

import pytest

import ccbench
from ccbench import cli, config
from ccbench.cli import main
from ccbench.errors import ValidationError

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def scenario(name):
    return str(SCENARIOS / name)


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# success paths on the bundled scenarios
# ---------------------------------------------------------------------------


def test_bell_singlet(capsys):
    assert run_cli("bell", "--scenario", scenario("bell_singlet.json")) == 0
    out = capsys.readouterr().out
    assert "1.414213562" in out
    assert "outcome: ok" in out
    assert "correlated beyond the classical bound: True" in out


def test_bell_product_state_reports_no_pair(capsys):
    code = run_cli("bell", "--scenario", scenario("bell_product_state.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "no positively correlated commuting pair" in out
    assert "correlated beyond the classical bound: False" in out


def test_sample_bell_product_ensemble(capsys):
    code = run_cli("sample-bell", "--scenario", scenario("product_ensemble.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "0 of 40 states are bell correlated" in out
    assert "max beta = 1" in out


def test_bell_werner_tol_override_flips_verdict(capsys):
    run_cli("bell", "--scenario", scenario("bell_werner_mixture.json"))
    default = capsys.readouterr().out
    assert "correlated beyond the classical bound: True" in default
    run_cli(
        "bell",
        "--scenario",
        scenario("bell_werner_mixture.json"),
        "--tol-override",
        "bell=0.2",
    )
    loose = capsys.readouterr().out
    assert "correlated beyond the classical bound: False" in loose


def test_find_cc_strong_cause(capsys):
    code = run_cli("find-cc", "--scenario", scenario("strong_cause_dim9.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: ok" in out
    assert "verified" in out


def test_find_cc_three_distinct_causes(capsys):
    code = run_cli("find-cc", "--scenario", scenario("three_causes_dim9.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "3" in out
    assert "outcome: ok" in out


def test_genuine_cc_on_planted_instance(capsys):
    code = run_cli("genuine-cc", "--scenario", scenario("planted_genuine_dim16.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "genuine cause of rank 5 found" in out
    assert "genuine=True verified=True" in out


def test_classical_audit_uncovered_pair(capsys):
    code = run_cli("classical-audit", "--scenario", scenario("four_atom_incomplete.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "common cause closed: False" in out
    assert "A = atoms [0, 1], B = atoms [0, 2]" in out


def test_analyze_classical_events(capsys):
    code = run_cli("analyze", "--scenario", scenario("four_block_classical_pair.json"))
    assert code == 0
    assert "outcome: ok" in capsys.readouterr().out


def test_geometry_slab_instance(capsys):
    code = run_cli("geometry", "--scenario", scenario("separated_double_cones.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "-6.5" in out  # slab floor of the depth-6 construction
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
    out = capsys.readouterr().out
    assert code == 1
    assert "outcome: infeasible" in out
    assert "rank 1" in out


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
        assert f"{n_found} common cause(s) found" in out


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
            config.override("comm_tol", value)
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
