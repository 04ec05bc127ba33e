"""End-to-end tests for the command line interface.

Everything runs in-process through ``cli.main(argv)`` so exit codes and
emitted JSON/CSV can be asserted without spawning subprocesses; the one
exception checks stderr as a fresh interpreter prints it, warnings included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shadowlab import (
    GOLDEN_ROTATION,
    cat_map,
    make_conservative_perturbation,
    make_translation_method_map,
    method_from_map,
    shear_map,
)
from shadowlab import cli

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- system spec parsing ---------------------------------------------------


@pytest.mark.parametrize(
    "spec, dim",
    [("cat", 2), ("shear", 2), ("identity2", 2), ("identity1", 1), ("golden", 1)],
)
def test_parse_system_spec_named_forms(spec, dim):
    f = cli.parse_system_spec(spec)
    assert f.dim == dim


def test_parse_system_spec_golden_angle():
    f = cli.parse_system_spec("golden")
    assert f.descriptor["kind"] == "rotation"
    assert f.descriptor["theta"] == GOLDEN_ROTATION


def test_parse_system_spec_rotation_angle():
    f = cli.parse_system_spec("rotation:0.25")
    assert f.dim == 1
    assert f.descriptor["theta"] == 0.25


def test_parse_system_spec_linear_matrix():
    f = cli.parse_system_spec("linear:2,1,1,1")
    assert np.array_equal(f.linear_part, cat_map().linear_part)
    with pytest.raises(ValueError):
        cli.parse_system_spec("linear:2,1,1")


def test_parse_system_spec_json_descriptor_roundtrip():
    f = cli.parse_system_spec(json.dumps(cat_map().descriptor))
    assert f.descriptor == cat_map().descriptor


def test_parse_system_spec_rejects_unknown():
    with pytest.raises(ValueError, match="unknown system spec"):
        cli.parse_system_spec("nosuch")


# --- method spec parsing ---------------------------------------------------


def test_parse_method_spec_same():
    f = cat_map()
    m = cli.parse_method_spec("same", f, 10, 0)
    assert m.kind == "induced"
    assert m.horizon == 10
    assert m.delta >= 0.0


def test_parse_method_spec_translate_matches_direct_construction():
    f = shear_map()
    m = cli.parse_method_spec("translate:0.01", f, 25, 0)
    direct = method_from_map(f, make_translation_method_map(f, 0.01), 25)
    assert m.label == direct.label
    assert m.delta == direct.delta


def test_parse_method_spec_relative_rotation_adds_to_system_angle():
    f = cli.parse_system_spec("golden")
    rel = cli.parse_method_spec("rotation:+0.01", f, 25, 0)
    absolute = cli.parse_method_spec(f"rotation:{GOLDEN_ROTATION + 0.01!r}", f, 25, 0)
    assert rel.label == absolute.label
    assert rel.delta == absolute.delta
    # measured displacement 0.01 plus the usual 5% headroom
    assert rel.delta == pytest.approx(0.0105, rel=1e-9)


def test_parse_method_spec_relative_rotation_needs_rotation_system():
    with pytest.raises(ValueError, match="relative rotation"):
        cli.parse_method_spec("rotation:+0.01", cat_map(), 10, 0)


def test_parse_method_spec_rotation_needs_circle():
    with pytest.raises(ValueError, match="circle only"):
        cli.parse_method_spec("rotation:0.3", cat_map(), 10, 0)


def test_parse_method_spec_perturb_matches_direct_construction():
    f = cat_map()
    m = cli.parse_method_spec("perturb:shear-sin:0.001:7", f, 10, 0)
    direct = method_from_map(f, make_conservative_perturbation(f, 0.001, "shear-sin", seed=7), 10)
    assert m.kind == "induced"
    assert m.label == direct.label
    assert m.delta == direct.delta


def test_parse_method_spec_perturb_seed_defaults_to_run_seed():
    f = cat_map()
    implicit = cli.parse_method_spec("perturb:translation:0.001", f, 10, 9)
    explicit = cli.parse_method_spec("perturb:translation:0.001:9", f, 10, 0)
    assert implicit.label == explicit.label
    assert implicit.delta == explicit.delta


def test_parse_method_spec_perturb_malformed():
    with pytest.raises(ValueError, match="perturb spec is"):
        cli.parse_method_spec("perturb:0.001", cat_map(), 10, 0)


def test_parse_method_spec_random():
    f = cat_map()
    m = cli.parse_method_spec("random:0.001:3", f, 10, 0)
    assert m.kind == "raw"
    assert m.label == "random(0.001,seed=3)"
    # SEED omitted: the run seed fills in.
    assert cli.parse_method_spec("random:0.001", f, 10, 5).label == "random(0.001,seed=5)"


def test_parse_method_spec_rejects_unknown():
    with pytest.raises(ValueError, match="unknown method spec"):
        cli.parse_method_spec("nosuch:1", cat_map(), 10, 0)


# --- orbit command ---------------------------------------------------------

GOLDEN_CSV_CELLS = [
    "0.1458980337503153",
    "0.7639320225002102",
    "0.3819660112501051",
    "0.0",
    "0.6180339887498949",
    "0.2360679774997898",
    "0.8541019662496847",
]


def test_orbit_emits_circle_csv(capsys):
    rc, out, _ = run_cli(["orbit", "--system", "golden", "--x", "0.0", "--N", "3"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,coord_0"
    assert lines[1:] == [f"{k},{cell}" for k, cell in zip(range(-3, 4), GOLDEN_CSV_CELLS)]


def test_orbit_torus_header_and_anchor_row(capsys):
    rc, out, _ = run_cli(["orbit", "--system", "cat", "--x", "0.2,0.3", "--N", "2"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,coord_0,coord_1"
    assert len(lines) == 1 + 5
    assert lines[3] == "0,0.2,0.3"


def test_orbit_out_file_matches_stdout(tmp_path, capsys):
    argv = ["orbit", "--system", "golden", "--x", "0.0", "--N", "3"]
    _, out, _ = run_cli(argv, capsys)
    path = tmp_path / "orbit.csv"
    rc, silent, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert rc == 0
    assert silent == ""
    assert path.read_text() == out


# --- check command ---------------------------------------------------------


def test_check_tracked_exits_zero(capsys):
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10"],
        capsys,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["outcome"] == "tracked"
    assert record["achieved"] == 0.0
    assert record["seed"] == 0
    assert record["property"] == "inverse"
    assert record["x"] == [0.2, 0.3]
    assert "timings" not in record


def test_check_certified_failure_exits_three(capsys):
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "shear", "--method", "translate:0.01",
         "--x", "0,0", "--eps", "0.1", "--N", "25", "--grid", "64"],
        capsys,
    )
    assert rc == 3
    record = json.loads(out)
    assert record["outcome"] == "failed"
    assert record["certified"] is True
    assert record["min_over_grid"] == 0.47783120058237916


def test_check_inconclusive_exits_four(capsys):
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "shear", "--method", "translate:0.01",
         "--x", "0,0", "--eps", "0.1", "--N", "25", "--grid", "8"],
        capsys,
    )
    assert rc == 4
    record = json.loads(out)
    assert record["certified"] is False
    assert "grid too coarse" in record["note"]


def test_check_raw_method_failure_is_uncertified(capsys):
    """Raw methods carry no Lipschitz data, so a grid miss cannot certify."""
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "random:0.001",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10", "--grid", "32"],
        capsys,
    )
    assert rc == 4
    record = json.loads(out)
    assert record["certified"] is False
    assert record["min_over_grid"] == 0.5207696520081438
    assert record["note"] == "no usable Lipschitz bound at this horizon"


def test_check_circle_orbital_tracked(capsys):
    rc, out, _ = run_cli(
        ["check", "orbital", "--system", "golden", "--method", "rotation:+0.01",
         "--x", "0.0", "--eps", "0.1", "--N", "25"],
        capsys,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["witness"] == [0.0]
    assert record["achieved"] == 0.017087639996637094
    assert record["note"] == "witness from anchor"


def test_check_timings_flag(capsys):
    rc, out, err = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10", "--timings"],
        capsys,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["timings"] == {"candidate_evaluations": 1}
    assert "wall seconds:" in err


def test_check_out_file(tmp_path, capsys):
    path = tmp_path / "verdict.json"
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10", "--out", str(path)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["outcome"] == "tracked"


def test_check_json_is_canonical(capsys):
    _, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10"],
        capsys,
    )
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_check_thread_count_does_not_change_output(capsys):
    argv = ["check", "inverse", "--system", "shear", "--method", "translate:0.01",
            "--x", "0,0", "--eps", "0.1", "--N", "25", "--grid", "64"]
    _, one, _ = run_cli(argv + ["--threads", "1"], capsys)
    _, four, _ = run_cli(argv + ["--threads", "4"], capsys)
    assert one == four


def test_check_seed_flows_into_random_method(capsys):
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "random:0.001",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "3", "--grid", "24", "--seed", "5"],
        capsys,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["method"] == "random(0.001,seed=5)"
    assert record["seed"] == 5


# --- usage and spec errors -------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "inverse", "--system", "cat", "--method", "same"],  # missing --x
        ["check", "sideways", "--system", "cat", "--method", "same", "--x", "0,0"],
        ["experiment", "nosuch-experiment"],
        ["orbit", "--system", "cat", "--x", "0.2,0.3", "--N", "notanint"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "inverse", "--system", "nosuch", "--method", "same",
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "{not json", "--method", "same",
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "nosuch:1",
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "rotation:+0.01",
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0,0", "--eps", "0.1", "--N", "5", "--grid", "0"],
        ["check", "inverse", "--system", '{"kind":"linear"}', "--method", "same",
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "golden", "--method", '{"kind":"rotation"}',
         "--x", "0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", '{"kind":"translate","delta":0.01}',
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0,0", "--eps", "nan", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0,0", "--eps", "inf", "--N", "5"],
        ["check", "inverse", "--system", "golden", "--method", "perturb:translation:inf",
         "--x", "0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "perturb:shear-sin:nan",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", "random:nan",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "golden", "--method", "rotation:+inf",
         "--x", "0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", '{"kind":"rotation","theta":null}', "--method", "same",
         "--x", "0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method", '{"kind":"translate","delta":0.01,"base":5}',
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "cat", "--method",
         '{"kind":"perturbation","mode":"shear-sin","delta":0.001,"seed":"x",'
         '"base":{"kind":"linear","matrix":[[2,1],[1,1]]}}',
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "identity2", "--method",
         '{"kind":"translate-block","delta":0.01,"block":null}',
         "--x", "0,0", "--eps", "0.1", "--N", "5"],
    ],
)
def test_spec_errors_exit_two_with_message(argv, capsys):
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert err.startswith("shadowlab: error:")


@pytest.mark.parametrize(
    "maps",
    [["--system", "rotation:inf", "--method", "same"],
     ["--system", "rotation:0.3", "--method", "rotation:+inf"]],
    ids=["system", "method"],
)
def test_non_finite_rotation_prints_only_the_error_line(maps, tmp_path):
    # a fresh interpreter, so that numpy warnings reach stderr as a user sees them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "shadowlab.cli", "check", "inverse", *maps,
         "--x", "0", "--eps", "0.1", "--N", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "shadowlab: error: theta must be finite, got inf\n"


@pytest.mark.parametrize("flag", ["--theta", "--n-methods"])
def test_experiment_rejects_unknown_override(flag, capsys):
    rc, _, err = run_cli(["experiment", "drift-inverse", flag, "2"], capsys)
    assert rc == 2
    assert f"does not take {flag}\n" in err


def test_rotation_dichotomy_rejects_low_period_angle(capsys):
    rc, _, err = run_cli(["experiment", "rotation-dichotomy", "--theta", "0.5"], capsys)
    assert rc == 2
    assert "period 2" in err


def test_unwritable_out_path_exits_two(capsys):
    rc, _, err = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "same",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10",
         "--out", "/nonexistent-dir/verdict.json"],
        capsys,
    )
    assert rc == 2
    assert err.startswith("shadowlab: error:")


# --- experiment command ----------------------------------------------------


def test_experiment_consistent_exits_zero(capsys):
    rc, out, _ = run_cli(["experiment", "rotation-dichotomy"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["name"] == "rotation-dichotomy"
    assert payload["conclusion"] == "consistent"
    assert payload["parameters"]["seed"] == 0


def test_experiment_overrides_are_forwarded(capsys):
    rc, out, _ = run_cli(["experiment", "drift-inverse", "--N", "5", "--grid", "64"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["parameters"]["N"] == 5
    assert payload["parameters"]["grid"] == 64
    assert payload["conclusion"] == "consistent"


def test_experiment_inconclusive_exits_four(capsys):
    rc, out, _ = run_cli(["experiment", "drift-inverse", "--grid", "8"], capsys)
    assert rc == 4
    assert json.loads(out)["conclusion"] == "inconclusive"


def test_experiment_inconsistent_exits_five(monkeypatch, capsys):
    from shadowlab.experiments import ExperimentReport

    def fake_runner(*, seed=0, threads=None):
        return ExperimentReport(
            name="drift-weak", parameters={}, systems=[], verdicts=[],
            derived={}, conclusion="inconsistent",
        )

    monkeypatch.setitem(cli.EXPERIMENTS, "drift-weak", fake_runner)
    rc, out, _ = run_cli(["experiment", "drift-weak"], capsys)
    assert rc == 5
    assert json.loads(out)["conclusion"] == "inconsistent"


def test_experiment_empty_include_runs_nothing(capsys):
    rc, out, _ = run_cli(["experiment", "property-gallery", "--include", ""], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdicts"] == []
    assert payload["systems"] == []


def test_experiment_timings_go_to_stderr(capsys):
    rc, out, err = run_cli(["experiment", "rotation-dichotomy", "--timings"], capsys)
    assert rc == 0
    assert "wall seconds:" in err
    json.loads(out)
