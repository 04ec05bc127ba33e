"""End-to-end tests for the command line interface.

Everything runs in-process through ``cli.main(argv)`` so exit codes and
emitted JSON/CSV can be asserted without spawning subprocesses; the
exceptions check stderr as a fresh interpreter prints it, warnings included.
"""

import inspect
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
    map_from_descriptor,
    method_from_map,
    shear_map,
)
from shadowlab import cli, systems

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
    assert lines[1:] == [
        "-2,0.5,0.8999999999999999",
        "-1,0.9,0.39999999999999997",
        "0,0.2,0.3",
        "1,0.7,0.5",
        "2,0.8999999999999999,0.19999999999999996",
    ]
    assert out.endswith("0.19999999999999996\n")


def test_orbit_out_file_matches_stdout(tmp_path, capsys):
    argv = ["orbit", "--system", "golden", "--x", "0.0", "--N", "3"]
    _, out, _ = run_cli(argv, capsys)
    path = tmp_path / "orbit.csv"
    rc, silent, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert rc == 0
    assert silent == ""
    assert path.read_text() == out


@pytest.mark.parametrize("system, x, shape, expected", [("cat", "0.1", 1, 2), ("golden", "0.1,0.2", 2, 1)])
def test_orbit_wrong_dimension_anchor_is_named(system, x, shape, expected, capsys):
    rc, out, err = run_cli(["orbit", "--system", system, "--x", x, "--N", "3"], capsys)
    assert rc == 2
    assert out == ""
    assert err == f"shadowlab: error: anchor has shape ({shape},), expected ({expected},)\n"


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


@pytest.mark.parametrize("seed", range(4))
def test_check_polished_newton_witness_tracks_on_the_cat(seed, capsys):
    # The solver's point misses eps: the cat stretches its residual near 1e-12
    # over 30 steps each way.  Further Newton steps bring it near roundoff.
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", f"perturb:shear-sin:0.01:{seed}",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "30", "--grid", "64", "--threads", "1"],
        capsys,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["outcome"] == "tracked"
    assert record["note"] == "witness from newton polish"


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
    assert record["min_over_grid"] == 0.6533674789121348


def test_check_inconclusive_exits_four(capsys):
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "shear", "--method", "translate:0.01",
         "--x", "0,0", "--eps", "0.1", "--N", "25", "--grid", "8"],
        capsys,
    )
    assert rc == 4
    record = json.loads(out)
    assert record["outcome"] == "inconclusive"
    assert record["certified"] is False
    assert record["reason"] == "grid"
    assert "grid too coarse" in record["note"]


@pytest.mark.parametrize("prop", ["inverse", "weak", "orbital"])
def test_check_refuses_raw_methods_outside_direct(prop, capsys):
    """A raw method has no driver map, so only a direct check takes it."""
    rc, out, err = run_cli(
        ["check", prop, "--system", "cat", "--method", "random:0.001",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "10", "--grid", "32"],
        capsys,
    )
    assert rc == 2
    assert out == ""
    assert err == (f"shadowlab: error: {prop} checks need a method with a driver map; the raw method "
                   "random(0.001,seed=0) has none, and raw methods serve direct checks only\n")


def test_check_without_a_usable_bound_reads_no_lipschitz_in_strict_json(capsys):
    """An infinite horizon bound is no usable bound: the record omits it and stays strict JSON.

    The driver, the shear-sin perturbation of the cat, is not affine, and at
    N = 40 its bound lip**N is past the cap.
    """
    rc, out, _ = run_cli(
        ["check", "inverse", "--system", "cat", "--method", "perturb:shear-sin:0.001",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "40", "--grid", "8"],
        capsys,
    )
    assert rc == 4
    record = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-standard JSON {name}"))
    assert (record["reason"], record["note"]) == ("no-lipschitz", "no usable Lipschitz bound at this horizon")
    assert "lipschitz_bound" not in record


def test_check_at_a_horizon_whose_cat_powers_pass_1e77_carries_a_finite_bound(tmp_path):
    """At N = 200 the bound, the norm phi**400 of the cat's 200th power, is a finite float.

    The record differs from a no-lipschitz one only in its reason, note and
    bound, and a fresh interpreter prints no RuntimeWarning on the way.
    """
    proc = run_fresh_check(["inverse", "--system", "cat", "--method", "translate:0.001", "--x", "0.2,0.3",
                            "--eps", "0.05", "--N", "200", "--grid", "8"], tmp_path)
    assert proc.returncode == 4 and proc.stderr == ""
    record = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"non-standard JSON {name}"))
    assert (record["reason"], record["note"]) == ("grid", "grid too coarse to certify at this Lipschitz bound")
    assert record["lipschitz_bound"] == pytest.approx(((1 + 5 ** 0.5) / 2) ** 400, rel=1e-9)
    assert (record["min_over_grid"], record["grid_step"]) == (0.65738584442152, 0.1767766952966369)


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
        ["check", "direct", "--system", "cat", "--method", "random:0.001",
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
    "x, message",
    [("0.2,abc", "argument --x: coordinates must be numbers, got '0.2,abc'")],
)
def test_bad_point_exits_two_naming_the_problem(x, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "inverse", "--system", "cat", "--method", "same",
                  "--x", x, "--eps", "0.1", "--N", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "_parse_point" not in err


def test_a_point_with_more_coordinates_than_the_system_exits_two_naming_the_shape(capsys):
    # --x takes any number of coordinates; the system's dimension decides
    rc, out, err = run_cli(["check", "inverse", "--system", "cat", "--method", "same",
                            "--x", "0.2,0.3,0.4", "--eps", "0.1", "--N", "5"], capsys)
    assert (rc, out) == (2, "")
    assert err == "shadowlab: error: anchor has shape (3,), expected (2,)\n"


def _nested_translate(levels: int) -> str:
    """A translate descriptor ``levels`` deep over the shear, written out (json.dumps would recurse)."""
    return ('{"kind": "translate", "delta": 0.01, "base": ' * levels
            + '{"kind": "linear", "matrix": [[1, 0], [1, 1]]}' + "}" * levels)


@pytest.mark.parametrize("flag", ["--system", "--method"])
@pytest.mark.parametrize("levels, got", [(1200, ""), (300, ", got 303")])
def test_an_over_deep_descriptor_exits_two_naming_the_nesting(flag, levels, got, capsys):
    # 1200 levels are deeper than json.loads goes; 300 parse but are refused before any map is built
    argv = ["check", "inverse", "--system", "shear", "--method", "same",
            "--x", "0.2,0.3", "--eps", "0.1", "--N", "3"]
    argv[argv.index(flag) + 1] = _nested_translate(levels)
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "")
    assert err == ("shadowlab: error: JSON descriptor is nested too deeply: "
                   f"at most {systems._DESCRIPTOR_DEPTH} levels of objects and arrays{got}\n")


def test_a_descriptor_at_the_nesting_limit_is_read():
    # a key the linear kind ignores carries the nesting, so the limit is reached without a chain to build
    def shear_with_nesting(depth):
        note = []
        for _ in range(depth - 2):
            note = [note]
        return {"kind": "linear", "matrix": [[1, 0], [1, 1]], "note": note}

    limit = systems._DESCRIPTOR_DEPTH
    assert np.array_equal(map_from_descriptor(shear_with_nesting(limit)).linear_part, [[1, 0], [1, 1]])
    with pytest.raises(ValueError, match=rf"levels of objects and arrays, got {limit + 1}$"):
        map_from_descriptor(shear_with_nesting(limit + 1))


def test_a_translate_chain_past_the_nesting_limit_is_refused_before_any_map_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a map was built")

    monkeypatch.setattr(systems, "make_linear", no_build)
    monkeypatch.setattr(systems, "make_translation_method_map", no_build)
    d = json.loads(_nested_translate(systems._DESCRIPTOR_DEPTH - 2))  # the matrix adds three levels
    with pytest.raises(ValueError, match=rf", got {systems._DESCRIPTOR_DEPTH + 1}$"):
        map_from_descriptor(d)


# --- the 3-torus -------------------------------------------------------------

# The companion matrix of x^3 - x - 1: hyperbolic, det 1, rows with at most two nonzero entries.
COMPANION = "linear:0,1,0,0,0,1,1,1,0"


def test_a_hyperbolic_3x3_with_a_sine_shear_method_tracks_with_the_newton_witness(capsys):
    rc, out, _ = run_cli(["check", "inverse", "--system", COMPANION, "--method", "perturb:shear-sin:0.001",
                          "--x", "0.2,0.3,0.4", "--eps", "0.1", "--N", "30"], capsys)
    record = json.loads(out)
    assert rc == 0
    assert record["outcome"] == "tracked"
    assert record["note"] == "witness from newton solver"
    assert len(record["witness"]) == 3


@pytest.mark.parametrize("prop", ["weak", "orbital"])
def test_a_drift_on_the_3_torus_identity_is_certified(prop, capsys):
    rc, out, _ = run_cli(["check", prop, "--system", "linear:1,0,0,0,1,0,0,0,1", "--method", "translate:0.01",
                          "--x", "0,0,0", "--eps", "0.1", "--N", "25", "--grid", "32"], capsys)
    record = json.loads(out)
    assert rc == 3
    assert record["outcome"] == "failed" and record["certified"] is True
    assert record["note"] == "covering certificate holds"


_ID_X_CAT = ["--system", "linear:1,0,0,0,2,1,0,1,1", "--method", "translate:0.01",
             "--x", "0.2,0.3,0.4", "--eps", "0.1", "--N", "25", "--grid", "32"]


@pytest.mark.parametrize("prop", ["weak", "orbital"])
def test_a_drift_of_id_x_cat_is_certified_on_its_circle_factor(prop, capsys):
    """The neutral first axis of id x cat on the 3-torus carries the drift: w = (1, 0, 0)."""
    rc, out, _ = run_cli(["check", prop, *_ID_X_CAT, "--timings"], capsys)
    record = json.loads(out)
    assert rc == 3
    assert (record["outcome"], record["certificate"], record["functional"]) == ("failed", "circle", [1, 0, 0])
    assert (record["min_over_grid"], record["grid_step"], record["lipschitz_bound"]) == (0.45, 0.5, 1.0)
    assert record["timings"]["grid_points"] == 2


def test_an_inverse_check_of_id_x_cat_stays_inconclusive():
    """Pointwise checks take no circle covering yet, so the torus covering's grid is too coarse."""
    f = cli.parse_system_spec(_ID_X_CAT[1])
    m = cli.parse_method_spec(_ID_X_CAT[3], f, 25, 0)
    v = cli._CHECKERS["inverse"](f, m, (0.2, 0.3, 0.4), 0.1, 25, grid_step=1 / 32, threads=2)
    assert (v.outcome, v.reason, v.certificate) == ("inconclusive", "grid", None)
    assert cli.main(["check", "inverse", *_ID_X_CAT, "--out", os.devnull]) == 4


@pytest.mark.parametrize("spec, message", [
    ("linear:1,0,0,0,1,0,0,0,2", "|det| must be 1 for an invertible torus map, got det = 2"),
    ("linear:1,0,0,0,1", "linear spec needs n*n integers, row by row, got 5"),
    ("linear:1,2,3,4,5,6,7,8,9", "|det| must be 1 for an invertible torus map, got det = 0"),
])
def test_a_linear_spec_that_is_not_unimodular_or_not_square_exits_two(spec, message, capsys):
    rc, out, err = run_cli(["check", "inverse", "--system", spec, "--method", "same",
                            "--x", "0,0,0", "--eps", "0.1", "--N", "5"], capsys)
    assert (rc, out) == (2, "")
    assert err == f"shadowlab: error: {message}\n"


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
        ["check", "weak", "--system", "cat", "--method", "same",
         "--x", "nan,0.3", "--eps", "0.1", "--N", "5"],
        ["check", "inverse", "--system", "shear", "--method", "translate:0.01",
         "--x", "0.2,0.3", "--eps", "0.1", "--N", "25", "--grid", "1000001"],
    ],
)
def test_spec_errors_exit_two_with_message(argv, capsys):
    rc, _, err = run_cli(argv, capsys)
    assert rc == 2
    assert err.startswith("shadowlab: error:")


@pytest.mark.parametrize("eps, code", [("0.5", 0), ("0.1", 2)])
def test_a_grid_past_the_cap_is_refused_only_when_the_covering_would_walk_it(eps, code, capsys):
    """At eps 0.5 a candidate tracks and the grid is never looked at; at 0.1 the covering refuses it."""
    rc, out, err = run_cli(["check", "inverse", "--system", "shear", "--method", "translate:0.01",
                            "--x", "0.2,0.3", "--eps", eps, "--N", "25", "--grid", "1000001"], capsys)
    assert rc == code
    if code == 0:
        rec = json.loads(out)
        assert rec["outcome"] == "tracked" and "grid" not in rec["note"]
    else:
        assert err.startswith("shadowlab: error: grid 1000001 per axis is too fine")


def run_fresh_check(args, cwd):
    """``shadowlab check ARGS`` in a fresh interpreter, so numpy warnings reach stderr as a user sees them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "shadowlab.cli", "check", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "maps",
    [["--system", "rotation:inf", "--method", "same"],
     ["--system", "rotation:0.3", "--method", "rotation:+inf"]],
    ids=["system", "method"],
)
def test_non_finite_rotation_prints_only_the_error_line(maps, tmp_path):
    proc = run_fresh_check(["inverse", *maps, "--x", "0", "--eps", "0.1", "--N", "5"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "shadowlab: error: theta must be finite, got inf\n"


@pytest.mark.parametrize("x, shown", [("inf,0.3", "[inf, 0.3]"), ("0.2,-inf", "[0.2, -inf]"),
                                      ("nan,0.3", "[nan, 0.3]")])
def test_non_finite_point_prints_only_the_error_line(x, shown, tmp_path):
    proc = run_fresh_check(["weak", "--system", "cat", "--method", "same", "--x", x,
                            "--eps", "0.1", "--N", "5"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"shadowlab: error: anchor coordinates must be finite, got {shown}\n"


@pytest.mark.parametrize("form", ["spec", "descriptor"])
@pytest.mark.parametrize("entry, shown", [(2**63, "9223372036854775808"),
                                          (-2**63 - 1, "-9223372036854775809"),
                                          (1e19, "1e+19")])
def test_matrix_entry_beyond_int64_prints_only_the_error_line(form, entry, shown, tmp_path):
    if form == "spec":
        system, shown = f"linear:{int(entry)},1,1,0", str(int(entry))
    else:
        system = json.dumps({"kind": "linear", "matrix": [[entry, 1], [1, 0]]})
    proc = run_fresh_check(["inverse", "--system", system, "--method", "same", "--x", "0.2,0.3",
                            "--eps", "0.1", "--N", "5"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"shadowlab: error: matrix entry {shown} does not fit a 64-bit integer\n"


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


@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_every_runner_keyword_has_an_override_flag(name):
    # cmd_experiment validates overrides against the runner's signature, so a
    # keyword without a flag, or a runner taking *args or **kwargs, escapes it.
    flags = cli.build_parser().parse_args(["experiment", name]).override_flags
    params = inspect.signature(cli.EXPERIMENTS[name]).parameters.values()
    assert not {p.kind for p in params} & {inspect.Parameter.VAR_POSITIONAL,
                                           inspect.Parameter.VAR_KEYWORD}
    assert {p.name for p in params} - {"threads", "seed"} <= set(flags)


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


@pytest.mark.parametrize("delta", ["0.007", "0.01", "0.015"])
def test_gallery_cat_row_with_four_methods_is_consistent(delta, capsys):
    rc, out, _ = run_cli(["experiment", "property-gallery", "--include", "cat",
                          "--n-methods", "4", "--delta", delta, "--threads", "1"], capsys)
    assert rc == 0
    assert json.loads(out)["conclusion"] == "consistent"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            rc, out, _ = run_cli(["experiment", "property-gallery", "--include", ""], capsys)
            assert rc == 0 and json.loads(out)["verdicts"] == []
    finally:
        cli._parser.cache_clear()
    assert built == [1]


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
