"""Scripted experiments: rule table, agreement scoring, and the runners.

The drift experiments rest on one closed-form fact — the best centered sweep
of step delta over horizon N sits N*delta from its anchor — which is
re-derived here by a dense parameter scan before the runners are trusted.
"""

import json
import math

import numpy as np
import pytest

from shadowlab import (
    EXPERIMENTS,
    ExperimentReport,
    agreement,
    conclusion_from_verdicts,
    evaluate_rule,
    load_expectations,
    run_drift_inverse,
    run_drift_orbital,
    run_drift_weak,
    run_property_gallery,
    run_rotation_dichotomy,
)

DRIFT_RULE = {"kind": "drift-ratio", "fail_at": 2.0, "track_at": 0.5}
MARGIN_RULE = {"kind": "hyperbolic-margin", "track_at": 0.25}
ANCHOR_RULE = {"kind": "anchor-objective", "track_at": 0.95}


# ---------------------------------------------------------------------------
# rule evaluation and agreement scoring
# ---------------------------------------------------------------------------


def test_missing_rule_never_guesses():
    assert evaluate_rule(None, {"delta": 0.01, "eps": 0.1, "N": 25}, {}) == "any"


def test_drift_ratio_rule_thresholds():
    params = {"delta": 0.01, "eps": 0.1, "N": 25}  # ratio 2.5
    assert evaluate_rule(DRIFT_RULE, params, {}) == "fail"
    params = {"delta": 0.002, "eps": 0.1, "N": 25}  # ratio 0.5, boundary tracks
    assert evaluate_rule(DRIFT_RULE, params, {}) == "track"
    params = {"delta": 0.004, "eps": 0.1, "N": 25}  # ratio min(between)
    assert evaluate_rule(DRIFT_RULE, params, {}) == "any"


def test_hyperbolic_margin_rule():
    assert evaluate_rule(MARGIN_RULE, {"delta": 1e-3, "eps": 0.1, "N": 30}, {}) == "track"
    assert evaluate_rule(MARGIN_RULE, {"delta": 0.05, "eps": 0.1, "N": 30}, {}) == "any"


def test_anchor_objective_rule():
    params = {"delta": 0.01, "eps": 0.1, "N": 25}
    assert evaluate_rule(ANCHOR_RULE, params, {"anchor_objective": 0.017}) == "track"
    assert evaluate_rule(ANCHOR_RULE, params, {"anchor_objective": 0.099}) == "any"
    assert evaluate_rule(ANCHOR_RULE, params, {}) == "any"


def test_unknown_rule_kind_raises():
    with pytest.raises(ValueError, match="unknown rule kind"):
        evaluate_rule({"kind": "voodoo"}, {}, {})


def test_agreement_matrix():
    # only the outcome is read: a failed record always carries a certificate
    assert agreement("any", {"outcome": "failed"}) == "match"
    assert agreement("track", {"outcome": "tracked"}) == "match"
    assert agreement("track", {"outcome": "failed"}) == "contradict"
    assert agreement("track", {"outcome": "inconclusive"}) == "contradict"
    assert agreement("fail", {"outcome": "tracked"}) == "contradict"
    assert agreement("fail", {"outcome": "failed"}) == "match"
    assert agreement("fail", {"outcome": "inconclusive", "reason": "grid"}) == "undecided"
    assert agreement("fail", {"outcome": "inconclusive", "reason": "no-lipschitz"}) == "undecided"
    with pytest.raises(ValueError):
        agreement("maybe", {"outcome": "tracked"})


def test_conclusion_fold():
    def entry(expected, record):
        return {"expected": expected, "record": record}

    assert conclusion_from_verdicts([]) == "consistent"
    assert conclusion_from_verdicts([entry("any", {"outcome": "failed"})]) == "consistent"
    assert conclusion_from_verdicts([
        entry("track", {"outcome": "tracked"}),
        entry("fail", {"outcome": "inconclusive"}),
    ]) == "inconclusive"
    assert conclusion_from_verdicts([
        entry("fail", {"outcome": "inconclusive"}),
        entry("track", {"outcome": "failed"}),
    ]) == "inconsistent"


def test_expectation_table_shape():
    table = load_expectations()
    assert table["version"] == 1
    assert set(table["rules"]) == {"drift-inverse", "drift-weak", "drift-orbital",
                                   "rotation-dichotomy", "property-gallery"}
    for rules in table["rules"].values():
        for rule in rules.values():
            assert rule["kind"] in ("drift-ratio", "hyperbolic-margin", "anchor-objective")
    assert load_expectations() is table  # cached


# ---------------------------------------------------------------------------
# the drift bound itself, by dense scan
# ---------------------------------------------------------------------------


def test_centered_sweep_bound_by_parameter_scan():
    """min over the centering c of max_{|k|<=N} |c + k*delta| equals N*delta."""
    delta, N = 0.01, 25
    ks = np.arange(-N, N + 1)
    cs = np.linspace(-0.5, 0.5, 20001)
    vals = np.abs(cs[:, None] + ks[None, :] * delta)
    vals = np.minimum(vals, 1.0 - vals)  # circle distance
    best = float(vals.max(axis=1).min())
    assert best == pytest.approx(N * delta, abs=1e-4)


# ---------------------------------------------------------------------------
# drift experiments
# ---------------------------------------------------------------------------


def test_drift_inverse_default_is_a_certified_failure():
    r = run_drift_inverse()
    assert r.name == "drift-inverse"
    assert r.conclusion == "consistent"
    assert len(r.verdicts) == 1
    e = r.verdicts[0]
    assert set(e) == {"check", "params", "record", "expected", "agreement"}
    assert e["check"] == "inverse"
    assert e["expected"] == "fail"
    assert e["agreement"] == "match"
    assert e["record"]["outcome"] == "failed"
    assert e["record"]["certified"] is True
    assert e["record"]["min_over_grid"] == pytest.approx(0.6533674789121348, rel=1e-12)
    assert r.derived["drift_bound"] == pytest.approx(0.25)
    sep = r.derived["anchor_separation"]
    assert sep["point"] == [0.0, 0.2]
    assert sep["distance"] == pytest.approx(0.2, rel=1e-12)
    assert r.parameters == {"delta": 0.01, "eps": 0.1, "N": 25, "grid": 512, "seed": 0}
    assert r.systems[0]["row"] == "shear"
    assert r.timings == {
        "candidate_evaluations": 2,
        "grid_points": 3679,
        "newton_iterations": 1,
    }


def test_drift_inverse_short_horizon_tracks():
    r = run_drift_inverse(N=5)
    e = r.verdicts[0]
    assert e["expected"] == "track"  # ratio exactly 0.5
    assert e["record"]["outcome"] == "tracked"
    assert e["record"]["achieved"] == pytest.approx(0.09090909090909081, rel=1e-9)
    assert r.conclusion == "consistent"


def test_drift_inverse_middle_ratio_predicts_nothing():
    r = run_drift_inverse(eps=0.2, grid=128)  # ratio 1.25
    e = r.verdicts[0]
    assert e["expected"] == "any"
    assert e["agreement"] == "match"
    assert e["record"]["outcome"] == "failed" and e["record"]["certified"] is True
    assert r.conclusion == "consistent"


def test_drift_inverse_wide_eps_drops_the_separation_record():
    r = run_drift_inverse(N=5, eps=0.3, grid=64)
    assert "anchor_separation" not in r.derived  # 2*eps exceeds the diameter
    assert r.verdicts[0]["record"]["outcome"] == "tracked"


def test_drift_inverse_zero_delta_degenerates_to_the_map_itself():
    r = run_drift_inverse(delta=0.0, N=5, grid=32)
    e = r.verdicts[0]
    assert e["record"]["outcome"] == "tracked"
    assert e["record"]["achieved"] == 0.0
    assert e["expected"] == "track"
    assert r.derived["drift_bound"] == 0.0


@pytest.mark.parametrize("kwargs", [
    {"delta": 0.6}, {"delta": -0.01}, {"eps": 0.0}, {"N": 0}, {"grid": 1},
])
def test_drift_argument_gates(kwargs):
    with pytest.raises(ValueError):
        run_drift_inverse(**kwargs)


def test_drift_weak_fails_certified_and_flips_at_wide_eps():
    r = run_drift_weak()
    e = r.verdicts[0]
    assert e["check"] == "weak"
    assert e["expected"] == "fail"
    assert e["record"]["certified"] is True
    assert (e["record"]["certificate"], e["record"]["functional"]) == ("circle", [1, 0])
    assert e["record"]["min_over_grid"] == 0.25
    assert e["record"]["lipschitz_bound"] == 1.0
    assert r.conclusion == "consistent"
    assert r.systems[0]["row"] == "identity2"

    wide = run_drift_weak(eps=0.3)
    e = wide.verdicts[0]
    assert e["expected"] == "track"
    assert e["record"]["outcome"] == "tracked"
    assert e["record"]["achieved"] == pytest.approx(0.25, rel=1e-12)
    assert e["record"]["note"] == "witness from anchor"
    assert wide.conclusion == "consistent"


def test_drift_orbital_neutral_base_fails():
    r = run_drift_orbital()
    e = r.verdicts[0]
    assert e["check"] == "orbital"
    assert e["record"]["outcome"] == "failed" and e["record"]["certified"] is True
    assert (e["record"]["certificate"], e["record"]["functional"]) == ("circle", [1, 0])
    assert e["record"]["min_over_grid"] == 0.25
    assert r.parameters["base"] == "neutral"
    assert r.conclusion == "consistent"


def test_drift_orbital_cat_base_survives_the_same_drift():
    r = run_drift_orbital(base="cat")
    e = r.verdicts[0]
    assert e["check"] == "orbital@cat"
    assert e["expected"] == "track"
    assert e["record"]["outcome"] == "tracked"
    assert e["record"]["achieved"] == pytest.approx(0.009999999999644626, rel=1e-6)
    assert r.systems[0]["row"] == "cat"
    assert r.conclusion == "consistent"


def test_drift_orbital_rejects_unknown_base():
    with pytest.raises(ValueError, match="base must be"):
        run_drift_orbital(base="torus")


# ---------------------------------------------------------------------------
# rotation dichotomy
# ---------------------------------------------------------------------------


def test_rotation_dichotomy_default():
    r = run_rotation_dichotomy()
    assert [e["check"] for e in r.verdicts] == ["inverse", "orbital"]
    inv, orb = r.verdicts
    assert inv["expected"] == "fail"
    assert inv["record"]["outcome"] == "failed" and inv["record"]["certified"] is True
    assert inv["record"]["min_over_grid"] == pytest.approx(0.2500000000000002, rel=1e-12)
    assert inv["record"]["lipschitz_bound"] == 1.0
    assert orb["expected"] == "track"
    assert orb["record"]["outcome"] == "tracked"
    assert orb["record"]["witness"] == [0.0]  # the anchor itself
    assert orb["record"]["note"] == "witness from anchor"
    assert orb["record"]["achieved"] == pytest.approx(0.017087639996637094, rel=1e-9)
    assert orb["derived"]["anchor_objective"] == pytest.approx(0.017087639996637094, rel=1e-9)
    assert r.derived["anchor_objective"] == orb["derived"]["anchor_objective"]
    assert r.derived["drift_bound"] == pytest.approx(0.25)
    assert r.conclusion == "consistent"


def test_rotation_dichotomy_rejects_short_periods():
    with pytest.raises(ValueError, match="period 2"):
        run_rotation_dichotomy(theta=0.5)
    with pytest.raises(ValueError, match="period 5"):
        run_rotation_dichotomy(theta=0.2)
    with pytest.raises(ValueError, match="theta"):
        run_rotation_dichotomy(theta=1.5)


def test_rotation_dichotomy_is_reproducible():
    assert run_rotation_dichotomy().to_json() == run_rotation_dichotomy().to_json()


# ---------------------------------------------------------------------------
# property gallery
# ---------------------------------------------------------------------------


def test_property_gallery_default_matrix():
    r = run_property_gallery()
    assert r.conclusion == "consistent"
    assert [e["check"] for e in r.verdicts] == [
        "cat:inverse", "cat:weak", "cat:orbital",
        "shear:inverse", "shear:weak", "shear:orbital",
        "rotation:inverse", "rotation:weak", "rotation:orbital",
    ]
    assert [s["row"] for s in r.systems] == ["cat[0]", "shear", "rotation"]
    by_check = {e["check"]: e for e in r.verdicts}

    inv = by_check["cat:inverse"]
    assert inv["record"]["outcome"] == "tracked"
    assert inv["record"]["achieved"] == pytest.approx(0.001229290478633225, rel=1e-9)
    assert inv["params"]["method_seed"] == 100
    # the inverse witness is reused as a seed and satisfies both inclusions
    for key in ("cat:weak", "cat:orbital"):
        e = by_check[key]
        assert e["record"]["outcome"] == "tracked"
        assert e["record"]["note"] == "witness from seed"
        assert e["record"]["witness"] == inv["record"]["witness"]
        assert e["record"]["achieved"] <= inv["record"]["achieved"] + 1e-15

    for key in ("shear:inverse", "shear:weak", "shear:orbital"):
        e = by_check[key]
        assert e["expected"] == "fail"
        assert e["record"]["outcome"] == "failed" and e["record"]["certified"] is True

    assert by_check["rotation:inverse"]["record"]["certified"] is True
    for key in ("rotation:weak", "rotation:orbital"):
        e = by_check[key]
        assert e["record"]["outcome"] == "tracked"
        assert e["derived"]["anchor_objective"] == pytest.approx(0.017087639996637094, rel=1e-9)

    assert r.timings and all(v > 0 for v in r.timings.values())


def test_property_gallery_cat_only_multiple_methods():
    r = run_property_gallery(include=("cat",), n_cat_methods=2, seed=5)
    assert len(r.verdicts) == 6
    assert all(e["record"]["outcome"] == "tracked" for e in r.verdicts)
    assert sorted({e["params"]["method_seed"] for e in r.verdicts}) == [105, 106]
    assert r.conclusion == "consistent"


def test_property_gallery_empty_include():
    r = run_property_gallery(include=())
    assert r.verdicts == [] and r.systems == []
    assert r.conclusion == "consistent"
    assert r.timings == {}


def test_property_gallery_gates():
    with pytest.raises(ValueError, match="unknown gallery row"):
        run_property_gallery(include=("torus",))
    with pytest.raises(ValueError):
        run_property_gallery(n_cat_methods=-1)


# ---------------------------------------------------------------------------
# reports: purity, serialization, dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: run_drift_inverse(N=5, grid=64),
    lambda: run_rotation_dichotomy(),
])
def test_conclusion_is_recomputable_from_the_json(make):
    r = make()
    parsed = json.loads(r.to_json())
    rules = load_expectations()["rules"][parsed["name"]]
    for e in parsed["verdicts"]:
        expected = evaluate_rule(rules.get(e["check"]), e["params"], e.get("derived", {}))
        assert expected == e["expected"]
        assert agreement(expected, e["record"]) == e["agreement"]
    assert conclusion_from_verdicts(parsed["verdicts"]) == parsed["conclusion"]


def test_report_json_is_canonical():
    r = run_drift_inverse(N=5, grid=64)
    assert isinstance(r, ExperimentReport)
    text = r.to_json()
    assert text.endswith("\n")
    assert json.loads(text) == r.to_dict()
    assert text == json.dumps(r.to_dict(), sort_keys=True, indent=2) + "\n"
    assert set(r.to_dict()) == {"name", "parameters", "systems", "verdicts",
                                "derived", "conclusion", "timings"}


def test_reports_identical_across_thread_counts():
    a = run_drift_weak(threads=1)
    b = run_drift_weak(threads=4)
    assert a.to_json() == b.to_json()


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {"drift-inverse", "drift-weak", "drift-orbital",
                                "rotation-dichotomy", "property-gallery"}
