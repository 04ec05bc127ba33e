"""Scripted experiments: tracking verdicts measured against closed-form expectations.

Each experiment builds a base system and a method, runs a fixed battery of
checks, and scores every verdict against a static rule table shipped as
package data (``expectations.json``).  The rules only ever commit where a
closed-form argument applies:

* ``drift-ratio`` -- on a drift construction the best tracking error at the
  anchor's fixed point is exactly N*delta, so the ratio N*delta/eps decides
  the outcome once it is comfortably above or below 1.
* ``hyperbolic-margin`` -- a hyperbolic base tracks any sufficiently small
  perturbation; the rule commits when delta is well inside eps.
* ``anchor-objective`` -- for set-inclusion properties the recorded objective
  at the anchor itself already decides success.

Anything in between is "any": no prediction, every outcome matches.  An
expected failure is confirmed by a failed verdict, which always carries a
covering certificate, and left undecided by an inconclusive one.  The
conclusion is a pure fold of the per-check agreements, recomputable from JSON.

Reports are JSON-stable: keys are emitted sorted, and the ``timings`` section
holds deterministic work counters rather than wall-clock times, so a report is
byte-identical across runs and thread counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from importlib import resources

from .geometry import TorusPoint, torus_dist
from .orbits import MethodSpec, method_from_map, orbit_segment
from .shadowing import (
    check_inverse_shadowing,
    check_orbital_inverse,
    check_weak_inverse,
    orbital_objective,
    weak_objective,
)
from .systems import (
    GOLDEN_ROTATION,
    SystemMap,
    cat_map,
    make_conservative_perturbation,
    make_rotation,
    make_translation_method_map,
    map_to_descriptor,
    shear_map,
    torus_identity,
)

__all__ = [
    "ExperimentReport",
    "load_expectations",
    "evaluate_rule",
    "agreement",
    "conclusion_from_verdicts",
    "run_drift_inverse",
    "run_drift_weak",
    "run_drift_orbital",
    "run_rotation_dichotomy",
    "run_property_gallery",
    "EXPERIMENTS",
]


# ---------------------------------------------------------------------------
# Expectation rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def load_expectations() -> dict:
    """The versioned rule table shipped with the package."""
    text = resources.files("shadowlab").joinpath("expectations.json").read_text("utf-8")
    table = json.loads(text)
    if table.get("version") != 1:
        raise ValueError(f"unsupported expectation table version {table.get('version')!r}")
    return table


def evaluate_rule(rule: dict | None, params: dict, derived: dict) -> str:
    """Expected outcome under ``rule``: "fail", "track", or "any".

    ``params`` must carry delta/eps/N for the ratio rules; ``derived`` carries
    the recorded anchor objective where the rule needs one.  A missing rule or
    missing input never guesses: it returns "any".
    """
    if rule is None:
        return "any"
    kind = rule["kind"]
    if kind == "drift-ratio":
        ratio = params["N"] * params["delta"] / params["eps"]
        if ratio >= rule["fail_at"]:
            return "fail"
        if ratio <= rule["track_at"]:
            return "track"
        return "any"
    if kind == "hyperbolic-margin":
        return "track" if params["delta"] <= rule["track_at"] * params["eps"] else "any"
    if kind == "anchor-objective":
        anchor = derived.get("anchor_objective")
        if anchor is None:
            return "any"
        return "track" if anchor < rule["track_at"] * params["eps"] else "any"
    raise ValueError(f"unknown rule kind {kind!r}")


def agreement(expected: str, record: dict) -> str:
    """Score one verdict record against its expectation, from its outcome alone.

    "track" is contradicted by anything not tracked.  "fail" is matched by a
    failed verdict (always a proof), contradicted by a tracked one and left
    "undecided" by an inconclusive one.
    """
    outcome = record["outcome"]
    if expected == "any":
        return "match"
    if expected == "track":
        return "match" if outcome == "tracked" else "contradict"
    if expected == "fail":
        return {"failed": "match", "tracked": "contradict", "inconclusive": "undecided"}[outcome]
    raise ValueError(f"unknown expectation {expected!r}")


def conclusion_from_verdicts(entries) -> str:
    """Fold the per-check agreements; recomputable from a report's JSON alone."""
    scores = [agreement(e["expected"], e["record"]) for e in entries]
    if "contradict" in scores:
        return "inconsistent"
    if "undecided" in scores:
        return "inconclusive"
    return "consistent"


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's inputs, verdicts, agreement scores, and conclusion."""

    name: str
    parameters: dict
    systems: list
    verdicts: list
    derived: dict
    conclusion: str
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, two-space indent, trailing newline."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _row(rowname: str, f: SystemMap, m: MethodSpec) -> dict:
    # every experiment method is induced by a map, its source
    method = {"kind": m.kind, "delta": m.delta, "label": m.label,
              "source": map_to_descriptor(m.source)}
    return {"row": rowname, "system": map_to_descriptor(f), "method": method}


def _entry(experiment: str, check: str, params: dict, verdict, derived: dict | None = None) -> dict:
    rule = load_expectations()["rules"].get(experiment, {}).get(check)
    record = verdict.to_record()
    derived = dict(derived or {})
    expected = evaluate_rule(rule, params, derived)
    entry = {
        "check": check,
        "params": params,
        "record": record,
        "expected": expected,
        "agreement": agreement(expected, record),
    }
    if derived:
        entry["derived"] = derived
    return entry


def _report(name: str, parameters: dict, systems: list, entries: list,
            derived: dict, counters: dict) -> ExperimentReport:
    return ExperimentReport(
        name=name,
        parameters=parameters,
        systems=systems,
        verdicts=entries,
        derived=derived,
        conclusion=conclusion_from_verdicts(entries),
        timings={k: counters[k] for k in sorted(counters)},
    )


def _check_drift_args(delta: float, eps: float, N: int, grid: int) -> None:
    if not (0.0 <= delta < 0.5):
        raise ValueError(f"delta must lie in [0, 1/2), got {delta}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if N < 1:
        raise ValueError("N must be at least 1")
    if grid < 2:
        raise ValueError("grid must be at least 2")


def _drift_method(base: SystemMap, delta: float, N: int) -> MethodSpec:
    """Induced method stepping by base-then-translate; base itself when delta = 0.

    On a rotation by theta the step is built as the rotation by theta + delta.
    """
    if delta == 0.0:
        g = base
    elif base.descriptor.get("kind") == "rotation":
        g = make_rotation(base.descriptor["theta"] + delta)
    else:
        g = make_translation_method_map(base, delta)
    return method_from_map(base, g, N)


def _scored_check(entries: list, experiment: str, f: SystemMap, m: MethodSpec, x, eps: float,
                  N: int, grid: int, params: dict, threads, counters: dict,
                  key: str, checker, seeds=(), anchor: bool = False):
    """Run ``checker`` on one row, append its scored entry ``key``; return the verdict.

    With ``anchor`` the entry also records the set objective at x itself.
    """
    derived = None
    if anchor:
        objective = {check_weak_inverse: weak_objective, check_orbital_inverse: orbital_objective}[checker]
        targets = orbit_segment(f, x, N).as_array()
        derived = {"anchor_objective": objective(m.source, targets, x, N)}
    v = checker(f, m, x, eps, N, grid_step=1.0 / grid, seeds=seeds,
                threads=threads, counters=counters)
    entries.append(_entry(experiment, key, params, v, derived))
    return v


# ---------------------------------------------------------------------------
# Drift experiments
# ---------------------------------------------------------------------------

def _run_drift(name: str, key: str, checker, f: SystemMap, x, delta: float, eps: float,
               N: int, grid: int, threads, parameters: dict, derived: dict) -> ExperimentReport:
    """One drift check of ``f`` at the anchor x; the row is named after f."""
    m = _drift_method(f, delta, N)
    params = {"delta": delta, "eps": eps, "N": N}
    counters: dict = {}
    entries: list = []
    _scored_check(entries, name, f, m, x, eps, N, grid, params, threads, counters, key, checker)
    return _report(name, {**params, "grid": grid, **parameters}, [_row(f.label, f, m)],
                   entries, derived, counters)


def run_drift_inverse(delta: float = 0.01, eps: float = 0.1, N: int = 25,
                      grid: int = 512, threads: int | None = None,
                      seed: int = 0) -> ExperimentReport:
    """Shear base with a translated step: inverse tracking against the drift bound.

    The anchor (0, 0) is fixed by the shear, but every method orbit sweeps the
    first coordinate by delta per step, so the best index-matched tracking
    error over the horizon is at least N*delta.  With the default parameters
    that bound is 2.5 * eps and the failure is certificate-grade; shrink N or
    delta (ratio at or below one half) and the check flips to tracked.
    """
    _check_drift_args(delta, eps, N, grid)
    derived: dict = {"drift_bound": N * delta}
    if 2.0 * eps <= 0.5:
        # Two anchors 2*eps apart cannot share a single eps-tracking point, the
        # elementary half of the counterexample; record the separation used.
        mate = TorusPoint((0.0, 2.0 * eps))
        derived["anchor_separation"] = {
            "point": [float(c) for c in mate.coords],
            "distance": torus_dist(TorusPoint((0.0, 0.0)), mate),
        }
    return _run_drift("drift-inverse", "inverse", check_inverse_shadowing, shear_map(), (0.0, 0.0),
                      delta, eps, N, grid, threads, {"seed": seed}, derived)


def run_drift_weak(delta: float = 0.01, eps: float = 0.1, N: int = 25,
                   grid: int = 512, threads: int | None = None,
                   seed: int = 0) -> ExperimentReport:
    """Identity base with a translated step: even set-inclusion tracking drifts away.

    The true orbit of the anchor is the single point (0, 0), while every
    method orbit is an arithmetic sweep of step delta; its largest distance
    from that point is minimized by centering, at exactly N*delta.  The weak
    check therefore fails with a certificate once N*delta is past eps and
    tracks once it is below.
    """
    _check_drift_args(delta, eps, N, grid)
    return _run_drift("drift-weak", "weak", check_weak_inverse, torus_identity(), (0.0, 0.0),
                      delta, eps, N, grid, threads, {"seed": seed}, {"drift_bound": N * delta})


def run_drift_orbital(delta: float = 0.01, eps: float = 0.1, N: int = 25,
                      grid: int = 512, threads: int | None = None,
                      seed: int = 0, base: str = "neutral") -> ExperimentReport:
    """Orbital inclusion under drift: fails on a neutral base, survives on a hyperbolic one.

    base "neutral" is the identity construction of :func:`run_drift_weak`; the
    orbital objective coincides with the weak one there and fails at the same
    N*delta bound.  base "cat" runs the identical translation drift on top of
    the cat map, where the Newton solver produces a tracking point and
    the check comes back tracked -- the dichotomy in one switch.
    """
    _check_drift_args(delta, eps, N, grid)
    if base == "neutral":
        f, check_key, x, derived = torus_identity(), "orbital", (0.0, 0.0), {"drift_bound": N * delta}
    elif base == "cat":
        f, check_key, x, derived = cat_map(), "orbital@cat", (0.2, 0.3), {}
    else:
        raise ValueError(f"base must be 'neutral' or 'cat', got {base!r}")
    return _run_drift("drift-orbital", check_key, check_orbital_inverse, f, x, delta, eps, N, grid,
                      threads, {"seed": seed, "base": base}, derived)


# ---------------------------------------------------------------------------
# Rotation dichotomy
# ---------------------------------------------------------------------------

def run_rotation_dichotomy(theta: float = GOLDEN_ROTATION, delta: float = 0.01,
                           eps: float = 0.1, N: int = 25, grid: int = 4096,
                           threads: int | None = None, seed: int = 0) -> ExperimentReport:
    """Circle rotation: index-matched tracking fails while orbital inclusion holds.

    The method rotates by theta + delta, so index-matched errors grow linearly
    and the inverse check fails with a certificate (the rotation is an
    isometry, giving an exact horizon Lipschitz constant of 1).  As sets,
    however, both orbits fill the circle densely; the recorded orbital
    objective at the anchor itself is already far below eps, so the orbital
    check succeeds at y = x.  Angles with a period q <= N are rejected: the
    finite orbit set is then too sparse for the set-inclusion side to mean
    anything at this horizon.
    """
    _check_drift_args(delta, eps, N, grid)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    for q in range(1, N + 1):
        if abs(math.remainder(q * theta, 1.0)) <= 1e-9:
            raise ValueError(f"rotation angle has period {q} inside the horizon")
    f = make_rotation(theta, label="rotation")
    m = _drift_method(f, delta, N)
    counters: dict = {}
    entries: list = []
    params = {"delta": delta, "eps": eps, "N": N, "theta": theta}
    check = partial(_scored_check, entries, "rotation-dichotomy", f, m, (0.0,), eps, N, grid,
                    params, threads, counters)
    check("inverse", check_inverse_shadowing)
    check("orbital", check_orbital_inverse, anchor=True)
    derived = {"drift_bound": N * delta, **entries[-1]["derived"]}
    return _report("rotation-dichotomy", {**params, "grid": grid, "seed": seed},
                   [_row("rotation", f, m)], entries, derived, counters)


# ---------------------------------------------------------------------------
# Property gallery
# ---------------------------------------------------------------------------

def run_property_gallery(eps: float = 0.1, N: int = 30, delta: float = 1e-3,
                         drift_delta: float = 0.01, drift_eps: float = 0.1,
                         drift_N: int = 25, grid: int = 512, rotation_grid: int = 4096,
                         n_cat_methods: int = 1, include=("cat", "shear", "rotation"),
                         threads: int | None = None, seed: int = 0) -> ExperimentReport:
    """Base systems x inverse-type properties, scored row by row.

    The cat row runs ``n_cat_methods`` volume-preserving sine-shear
    perturbations (seeded from ``seed``) and reuses each inverse witness as a
    seed candidate for the weak and orbital checks: a point whose method orbit
    tracks index by index also satisfies both inclusions, so the chain is
    exercised on the same witness.  The shear row replays the drifting
    counterexample at the drift parameters; the rotation row replays the
    dichotomy with recorded anchor objectives.  An empty ``include`` yields an
    empty, trivially consistent report.
    """
    _check_drift_args(drift_delta, drift_eps, drift_N, grid)
    _check_drift_args(delta, eps, N, rotation_grid)
    if n_cat_methods < 0:
        raise ValueError("n_cat_methods must be nonnegative")
    include = tuple(include)
    for rowname in include:
        if rowname not in ("cat", "shear", "rotation"):
            raise ValueError(f"unknown gallery row {rowname!r}")

    name = "property-gallery"
    counters: dict = {}
    entries: list = []
    systems: list = []
    drift_params = {"delta": drift_delta, "eps": drift_eps, "N": drift_N}

    if "cat" in include:
        f = cat_map()
        for i in range(n_cat_methods):
            method_seed = seed + 100 + i
            g = make_conservative_perturbation(f, delta, "shear-sin", seed=method_seed)
            m = method_from_map(f, g, N)
            systems.append(_row(f"cat[{i}]", f, m))
            params = {"delta": delta, "eps": eps, "N": N, "method_seed": method_seed}
            check = partial(_scored_check, entries, name, f, m, (0.2, 0.3), eps, N, grid,
                            params, threads, counters)
            v_inv = check("cat:inverse", check_inverse_shadowing)
            seeds = [v_inv.witness] if v_inv.witness is not None else []
            check("cat:weak", check_weak_inverse, seeds=seeds)
            check("cat:orbital", check_orbital_inverse, seeds=seeds)

    def drift_row(f: SystemMap, row_grid: int, anchor: bool) -> None:
        m = _drift_method(f, drift_delta, drift_N)
        systems.append(_row(f.label, f, m))
        check = partial(_scored_check, entries, name, f, m, (0.0,) * f.dim, drift_eps, drift_N,
                        row_grid, drift_params, threads, counters)
        check(f"{f.label}:inverse", check_inverse_shadowing)
        check(f"{f.label}:weak", check_weak_inverse, anchor=anchor)
        check(f"{f.label}:orbital", check_orbital_inverse, anchor=anchor)

    if "shear" in include:
        drift_row(shear_map(), grid, anchor=False)
    if "rotation" in include:
        drift_row(make_rotation(GOLDEN_ROTATION, label="rotation"), rotation_grid, anchor=True)

    parameters = {
        "eps": eps, "N": N, "delta": delta,
        "drift_delta": drift_delta, "drift_eps": drift_eps, "drift_N": drift_N,
        "grid": grid, "rotation_grid": rotation_grid,
        "n_cat_methods": n_cat_methods, "include": list(include), "seed": seed,
    }
    return _report(name, parameters, systems, entries, {}, counters)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "drift-inverse": run_drift_inverse,
    "drift-weak": run_drift_weak,
    "drift-orbital": run_drift_orbital,
    "rotation-dichotomy": run_rotation_dichotomy,
    "property-gallery": run_property_gallery,
}
