"""Workload definitions: seeded inputs, expected verdicts and their verification.

Every check of every workload is a ``shadowlab check ...`` command line, so
any single check can be replayed from the shell.  The library workloads parse
those command lines once during set-up (with the CLI's own parser and spec
parsers) and then call the public ``check_*`` function directly; ``cli-batch``
passes each command line to ``shadowlab.cli.main`` as a user would.

Verification is semantic, never a byte comparison against stored output:
a ``tracked`` verdict is re-measured from its witness with a distance written
here, and a certified ``failed`` verdict has its covering inequality and the
closed-form lower bound N * drift re-checked from the record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

CHECKERS = {
    "direct": "check_direct_shadowing",
    "inverse": "check_inverse_shadowing",
    "weak": "check_weak_inverse",
    "orbital": "check_orbital_inverse",
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``pool`` command lines are cycled through by a timed run."""

    name: str
    via_cli: bool
    expect: str          # "tracked" or "certified"
    pool: int
    trace_checks: int    # checks run (twice) by a traced run

    def command_lines(self, seed: int, out_path: str | None = None) -> list[list[str]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [_GENERATORS[self.name](rng, i, seed, out_path) for i in range(self.pool)]


def _anchor(rng: random.Random) -> str:
    return f"{rng.random()!r},{rng.random()!r}"


def _sweep_pointwise(rng, i, seed, out_path):
    return ["check", "inverse", "--system", "shear", "--method", "translate:0.01",
            "--x", _anchor(rng), "--eps", "0.1", "--N", "25", "--grid", "512",
            "--threads", "2", "--seed", str(seed)]


def _sweep_set(rng, i, seed, out_path):
    prop = ("weak", "orbital")[i % 2]
    return ["check", prop, "--system", "shear", "--method", "translate:0.01",
            "--x", _anchor(rng), "--eps", "0.1", "--N", "25", "--grid", "128",
            "--threads", "2", "--seed", str(seed)]


# newton-long uses one method, perturb:shear-sin:0.001:0, whose perturbation
# shifts the second coordinate by 0.001*sin(2*pi*(x0 + NEWTON_PHASE)).  Under the
# shear x0 is invariant, so that shift drifts the whole orbit by N*0.001*sin(...).
# Anchors are drawn where |sin| >= 1/2: the drift (>= 0.15) is too large for the
# anchor to track, and Newton converges in two iterations, so every check does
# the same work (anchor, two dense solves, one evaluation).  Elsewhere the
# iteration count varies from 1 to 4 with the anchor, and near x0 = 0 the
# property fails outright after a 30-iteration Newton run and a sweep.
NEWTON_METHOD = "perturb:shear-sin:0.001:0"
NEWTON_PHASE = 0.6369616873214543


def check_pinned_method(method) -> None:
    """Fail set-up if the pinned method no longer has the axis and phase the anchors assume."""
    d = method.source.descriptor
    if (d.get("axis"), d.get("phase")) != (1, NEWTON_PHASE):
        raise RuntimeError(f"{NEWTON_METHOD} now has axis {d.get('axis')}, phase {d.get('phase')}; "
                           "re-derive the newton-long anchor band")


def _newton_long(rng, i, seed, out_path):
    u = rng.uniform(1 / 12, 5 / 12) + 0.5 * rng.randrange(2)
    x = f"{(u - NEWTON_PHASE) % 1.0!r},{rng.random()!r}"
    return ["check", "inverse", "--system", "shear", "--method", NEWTON_METHOD,
            "--x", x, "--eps", "0.1", "--N", "300", "--grid", "64",
            "--threads", "1", "--seed", str(seed)]


def _cli_batch(rng, i, seed, out_path):
    prop = ("direct", "inverse", "weak", "orbital")[i % 4]
    return ["check", prop, "--system", "cat",
            "--method", f"perturb:shear-sin:0.001:{rng.randrange(2**31)}",
            "--x", _anchor(rng), "--eps", "0.1", "--N", "30",
            "--threads", "1", "--seed", str(seed), "--timings", "--out", out_path]


_GENERATORS = {
    "sweep-pointwise": _sweep_pointwise,
    "sweep-set": _sweep_set,
    "newton-long": _newton_long,
    "cli-batch": _cli_batch,
}

WORKLOADS = {w.name: w for w in [
    Workload("sweep-pointwise", via_cli=False, expect="certified", pool=16, trace_checks=8),
    Workload("sweep-set", via_cli=False, expect="certified", pool=16, trace_checks=4),
    Workload("newton-long", via_cli=False, expect="tracked", pool=16, trace_checks=8),
    Workload("cli-batch", via_cli=True, expect="tracked", pool=64, trace_checks=96),
]}


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------

def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat-torus distance via the nearest integer translate of a - b."""
    d = a - b
    d = d - np.round(d)
    return np.sqrt((d * d).sum(axis=-1))


def _orbit(g, x: np.ndarray, N: int) -> np.ndarray:
    """g^k(x) for k = -N..N, one step at a time."""
    out = np.empty((2 * N + 1, len(x)))
    out[N] = x
    z = x
    for k in range(1, N + 1):
        z = g.forward(z)
        out[N + k] = z
    z = x
    for k in range(1, N + 1):
        z = g.backward(z)
        out[N - k] = z
    return out


def _inclusion(P: np.ndarray, T: np.ndarray) -> float:
    """Largest distance from a point of P to the set T."""
    return float(_dist(P[:, None, :], T[None, :, :]).min(axis=1).max())


def tracking_error(prop: str, f, source, x, witness, N: int) -> float:
    """The property's own distance between the two orbits the verdict relates."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(witness, dtype=float)
    if prop == "direct":
        return float(_dist(_orbit(f, w, N), _orbit(source, x, N)).max())
    method_orbit = _orbit(source, w, N)
    true_orbit = _orbit(f, x, N)
    if prop == "inverse":
        return float(_dist(method_orbit, true_orbit).max())
    weak = _inclusion(method_orbit, true_orbit)
    if prop == "weak":
        return weak
    return max(weak, _inclusion(true_orbit, method_orbit))


def distinct_targets(f, x, N: int) -> int:
    """Number of distinct points on the true orbit segment of x."""
    return len(np.unique(_orbit(f, np.asarray(x, dtype=float), N), axis=0))


def drift_of(method_spec: str) -> float | None:
    """delta of a ``translate:DELTA`` method, the drift of the closed-form bound."""
    if method_spec.startswith("translate:"):
        return float(method_spec.split(":", 1)[1])
    return None


def verify(expect: str, record: dict, f, source, method_spec: str) -> str | None:
    """None when the verdict holds, else the reason it does not."""
    prop, N, eps = record["property"], record["N"], record["eps"]
    if expect == "tracked":
        if record["outcome"] != "tracked":
            return f"expected tracked, got {record['outcome']}"
        err = tracking_error(prop, f, source, record["x"], record["witness"], N)
        if not err < eps:
            return f"recomputed tracking error {err!r} is not < eps {eps!r}"
        return None
    if record["outcome"] != "failed" or record.get("certified") is not True:
        return f"expected a certified failure, got {record['outcome']} certified={record.get('certified')}"
    gmin, cover, lip = record["min_over_grid"], record["grid_step"], record["lipschitz_bound"]
    if not gmin - lip * cover / 2.0 > eps:
        return "covering inequality min_over_grid - L*grid_step/2 > eps does not hold"
    drift = drift_of(method_spec)
    if drift is None or not gmin >= N * drift:
        return f"min_over_grid {gmin!r} is below the closed-form bound N*drift"
    return None


def computed_work(record: dict, counters: dict, targets: int) -> dict:
    """Work implied by the counters: lattice point steps, set-distance pairs, Newton unknowns."""
    steps = 2 * record["N"] + 1
    point_steps = counters.get("grid_points", 0) * steps
    return {
        "point_steps": point_steps,
        "pairs": point_steps * targets if record["property"] in ("weak", "orbital") else 0,
        "unknowns": steps * len(record["x"]) if "newton_iterations" in counters else 0,
    }
