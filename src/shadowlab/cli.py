"""Command line interface: orbit dumps, property checks, scripted experiments.

Output is JSON (sorted keys, two-space indent) or CSV on standard output
unless ``--out`` is given; diagnostics go to the error stream.  Exit codes
partition the outcomes so scripts can triage without parsing:

* 0 -- tracked / consistent
* 2 -- usage error, a bad system/method spec, or an invalid value
* 3 -- failed: a covering certificate proves nothing tracks
* 4 -- inconclusive check or experiment
* 5 -- experiment conclusion inconsistent

A fixed ``--seed`` (default 0) is recorded in every report, and identical
invocations produce byte-identical output regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time

from .experiments import EXPERIMENTS
from .orbits import MethodSpec, method_from_map, orbit_csv_text, orbit_segment, random_method
from .shadowing import (
    check_direct_shadowing,
    check_inverse_shadowing,
    check_orbital_inverse,
    check_weak_inverse,
)
from .systems import (
    _TOO_DEEP,
    GOLDEN_ROTATION,
    ConstructionError,
    SystemMap,
    cat_map,
    circle_identity,
    make_conservative_perturbation,
    make_linear,
    make_rotation,
    make_translation_method_map,
    map_from_descriptor,
    shear_map,
    torus_identity,
)

__all__ = [
    "parse_system_spec",
    "parse_method_spec",
    "build_parser",
    "cmd_orbit",
    "cmd_check",
    "cmd_experiment",
    "main",
    "main_entry",
]

_SYSTEM_HELP = ("system spec: cat | shear | identity2 | identity1 | golden | "
                "rotation:THETA | linear:A11,A12,...,Ann (n*n integers, row by row) | a JSON descriptor")
_METHOD_HELP = ("method spec: same | translate:DELTA | rotation:THETA | rotation:+DELTA | "
                "perturb:MODE:DELTA[:SEED] | random:DELTA[:SEED] (direct checks only) | a JSON map descriptor")

_CHECKERS = {
    "direct": check_direct_shadowing,
    "inverse": check_inverse_shadowing,
    "weak": check_weak_inverse,
    "orbital": check_orbital_inverse,
}


# ---------------------------------------------------------------------------
# Specs and arguments
# ---------------------------------------------------------------------------

def _load_descriptor(text: str):
    """The JSON value of ``text``; ValueError when it nests deeper than json.loads goes."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


def parse_system_spec(spec: str) -> SystemMap:
    """Build a map from a short spec string or a JSON descriptor."""
    s = spec.strip()
    if s.startswith("{"):
        return map_from_descriptor(_load_descriptor(s))
    fixed = {
        "cat": cat_map,
        "shear": shear_map,
        "identity2": torus_identity,
        "identity1": circle_identity,
    }
    if s in fixed:
        return fixed[s]()
    if s == "golden":
        return make_rotation(GOLDEN_ROTATION)
    if s.startswith("rotation:"):
        return make_rotation(float(s.split(":", 1)[1]))
    if s.startswith("linear:"):
        entries = [int(v) for v in s.split(":", 1)[1].split(",")]
        n = math.isqrt(len(entries))
        if n * n != len(entries):
            raise ValueError(f"linear spec needs n*n integers, row by row, got {len(entries)}")
        return make_linear([entries[i:i + n] for i in range(0, len(entries), n)])
    raise ValueError(f"unknown system spec {spec!r}")


def parse_method_spec(spec: str, f: SystemMap, N: int, seed: int) -> MethodSpec:
    """Build a method against system ``f``  from a short spec string.

    ``rotation:+DELTA`` is relative to the system's own angle and therefore
    requires a rotation system; every other form stands on its own.  ``SEED``
    defaults to the run seed.
    """
    s = spec.strip()
    if s.startswith("{"):
        return method_from_map(f, map_from_descriptor(_load_descriptor(s)), N)
    if s == "same":
        return method_from_map(f, f, N)
    if s.startswith("translate:"):
        return method_from_map(f, make_translation_method_map(f, float(s.split(":", 1)[1])), N)
    if s.startswith("rotation:"):
        arg = s.split(":", 1)[1]
        if arg.startswith("+") or arg.startswith("-"):
            if f.descriptor.get("kind") != "rotation":
                raise ValueError("relative rotation methods need a rotation system")
            theta = f.descriptor["theta"] + float(arg)
        else:
            theta = float(arg)
        if f.dim != 1:
            raise ValueError("rotation methods are defined on the circle only")
        return method_from_map(f, make_rotation(theta), N)
    if s.startswith("perturb:"):
        parts = s.split(":")
        if len(parts) not in (3, 4):
            raise ValueError("perturb spec is perturb:MODE:DELTA[:SEED]")
        mode, delta = parts[1], float(parts[2])
        pseed = int(parts[3]) if len(parts) == 4 else seed
        return method_from_map(f, make_conservative_perturbation(f, delta, mode, seed=pseed), N)
    if s.startswith("random:"):
        parts = s.split(":")
        if len(parts) not in (2, 3):
            raise ValueError("random spec is random:DELTA[:SEED]")
        rseed = int(parts[2]) if len(parts) == 3 else seed
        return random_method(f, float(parts[1]), rseed)
    raise ValueError(f"unknown method spec {spec!r}")


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"coordinates must be numbers, got {text!r}") from None


def _parse_rows(text: str) -> tuple[str, ...]:
    return tuple(r for r in text.split(",") if r)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Finite-horizon tracking checks for volume-preserving maps of the n-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="run seed, recorded in reports and used by seeded specs (default 0)")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: SHADOWLAB_THREADS, else the usable cores)")
    common.add_argument("--timings", action="store_true",
                        help="add work counters to check output; wall time on the error stream")
    common.add_argument("--out", default=None, help="write the report here instead of standard output")

    p_orbit = sub.add_parser("orbit", parents=[common], help="dump a true orbit segment as CSV")
    p_orbit.add_argument("--system", required=True, help=_SYSTEM_HELP)
    p_orbit.add_argument("--x", required=True, type=_parse_point,
                         help="anchor point, one comma-separated coordinate per axis of the system")
    p_orbit.add_argument("--N", required=True, type=int, help="horizon: indices -N..N")

    p_check = sub.add_parser("check", parents=[common], help="run one tracking property check")
    p_check.add_argument("property", choices=sorted(_CHECKERS),
                         help="which tracking property to check")
    p_check.add_argument("--system", required=True, help=_SYSTEM_HELP)
    p_check.add_argument("--method", required=True, help=_METHOD_HELP)
    p_check.add_argument("--x", required=True, type=_parse_point,
                         help="anchor point, one comma-separated coordinate per axis of the system")
    p_check.add_argument("--eps", required=True, type=float, help="tracking accuracy")
    p_check.add_argument("--N", required=True, type=int, help="horizon: indices -N..N")
    p_check.add_argument("--grid", type=int, default=512,
                         help="lattice points per axis; the grid step is 1/GRID (default 512)")

    p_exp = sub.add_parser("experiment", parents=[common], help="run a scripted experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment to run")
    overrides = [
        p_exp.add_argument("--delta", type=float, help="method size override"),
        p_exp.add_argument("--eps", type=float, help="tracking accuracy override"),
        p_exp.add_argument("--N", type=int, help="horizon override"),
        p_exp.add_argument("--grid", type=int, help="lattice points per axis override"),
        p_exp.add_argument("--theta", type=float, help="rotation angle (rotation-dichotomy)"),
        p_exp.add_argument("--base", choices=("neutral", "cat"), help="drift-orbital base system"),
        p_exp.add_argument("--n-methods", dest="n_cat_methods", metavar="N_METHODS", type=int,
                           help="number of seeded perturbations on the gallery's cat row"),
        p_exp.add_argument("--include", type=_parse_rows,
                           help="gallery rows, comma-separated; empty string for none"),
        p_exp.add_argument("--drift-delta", type=float, help="gallery drift rows: method size"),
        p_exp.add_argument("--drift-eps", type=float, help="gallery drift rows: tracking accuracy"),
        p_exp.add_argument("--drift-N", type=int, help="gallery drift rows: horizon"),
        p_exp.add_argument("--rotation-grid", type=int, help="lattice points for circle sweeps"),
    ]
    # Each override's dest is the runner's keyword; its flag names it in errors.
    p_exp.set_defaults(override_flags={a.dest: a.option_strings[0] for a in overrides})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_orbit(args: argparse.Namespace) -> int:
    """Write the CSV dump of the true orbit segment through --x."""
    f = parse_system_spec(args.system)
    _emit(orbit_csv_text(orbit_segment(f, args.x, args.N)), args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run one property check and report the verdict as JSON."""
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    f = parse_system_spec(args.system)
    m = parse_method_spec(args.method, f, args.N, args.seed)
    counters: dict = {}
    verdict = _CHECKERS[args.property](f, m, args.x, args.eps, args.N,
                                       grid_step=1.0 / args.grid,
                                       threads=args.threads, counters=counters)
    record = verdict.to_record()
    record["seed"] = args.seed
    if args.timings:
        record["timings"] = {k: counters[k] for k in sorted(counters)}
    _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", args.out)
    return {"tracked": 0, "failed": 3, "inconclusive": 4}[verdict.outcome]


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a scripted experiment and report it as JSON."""
    runner = EXPERIMENTS[args.name]
    accepted = inspect.signature(runner).parameters
    kwargs = {k: v for k, v in vars(args).items() if k in args.override_flags and v is not None}
    for key in kwargs:
        if key not in accepted:
            raise ValueError(f"experiment {args.name!r} does not take {args.override_flags[key]}")
    report = runner(seed=args.seed, threads=args.threads, **kwargs)
    _emit(report.to_json(), args.out)
    return {"consistent": 0, "inconsistent": 5, "inconclusive": 4}[report.conclusion]


_DISPATCH = {"orbit": cmd_orbit, "check": cmd_check, "experiment": cmd_experiment}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = _DISPATCH[args.command](args)
    except (ConstructionError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"shadowlab: error: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        print(f"wall seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
