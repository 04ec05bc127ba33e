"""shadowlab benchmark: one workload per invocation, one JSON result line.

Run from the repository root (no install needed; workers get PYTHONPATH=src):

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

``--trace 0`` times the workload: several fresh set-up processes for
``setup_s``, then one fresh worker that runs checks back to back for T
seconds.  ``--trace 1`` runs the workload's fixed list of traced-run checks
twice in fresh workers, once untraced and once with spans recorded, checks
that both give byte-identical records and identical counters, and reports
per-layer self time and work.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
BENCHMARK.json lists for the mode; full details (environment, every record,
counters, errors with tracebacks) go to ``.bench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 6      # set-up-only processes; the timed worker's set-up is one more sample
DEADLINE_S = 170.0    # the whole invocation must end within 180 s


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (no git binary, no parent search)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shadowlab").iterdir()):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(args, extra: list, started: float) -> tuple[dict | None, float]:
    """Start a fresh worker; returns (its result or None for set-up only, set-up seconds)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError(f"worker did not finish set-up: {first!r}")
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (perf_counter() - started)))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), setup_s


def timed_metrics(args, started: float) -> tuple[dict, dict]:
    setups = [run_worker(args, ["--setup-only"], started)[1] for _ in range(SETUP_PROBES)]
    res, setup_s = run_worker(args, ["--seconds", str(args.seconds)], started)
    setups.append(setup_s)
    times = sorted(c["seconds"] for c in res["checks"] if c["seconds"] is not None)
    n = len(res["checks"])
    metrics = {
        "checks_per_s": n / res["timed_s"],
        "check_p50_s": statistics.median(times) if times else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "error_rate": sum(c["error"] is not None for c in res["checks"]) / n,
    }
    # The 95th percentile only where at least ten samples lie beyond it.
    if len(times) >= 200:
        metrics["check_p95_s"] = statistics.quantiles(times, n=20)[-1]
    res["setup_samples_s"] = setups
    return metrics, res


def traced_metrics(args, started: float) -> tuple[dict, dict]:
    plain, _ = run_worker(args, ["--trace-pass"], started)
    traced, _ = run_worker(args, ["--trace-pass", "--traced"], started)
    for a, b in zip(plain["checks"], traced["checks"]):
        if b["error"] is None and (a["record"], a["counters"]) != (b["record"], b["counters"]):
            b["error"] = "traced record or counters differ from the untraced run"
        if b["error"] is None and a["error"] is not None:
            b["error"] = f"untraced run failed: {a['error']}"

    layers = traced["layers"]
    checks = traced["checks"]

    def span(name, field="self_s", index=None):
        entry = layers.get(name)
        if entry is None:
            return 0
        if index is None:
            return entry[field]
        return (entry["work"] or (0,) * (index + 1))[index]

    def total(key, source="counters"):
        return sum((c[source] or {}).get(key, 0) for c in checks if c["error"] is None)

    metrics = {
        "geometry.reduce.calls": span("geometry.reduce", "calls"),
        "geometry.reduce.elems": span("geometry.reduce", index=0),
        "geometry.reduce.self_s": span("geometry.reduce"),
        "geometry.dist.calls": span("geometry.dist", "calls"),
        "geometry.dist.self_s": span("geometry.dist"),
        "systems.step.calls": span("systems.step", "calls"),
        "systems.step.points": span("systems.step", index=0),
        "systems.step.self_s": span("systems.step"),
        "systems.build.calls": span("systems.build", "calls"),
        "systems.build.self_s": span("systems.build"),
        "systems.c1.calls": span("systems.c1", "calls"),
        "systems.c1.self_s": span("systems.c1"),
        "orbits.segment.calls": span("orbits.segment", "calls"),
        "orbits.segment.self_s": span("orbits.segment"),
        "orbits.validate.self_s": span("orbits.validate"),
        "shadowing.search.self_s": span("shadowing.search"),
        "shadowing.grid_points": total("grid_points"),
        "shadowing.refinement_points": total("refinement_points"),
        "shadowing.candidate_evaluations": total("candidate_evaluations"),
        "shadowing.sweep.point_steps": total("point_steps", "work"),
        "shadowing.sweep.pairs": total("pairs", "work"),
        "shadowing.candidate_hit_ratio": sum(
            c["error"] is None and not c["counters"].get("grid_points") for c in checks) / len(checks),
        "shadowing.newton.calls": span("shadowing.newton", "calls"),
        "shadowing.newton.iterations": span("shadowing.newton", index=0),
        "shadowing.newton.unknowns": span("shadowing.newton", index=1),
        "shadowing.newton.self_s": span("shadowing.newton"),
        "shadowing.lipschitz.calls": span("shadowing.lipschitz", "calls"),
        "shadowing.lipschitz.self_s": span("shadowing.lipschitz"),
        "cli.parser.self_s": span("cli.parser"),
        "cli.self_s": span("cli"),
        "trace.overhead_s": traced["timed_s"] - plain["timed_s"],
    }
    traced["untraced_timed_s"] = plain["timed_s"]
    return metrics, traced


def main(argv=None) -> int:
    started = perf_counter()
    p = argparse.ArgumentParser(description="shadowlab benchmark (one workload per run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "shadowlab" / "__init__.py").is_file():
        print("bench: src/shadowlab not found; run from the repository root", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    try:
        metrics, details = (traced_metrics if args.trace else timed_metrics)(args, started)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    listed = spec["per_layer" if args.trace else "end_to_end"]
    checks = details["checks"]
    failed = sum(c["error"] is not None for c in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    details.update(metrics=metrics, git_commit=git_commit(), source_sha256=source_digest(),
                   seconds=args.seconds, trace=args.trace)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n")
    for c in checks:
        if c["error"] is not None:
            print(f"bench: check {c['slot']} failed: {c['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
