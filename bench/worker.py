"""Run one workload in this (fresh) process: set-up, checks, verification.

Started by ``bench/run.py`` from the repository root with ``PYTHONPATH=src``:

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds T
    python3 bench/worker.py --workload NAME --seed N --trace-pass [--traced]

It prints ``ready`` once set-up is done (the parent times process start to
that line), then, unless ``--setup-only``, one JSON line with every check's
record, wall time, counters and verification result.  Checks run back to
back; verification happens after the timed loop.  An exception inside a
check is caught at the check boundary and reported with its traceback.
"""

import os

# One BLAS thread, set before numpy loads: checker threads x BLAS threads <= nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Recorder, install
from workloads import (CHECKERS, NEWTON_METHOD, WORKLOADS, check_pinned_method, computed_work,
                       distinct_targets, verify)

OUT_DIR = Path(".bench_out")


class Session:
    """A workload's inputs, built once: command lines, parsed arguments, maps and methods."""

    def __init__(self, wl, seed: int, tmp_dir: str):
        import shadowlab
        from shadowlab import cli

        self.wl = wl
        self.pkg = shadowlab
        self.cli = cli
        self.out_path = str(Path(tmp_dir) / "record.json")
        self.argvs = wl.command_lines(seed, self.out_path)
        self._maps: dict = {}
        self._methods: dict = {}
        self.parsed = None
        if not wl.via_cli:
            parser = cli.build_parser()
            self.parsed = [parser.parse_args(a) for a in self.argvs]
            for a in self.parsed:
                _, m = self.objects(a)
                if a.method == NEWTON_METHOD:
                    check_pinned_method(m)

    def objects(self, a):
        """(system map, method) for parsed arguments, built on first use."""
        f = self._maps.get(a.system)
        if f is None:
            f = self._maps[a.system] = self.cli.parse_system_spec(a.system)
        key = (a.system, a.method, a.N, a.seed)
        m = self._methods.get(key)
        if m is None:
            m = self._methods[key] = self.cli.parse_method_spec(a.method, f, a.N, a.seed)
        return f, m

    def run_check(self, i: int) -> dict:
        slot = i % len(self.argvs)
        out = {"slot": slot, "seconds": None, "record": None, "counters": None, "error": None}
        try:
            if self.wl.via_cli:
                self._run_cli(slot, out)
            else:
                self._run_library(slot, out)
        except Exception:
            out["error"] = traceback.format_exc()
        return out

    def _run_library(self, slot: int, out: dict) -> None:
        a = self.parsed[slot]
        f, m = self.objects(a)
        check = getattr(self.pkg, CHECKERS[a.property])
        counters: dict = {}
        start = perf_counter()
        verdict = check(f, m, a.x, a.eps, a.N, grid_step=1.0 / a.grid,
                        threads=a.threads, counters=counters)
        out["seconds"] = perf_counter() - start
        out["record"] = json.dumps(verdict.to_record(), sort_keys=True)
        out["counters"] = counters

    def _run_cli(self, slot: int, out: dict) -> None:
        path = Path(self.out_path)
        path.unlink(missing_ok=True)
        err = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(self.argvs[slot])
        out["seconds"] = perf_counter() - start
        if code != 0:
            out["error"] = f"exit code {code}: {err.getvalue().strip()}"
            return
        out["record"] = path.read_text(encoding="utf-8")
        out["counters"] = json.loads(out["record"]).get("timings", {})

    def verify(self, results: list) -> None:
        """Fill in each check's verification verdict and computed work."""
        parser = self.cli.build_parser()
        seen: dict = {}
        for res in results:
            if res["error"] is not None:
                continue
            argv = self.argvs[res["slot"]]
            record = json.loads(res["record"])
            key = res["record"]
            if key not in seen:
                try:
                    a = parser.parse_args(argv)
                    f, m = self.objects(a)
                    problem = verify(self.wl.expect, record, f, m.source, a.method)
                    seen[key] = (problem, distinct_targets(f, record["x"], record["N"]))
                except Exception:
                    seen[key] = (traceback.format_exc(), 0)
            problem, targets = seen[key]
            if problem is not None:
                res["error"] = f"verification failed: {problem}"
            res["work"] = computed_work(record, res["counters"], targets)


def environment(threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                           "MKL_NUM_THREADS")},
        "checker_threads": sorted(set(threads)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace-pass", action="store_true",
                      help="run the workload's fixed list of traced-run checks")
    p.add_argument("--traced", action="store_true", help="record spans (with --trace-pass)")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        rec = Recorder()
        if args.traced:
            install(rec)
            rec.enabled = True
        session = Session(wl, args.seed, tmp_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        results = []

        def more() -> bool:
            if args.trace_pass:
                return len(results) < wl.trace_checks
            return perf_counter() - start < args.seconds

        start = perf_counter()
        while more():
            rec.check_id = len(results)
            results.append(session.run_check(len(results)))
        timed_s = perf_counter() - start
        rec.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        session.verify(results)
        threads = [a[a.index("--threads") + 1] for a in session.argvs]
        out = {
            "workload": wl.name,
            "seed": args.seed,
            "timed_s": timed_s,
            "peak_rss_mb": peak_rss_mb,
            "env": environment(threads),
            "argv": session.argvs,
            "checks": results,
        }
        if args.traced:
            out["layers"] = rec.self_times()
            spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.jsonl"
            rec.write(str(spans_path), start)
            out["spans_file"] = str(spans_path)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
