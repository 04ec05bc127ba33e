"""Span recorder for the traced run, installed from outside the package.

Wrappers are installed by rebinding the names the package looks up at call
time (module globals, the CLI's checker table, ``PseudoOrbit.checked`` and
the ``forward``/``backward`` fields of every map a wrapped constructor
returns).  Nothing under ``src/`` changes, and an untraced run installs
nothing.  Spans stay in memory until the run ends.

A span is (id, parent id, check id, name, start, end, work), where work is a
tuple of counts or None.  Each thread keeps its own stack; a span opened on a
sweep worker thread with an empty stack takes the running check span as its
parent, so the spans of one check share both a check id and a root.  A span's self time is its duration minus
the part of it that its children cover (the union of their intervals, since
children on different threads can overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

SETUP = -1  # check id of spans recorded during set-up


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = False
        self.check_id = SETUP
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None, root: bool = False):
        """fn wrapped in a span; ``work(result)`` gives the span's tuple of work counts."""
        if getattr(fn, "_span_name", None) is not None:
            return fn
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = stack[-1] if stack else rec._root
            sid = next(rec._ids)
            stack.append(sid)
            outer_root = rec._root
            if root:
                rec._root = sid
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                if root:
                    rec._root = outer_root
                amount = work(out) if work is not None and out is not None else None
                rec.spans.append((sid, parent, rec.check_id, name, start, end, amount))

        wrapper._span_name = name
        return wrapper

    def self_times(self) -> dict:
        """Per span name: {"calls", "self_s", "work"}, work summed elementwise."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, _, name, start, end, amount in self.spans:
            covered = 0.0
            cur_s = cur_e = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "work": None})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - covered
            if amount is not None:
                prev = agg["work"] or (0,) * len(amount)
                agg["work"] = tuple(a + b for a, b in zip(prev, amount))
        return out

    def write(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, check, name, start, end, amount in self.spans:
                fh.write(json.dumps([sid, parent, check, name, start - t0, end - t0, amount]) + "\n")


def _points(out) -> tuple:
    return (out.size // out.shape[-1] if out.ndim else 1,)


def install(rec: Recorder) -> None:
    """Rebind the package's entry points to span-recording wrappers."""
    import shadowlab
    from shadowlab import cli, geometry, orbits, shadowing, systems

    # The modules on the check path; hyperbolicity and experiments are left out.
    modules = [shadowlab, geometry, systems, orbits, shadowing, cli]

    def rebind(home, attr, name, work=None, root=False, after=None):
        fn = getattr(home, attr)
        wrapped = rec.wrap(name, fn, work=work, root=root)
        if after is not None:
            inner = wrapped

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                return after(inner(*args, **kwargs))

            wrapped._span_name = name
        for mod in modules:
            if mod.__dict__.get(attr) is fn:
                setattr(mod, attr, wrapped)
        return fn, wrapped

    def wrap_steps(m):
        for attr in ("forward", "backward"):
            object.__setattr__(m, attr, rec.wrap("systems.step", getattr(m, attr), work=_points))
        return m

    rebind(geometry, "reduce_to_unit", "geometry.reduce", work=lambda out: (out.size,))
    rebind(geometry, "dist_array", "geometry.dist")
    for attr in ("make_linear", "make_rotation", "make_translation_method_map",
                 "make_conservative_perturbation", "cat_map", "shear_map", "torus_identity",
                 "circle_identity", "map_from_descriptor"):
        rebind(systems, attr, "systems.build", after=wrap_steps)
    rebind(systems, "c1_distance", "systems.c1")
    rebind(orbits, "orbit_segment", "orbits.segment")
    rebind(orbits, "method_from_map", "orbits.method")
    checked = orbits.PseudoOrbit.__dict__["checked"].__func__
    orbits.PseudoOrbit.checked = classmethod(rec.wrap("orbits.validate", checked))
    rebind(shadowing, "shadow_solve_newton", "shadowing.newton",
           work=lambda out: (out.iterations, out.points.size))
    rebind(shadowing, "horizon_lipschitz_bound", "shadowing.lipschitz")
    for prop, attr in (("direct", "check_direct_shadowing"), ("inverse", "check_inverse_shadowing"),
                       ("weak", "check_weak_inverse"), ("orbital", "check_orbital_inverse")):
        fn, wrapped = rebind(shadowing, attr, "shadowing.search", root=True)
        if cli._CHECKERS.get(prop) is fn:
            cli._CHECKERS[prop] = wrapped
    rebind(cli, "build_parser", "cli.parser")
    for attr in ("main", "parse_system_spec", "parse_method_spec"):
        rebind(cli, attr, "cli")
