"""Regenerate the golden snapshot kept in this directory.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/generate.py

Each case is a ``shadowlab`` command line; its golden file ``NAME.json`` holds
the exact bytes the command writes with ``--out``.  ``tests/test_golden.py``
reruns every case and compares the bytes.  Regenerate only for an intended
change of a report or record, and say why in the same change.

The experiments run at their defaults, plus four variants: the gallery's cat
row with two methods (each inverse witness seeds the set checks), a zero drift
on the rotation in the dichotomy and in the gallery, and a drift-inverse run
whose 2*eps is too wide for an anchor separation.  The checks run with
``--timings`` and together cover all four properties, all three outcomes,
witnesses from the anchor, Newton, the Newton polish, the grid and refinement,
a raw ``random:`` method as the pseudo-orbit of a direct check (the only
property a raw method serves), both the circle and the torus, and every
derived map constructor: translation drifts, the block drift, and shear-sin
and translation perturbations.  Two shear drifts give the covering's
witnesses: ``check-inverse-shear-refinement`` tracks by refinement around
the least value of its 32-lattice, which itself misses eps, and
``check-orbital-shear-grid`` tracks by the first qualifying point of the
whole 32-lattice.  The covering appears in both forms: certified failures
settled on coarser levels than the requested lattice (the shear drift at
level 32, circle and identity drifts at levels 2 to 4), and the single sweep
of the requested lattice that a grid too coarse to certify (the shear at
grid 8) or a missing Lipschitz bound runs.  One check sweeps the whole
default lattice with no usable Lipschitz bound (the shear-sin perturbation
of the cat at N=40): its 262,144 points run as four chunks on the sweep's
thread pool.  Two checks decide in the candidate pass with a Newton witness
after the anchor misses: a long horizon (the shear-sin perturbation of the
shear at N=300) and a set-mode property (orbital, on the shear-sin
perturbation of the cat).  One decides with the polished Newton witness
(``check-inverse-cat-perturbed-polish``, the shear-sin perturbation of size
0.01 of the cat at N=30): the solver's point stops at a residual near 1e-12,
which the cat stretches past eps over 30 steps each way, and further Newton
steps while the residual at least halves bring it near roundoff.

Every failed record carries a covering certificate.  Two checks end
inconclusive, and their records name the reason.  One has reason "grid": the
shear drift at grid 8 (``check-inverse-shear-inconclusive``) has a Lipschitz
bound, but its cells are too coarse to certify.  The other has reason
"no-lipschitz", where no bound exists, so a grid miss proves nothing: the
shear-sin perturbation of the cat at N=40
(``check-inverse-cat-perturbed-no-bound``), a non-affine driver past the cap
on N*log(lip).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

_DRIFT = ["--system", "shear", "--method", "translate:0.01", "--x", "0,0", "--eps", "0.1"]

CASES = {
    "experiment-drift-inverse": ["experiment", "drift-inverse"],
    "experiment-drift-weak": ["experiment", "drift-weak"],
    "experiment-drift-orbital": ["experiment", "drift-orbital"],
    "experiment-drift-orbital-cat": ["experiment", "drift-orbital", "--base", "cat"],
    "experiment-rotation-dichotomy": ["experiment", "rotation-dichotomy"],
    "experiment-property-gallery": ["experiment", "property-gallery"],
    "experiment-property-gallery-cat-2": ["experiment", "property-gallery",
                                          "--include", "cat", "--n-methods", "2"],
    "experiment-rotation-dichotomy-zero-drift": ["experiment", "rotation-dichotomy",
                                                 "--delta", "0"],
    "experiment-property-gallery-rotation-zero-drift": ["experiment", "property-gallery",
                                                        "--include", "rotation",
                                                        "--drift-delta", "0"],
    "experiment-drift-inverse-wide-eps": ["experiment", "drift-inverse",
                                          "--eps", "0.3", "--N", "5"],
    "check-inverse-cat-anchor": ["check", "inverse", "--system", "cat", "--method", "same",
                                 "--x", "0.2,0.3", "--eps", "0.1", "--N", "10"],
    "check-direct-cat-affine": ["check", "direct", "--system", "cat", "--method", "translate:0.001",
                                "--x", "0.2,0.3", "--eps", "0.05", "--N", "10"],
    "check-direct-cat-random": ["check", "direct", "--system", "cat", "--method", "random:0.01",
                                "--x", "0.2,0.3", "--eps", "0.05", "--N", "3", "--grid", "8"],
    "check-inverse-cat-perturbed-newton": ["check", "inverse", "--system", "cat",
                                           "--method", "perturb:shear-sin:0.001",
                                           "--x", "0.2,0.3", "--eps", "0.05", "--N", "20"],
    "check-inverse-shear-newton": ["check", "inverse", *_DRIFT, "--N", "5"],
    "check-inverse-shear-certified": ["check", "inverse", *_DRIFT, "--N", "25", "--grid", "64"],
    "check-inverse-shear-inconclusive": ["check", "inverse", *_DRIFT, "--N", "25", "--grid", "8"],
    "check-weak-shear-certified": ["check", "weak", *_DRIFT, "--N", "25", "--grid", "64"],
    "check-orbital-shear-certified": ["check", "orbital", *_DRIFT, "--N", "25", "--grid", "64"],
    "check-inverse-shear-refinement": ["check", "inverse", "--system", "shear",
                                       "--method", "translate:0.001", "--x", "0.269285,0.118446",
                                       "--eps", "0.03", "--N", "10", "--grid", "32"],
    "check-orbital-shear-grid": ["check", "orbital", "--system", "shear",
                                 "--method", "translate:0.003", "--x", "0.127244,0.669036",
                                 "--eps", "0.05", "--N", "15", "--grid", "32"],
    "check-orbital-golden-anchor": ["check", "orbital", "--system", "golden",
                                    "--method", "rotation:+0.01", "--x", "0.0",
                                    "--eps", "0.1", "--N", "25"],
    "check-weak-circle-certified": ["check", "weak", "--system", "identity1",
                                    "--method", "rotation:0.02", "--x", "0.3",
                                    "--eps", "0.1", "--N", "10", "--grid", "64"],
    "check-direct-circle-certified": ["check", "direct", "--system", "identity1",
                                      "--method", "rotation:0.02", "--x", "0.3",
                                      "--eps", "0.1", "--N", "10", "--grid", "64"],
    "check-inverse-cat-perturbed-affine": ["check", "inverse", "--system", "cat",
                                           "--method", "perturb:translation:0.001",
                                           "--x", "0.2,0.3", "--eps", "0.05", "--N", "20"],
    "check-inverse-golden-perturbed-certified": ["check", "inverse", "--system", "golden",
                                                 "--method", "perturb:translation:0.01",
                                                 "--x", "0.0", "--eps", "0.1", "--N", "25",
                                                 "--grid", "1024"],
    "check-weak-block-certified": ["check", "weak", "--system",
                                   '{"kind":"linear","matrix":[[1,0],[0,-1]]}',
                                   "--method", '{"kind":"translate-block","delta":0.01,"block":-1}',
                                   "--x", "0,0", "--eps", "0.1", "--N", "25", "--grid", "64"],
    "check-inverse-cat-perturbed-no-bound": ["check", "inverse", "--system", "cat",
                                             "--method", "perturb:shear-sin:0.001",
                                             "--x", "0.2,0.3", "--eps", "0.1", "--N", "40"],
    "check-inverse-shear-sin-long": ["check", "inverse", "--system", "shear",
                                     "--method", "perturb:shear-sin:0.001:0",
                                     "--x", "0.7621155845848191,0.7847298237460361",
                                     "--eps", "0.1", "--N", "300", "--grid", "64"],
    "check-orbital-cat-perturbed-newton": ["check", "orbital", "--system", "cat",
                                           "--method", "perturb:shear-sin:0.001",
                                           "--x", "0.2,0.3", "--eps", "0.1", "--N", "30"],
    "check-inverse-cat-perturbed-polish": ["check", "inverse", "--system", "cat",
                                           "--method", "perturb:shear-sin:0.01:0",
                                           "--x", "0.2,0.3", "--eps", "0.1", "--N", "30",
                                           "--grid", "64"],
}


def run(name: str, out: Path) -> int:
    """Run case ``name`` through the CLI, writing its output to ``out``; returns the exit code."""
    from shadowlab import cli

    argv = list(CASES[name]) + ["--threads", "2", "--out", str(out)]
    if argv[0] == "check":
        argv.append("--timings")
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def main(argv=None) -> int:
    # No options: --help prints this module's docstring, anything else exits 2
    # before a golden file is written.
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    for name in CASES:
        code = run(name, HERE / f"{name}.json")
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
