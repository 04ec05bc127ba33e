"""Golden snapshot guard: experiment reports and check records stay byte-identical.

The cases and their generator live in ``tests/golden/generate.py``; each case
is rerun here and its output compared with the committed file byte for byte.
The same run checks the outcome contract on every record it produced, the
verdict records inside experiment reports included: a failed record carries
a Lipschitz bound and satisfies the covering inequality, an inconclusive one
names its reason, and the exit code is the one its outcome (or, for an
experiment, its conclusion) maps to.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


CHECK_EXIT = {"tracked": 0, "failed": 3, "inconclusive": 4}
EXPERIMENT_EXIT = {"consistent": 0, "inconsistent": 5, "inconclusive": 4}


def assert_outcome_contract(rec):
    """A failed record is a proof, an inconclusive one says why, a tracked one has a witness."""
    if rec["outcome"] == "tracked":
        assert "witness" in rec and rec["achieved"] < rec["eps"]
    elif rec["outcome"] == "failed":
        assert rec["certified"] is True and "reason" not in rec
        assert rec["min_over_grid"] - rec["lipschitz_bound"] * rec["grid_step"] / 2 > rec["eps"]
    else:
        assert rec["outcome"] == "inconclusive" and rec["certified"] is False
        assert rec["reason"] == ("grid" if "lipschitz_bound" in rec else "no-lipschitz")


@pytest.mark.parametrize("name", list(generate.CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    code = generate.run(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    report = json.loads(out.read_text())
    if "verdicts" in report:
        assert code == EXPERIMENT_EXIT[report["conclusion"]]
        records = [e["record"] for e in report["verdicts"]]
    else:
        assert code == CHECK_EXIT[report["outcome"]]
        records = [report]
    for rec in records:
        assert_outcome_contract(rec)


@pytest.mark.parametrize("arg, code", [("--bogus", 2), ("--help", 0)])
def test_generator_writes_nothing_unless_called_bare(arg, code, tmp_path):
    # A copy writes its golden files next to itself, so a run that ignored its
    # arguments would leave them in tmp_path rather than in the snapshot.
    script = tmp_path / "generate.py"
    shutil.copy(GOLDEN / "generate.py", script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script), arg], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert not list(tmp_path.glob("*.json"))
    if arg == "--help":
        assert "Regenerate the golden snapshot" in proc.stdout
