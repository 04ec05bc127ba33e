"""Golden snapshot guard: experiment reports and check records stay byte-identical.

The cases and their generator live in ``tests/golden/generate.py``; each case
is rerun here and its output compared with the committed file byte for byte.
"""

import importlib.util
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


@pytest.mark.parametrize("name", list(generate.CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    generate.run(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


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
