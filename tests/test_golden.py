"""Golden snapshot guard: experiment reports and check records stay byte-identical.

The cases and their generator live in ``tests/golden/generate.py``; each case
is rerun here and its output compared with the committed file byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


@pytest.mark.parametrize("name", list(generate.CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.json"
    generate.run(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
