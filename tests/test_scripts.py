"""The scripts under scripts/ reproduce what the repository commits."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_witness_script_reproduces_the_committed_witness(capsys):
    path = ROOT / "scripts" / "gen_sharpness_witness.py"
    spec = importlib.util.spec_from_file_location("gen_sharpness_witness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (ROOT / "tests" / "data" / "sharpness_witness.json").read_bytes()
