"""The scripts under scripts/ reproduce what the repository commits."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_witness_script_reproduces_the_committed_witness(capsys):
    module = _load("gen_sharpness_witness")
    module.main()
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (ROOT / "tests" / "data" / "sharpness_witness.json").read_bytes()


def test_output_digest_is_deterministic():
    module = _load("output_digest")
    population = {label: (T1, T2) for label, T1, T2 in module.population()}
    assert len(population) == 84
    for label in ("diag-2-0", "t2-unitary"):
        first = module.pair_digests(*population[label])
        assert first == module.pair_digests(*population[label])
        names = [name for name, _ in first]
        assert names[:2] == ["report", "colligation"] and "dilation.residuals" in names
        assert all(len(digest) == 16 for _, digest in first)
