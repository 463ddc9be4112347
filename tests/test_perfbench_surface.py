"""The library surface the benchmark reads, checked without changing it.

``perfbench/spans.py`` wraps library functions by module and name, and each
workload gates its own results.  A refactor that renames a wrapped function
or changes a result the gate reads then fails here, on the workloads'
warm-up instances, instead of only in a benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in spans.SPANS])
def test_spanned_functions_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", ["certify-small", "variety-large", "dilate"])
def test_warm_up_instance_passes_the_gate(name, tmp_path):
    w = workloads.WORKLOADS[name](1, str(tmp_path))
    try:
        inst = w.warm_up()
        assert w.check(inst, w.summarize(inst, w.run(inst))) == []
        raw, collected = w.run_traced(inst, spans.Recorder())
        assert w.check(inst, w.summarize(inst, raw)) == []
        assert collected["busy"]
    finally:
        w.close()


def test_cli_cold_commands_pass_the_gate():
    """cli-cold's four commands on its first pair, through its own gate: the
    one gate that parses CLI output (the ``dilate`` JSON and the ``variety``
    stderr).  The root is the repository, whose ``src`` the children run."""
    w = workloads.WORKLOADS["cli-cold"](1, str(PERFBENCH.parent))
    try:
        insts = w.instances(0)[:4]
        assert [inst.args[0] for inst in insts] == list(workloads.CliCold.COMMANDS)
        for inst in insts:
            assert w.check(inst, w.summarize(inst, w.run(inst))) == [], inst.label
    finally:
        w.close()
    assert not Path(w.tmp).exists()
