"""Spans recorded from outside the program, around its calls into each layer.

The benchmark does not edit ``andovar``.  For a traced instance it replaces
the public functions listed in ``SPANS`` with timing wrappers in every
``andovar`` module that holds a reference to them, runs the instance, and
puts the originals back.  Calls a wrapped function makes to another wrapped
function become child spans, so each span's self time excludes its
children.  Counts are read off the return value at the same boundary.

Standard library only: the traced CLI launcher imports this module before
``andovar`` so that the import of the program can be timed on its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _sup_counts(result):
    return {
        "vn.sup_on_variety.points": result.grid,
        "vn.sup_on_variety.kept": result.grid - result.skipped,
    }


def _bidisc_counts(result):
    return {"vn.sup_on_bidisc.grid_points": result.grid ** 2}


def _samples_counts(result):
    return {"variety.boundary_samples.points":
            len(result.theta_grid) + len(result.skipped_thetas)}


def _scan_counts(result):
    return {
        "transfer.boundary_scan.points": len(result.thetas) + len(result.skipped),
        "transfer.boundary_scan.skipped": len(result.skipped),
    }


def _dilation_counts(result):
    # computed from the array shapes, not measured
    return {
        "dilation.rows": result.rows,
        "dilation.dense_bytes": result.Pi.nbytes + result.Mz.nbytes + result.MPsi.nbytes,
    }


# (defining module, function, span name, counts read off the result)
SPANS = (
    ("andovar.pair_analysis", "validate_pair", "pair_analysis.validate", None),
    ("andovar.pair_analysis", "defect", "pair_analysis.defect", None),
    ("andovar.pair_analysis", "truncation_degree", "pair_analysis.truncation_degree", None),
    ("andovar.colligation", "build_colligation", "colligation.build", None),
    ("andovar.transfer", "canonical_split", "transfer.canonical_split", None),
    ("andovar.transfer", "boundary_scan", "transfer.boundary_scan", _scan_counts),
    ("andovar.variety", "boundary_samples", "variety.boundary_samples", _samples_counts),
    ("andovar.variety", "sample_to_csv", "variety.sample_to_csv", None),
    ("andovar.variety", "symmetry_residual", "variety.symmetry_residual", None),
    ("andovar.vn", "eval_poly_pair", "vn.lhs", None),
    ("andovar.vn", "sup_on_variety", "vn.sup_on_variety", _sup_counts),
    ("andovar.vn", "sup_on_bidisc", "vn.sup_on_bidisc", _bidisc_counts),
    ("andovar.dilation", "build_dilation", "dilation.build", _dilation_counts),
    ("andovar.dilation", "intertwining_residuals", "dilation.intertwining", None),
    ("andovar.dilation", "compression_residuals", "dilation.compression", None),
    ("andovar.dilation", "minimality_defect", "dilation.minimality", None),
    ("andovar.dilation", "mpsi_isometry_residual", "dilation.mpsi_isometry", None),
)

# counts whose aggregate is a maximum (they predict peak memory), not a sum
MAX_COUNTS = frozenset({"dilation.rows", "dilation.dense_bytes"})


class _ModuleView:
    """Stand-in for a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Recorder:
    """Spans of one traced instance, kept in memory until ``collect``."""

    def __init__(self):
        self._spans = []   # [name, start, end, parent index or None]
        self._stack = []
        self._counts = {}
        self._patched = []

    def span(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self._spans)
            parent = self._stack[-1] if self._stack else None
            self._spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._spans[idx][2] = time.perf_counter()
            if counts is not None:
                self.count(counts(result))
            return result
        return wrapper

    def count(self, values):
        for key, value in values.items():
            old = self._counts.get(key, 0)
            self._counts[key] = max(old, value) if key in MAX_COUNTS else old + value

    def install(self):
        """Wrap every function in SPANS wherever an andovar module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "andovar" or name.startswith("andovar.")]
        for mod_name, attr, span_name, counts in SPANS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self.span(span_name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        # vn_report takes the norm of p(T1, T2) through its module alias
        # ``mc``, and that is the only norm it takes
        vn = importlib.import_module("andovar.vn")
        mc = vn.mc
        self._patched.append((vn, "mc", mc))
        vn.mc = _ModuleView(mc, operator_norm=self.span("vn.lhs", mc.operator_norm))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def collect(self):
        """Self time per span name, top-level covered time and counts; resets."""
        child_time = defaultdict(float)
        for name, start, end, parent in self._spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = defaultdict(float)
        covered = 0.0
        for idx, (name, start, end, parent) in enumerate(self._spans):
            busy[name] += end - start - child_time[idx]
            if parent is None:
                covered += end - start
        out = {"busy": dict(busy), "covered": covered, "counts": dict(self._counts)}
        self._spans, self._counts = [], {}
        return out
