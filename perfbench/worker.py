"""One workload in one process: set up, then the timed closed loop.

Started by ``run.py``; not meant to be run by hand.  Prints a JSON line
``{"ready": ...}`` when set-up is done (the parent times the process up to
that line), and, unless ``--setup-only`` is given, a JSON line with the raw
samples when the timed phase ends.
"""

from __future__ import annotations

import os

# one BLAS thread, at or below nproc, set before numpy loads: a changed
# count moves the dense workloads by tens of percent
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402

_t = time.perf_counter()
import andovar.cli  # noqa: E402,F401
IMPORT_MS = (time.perf_counter() - _t) * 1e3

import numpy as np  # noqa: E402

import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "andovar": os.path.relpath(os.path.dirname(andovar.__file__), ROOT),
    }


def self_check(wl) -> tuple[int, int, list[str]]:
    """Warm up on a small instance; the gate must pass it and flag every
    deliberately corrupted copy of its result."""
    inst = wl.warm_up()
    try:
        summary = wl.summarize(inst, wl.run(inst))
    except Exception as exc:  # reported, and the run is marked incorrect
        return 0, 0, [f"{type(exc).__name__}: {exc}"]
    problems = wl.check(inst, summary)
    corrupted = wl.corruptions(summary)
    caught = sum(1 for bad in corrupted if wl.check(inst, bad))
    return caught, len(corrupted), problems


class Layers:
    """Per-layer totals over the traced instances."""

    def __init__(self):
        self.busy = {}
        self.counts = {}
        self.covered = 0.0
        self.instance_s = 0.0
        self.instances = 0

    def add(self, collected: dict, instance_s: float):
        for name, value in collected["busy"].items():
            self.busy[name] = self.busy.get(name, 0.0) + value
        for name, value in collected["counts"].items():
            old = self.counts.get(name, 0)
            self.counts[name] = max(old, value) if name in spans.MAX_COUNTS else old + value
        self.covered += collected["covered"]
        self.instance_s += instance_s
        self.instances += 1

    def to_dict(self) -> dict:
        return {"busy": self.busy, "counts": self.counts, "covered_s": self.covered,
                "instance_s": self.instance_s, "instances": self.instances}


def timed_phase(wl, seconds: float, trace: bool) -> dict:
    """Whole passes until the pass boundary nearest to ``seconds``.

    Input generation and the gate run between instances and are taken out of
    the phase's wall time.  With ``trace`` every instance runs twice, once
    plain and once traced, in alternating order.
    """
    recorder = spans.Recorder() if trace else None
    layers = Layers()
    plain_ms, traced_ms, failures = [], [], []
    attempted = failed = passes = 0
    excluded = 0.0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        batch = wl.instances(passes)
        excluded += time.perf_counter() - t
        for i, inst in enumerate(batch):
            modes = ((False, True) if (i + passes) % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    if traced:
                        raw, collected = wl.run_traced(inst, recorder)
                    else:
                        raw = wl.run(inst)
                    dt = time.perf_counter() - t0
                    t = time.perf_counter()
                    problems = wl.check(inst, wl.summarize(inst, raw))
                    excluded += time.perf_counter() - t
                except Exception as exc:  # an instance that raises is a failure
                    problems = [f"{type(exc).__name__}: {exc}"]
                raw = None
                if problems:
                    failed += 1
                    if len(failures) < MAX_REPORTED_FAILURES:
                        failures.append(f"{inst.label}: {'; '.join(problems)}")
                    continue
                if traced:
                    traced_ms.append(dt * 1e3)
                    layers.add(collected, dt)
                else:
                    plain_ms.append(dt * 1e3)
        passes += 1
        elapsed = time.perf_counter() - start - excluded
        if elapsed * (1 + 0.5 / passes) >= seconds:
            break
    wall = time.perf_counter() - start - excluded
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    return {
        "plain_ms": plain_ms, "traced_ms": traced_ms, "wall_s": wall, "passes": passes,
        "attempted": attempted, "failed": failed, "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "layers": layers.to_dict(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        caught, corrupted, problems = self_check(wl)
        ready = {"ready": True, "import_ms": IMPORT_MS, "provenance": provenance(),
                 "self_check": {"caught": caught, "corrupted": corrupted,
                                "warm_up_problems": problems}}
        if isinstance(wl, workloads.CertifySmall):
            ready["edge_share"] = wl.edge_share()
        print(json.dumps(ready), flush=True)
        if args.setup_only:
            return 0
        print(json.dumps(timed_phase(wl, args.seconds, bool(args.trace))), flush=True)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
