"""Benchmark of the andovar library and command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the repository root; it imports the program from ``src/``.  The
workloads, metrics and their bounds are listed in ``BENCHMARK.json`` and
explained in ``perfbench/README.md``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics; the lines before it print every
metric by name and unit, the provenance of the run and the gate's verdict.
``--workload all`` runs every workload untraced and traced.

This process imports no numpy.  Each measurement runs in a worker process
(``worker.py``) that holds only that workload, so the worker's peak resident
memory is the workload's.  Set-up is timed in several fresh workers and the
median reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
# the keys of workloads.WORKLOADS, which this process does not import
WORKLOADS = ("certify-small", "variety-large", "dilate", "cli-cold")
SETUP_REPEATS = 5          # fresh processes whose set-up is timed, the measured one last
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10           # samples the tail percentile must leave above it

# North-star figures of ROADMAP item 1, set beside the traced run's figures
BASELINES = (
    ("vn_report per instance", 200.0, "certify-small", "instance_ms_p50"),
    ("variety sup", 156.0, "certify-small", "vn.sup_on_variety.busy_s"),
    ("torus sup", 40.0, "certify-small", "vn.sup_on_bidisc.busy_s"),
    ("pipeline up to the split", 3.0, "certify-small", "pipeline"),
    ("CLI import", 300.0, None, "cli.import_ms"),
)
PIPELINE = ("pair_analysis.validate.busy_s", "pair_analysis.defect.busy_s",
            "colligation.build.busy_s", "transfer.canonical_split.busy_s")


class BenchError(Exception):
    pass


def spawn(root: Path, workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool):
    """Run one worker; returns (set-up seconds, ready record, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or not line:
        raise BenchError(f"worker for {workload} exited with code {code}")
    ready = json.loads(line)
    result = json.loads(rest.strip().splitlines()[-1]) if not setup_only else None
    return setup_s, ready, result


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples above it, never below p50."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setups, result):
    plain = result["plain_ms"] or [0.0]
    value, _ = tail(plain)
    return {
        "setup_s": statistics.median(setups),
        "instance_ms_p50": statistics.median(plain),
        "instance_ms_tail": value,
        "instances_per_s": len(result["plain_ms"]) / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_share": (result["attempted"] - result["failed"]) / result["attempted"],
    }


def per_layer(names, imports_ms, result):
    layers = result["layers"]
    n = max(layers["instances"], 1)
    counts = layers["counts"]
    out = {}
    for name in names:
        if name.endswith(".busy_s"):
            value = layers["busy"].get(name[: -len(".busy_s")], 0.0) / n
        elif name == "vn.sup_on_variety.kept_ratio":
            points = counts.get("vn.sup_on_variety.points", 0)
            value = counts.get("vn.sup_on_variety.kept", 0) / points if points else 0.0
        elif name == "trace.unattributed_share":
            value = 1.0 - layers["covered_s"] / layers["instance_s"] if layers["instance_s"] else 0.0
        elif name == "trace.overhead_ms":
            value = (statistics.median(result["traced_ms"] or [0.0])
                     - statistics.median(result["plain_ms"] or [0.0]))
        elif name == "cli.import_ms" and name not in counts:
            value = statistics.median(imports_ms)   # paid once, in set-up
        elif name in spans.MAX_COUNTS:
            value = counts.get(name, 0)
        else:
            value = counts.get(name, 0) / n
        out[name] = value
    return out


def git_commit(root: Path) -> str:
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "none (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "andovar").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_one(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int):
    """Measure one workload; print the human-readable lines; return the record."""
    setups, readies = [], []
    for i in range(SETUP_REPEATS):
        setup_s, ready, result = spawn(root, workload, seed, seconds, trace,
                                       setup_only=i < SETUP_REPEATS - 1)
        setups.append(setup_s)
        readies.append(ready)
    prov = dict(ready["provenance"], nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), seed=seed,
                commit=git_commit(root), source_digest=source_digest(root))
    check = ready["self_check"]
    self_ok = check["caught"] == check["corrupted"] and not check["warm_up_problems"]

    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"gate self-check: {check['caught']}/{check['corrupted']} corrupted results "
          f"flagged; warm-up problems: {check['warm_up_problems'] or 'none'}")
    if "edge_share" in ready:
        print(f"edge instances (near-pole pair, diagonal pairs with ||T2|| within 1e-4 "
              f"of 1): {ready['edge_share']:.1%} of each pass")
    value, pct = tail(result["plain_ms"] or [0.0])
    print(f"timed phase: {result['passes']} passes, {result['wall_s']:.2f} s, "
          f"{len(result['plain_ms'])} plain and {len(result['traced_ms'])} traced samples, "
          f"tail = p{pct:.1f} of {len(result['plain_ms'])}, "
          f"failed {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, [r["import_ms"] for r in readies], result)
        print("baselines (ROADMAP north star -> this run):")
        for label, base, where, key in BASELINES:
            if where not in (None, workload):
                continue
            if key == "instance_ms_p50":
                got = statistics.median(result["plain_ms"] or [0.0])
            elif key == "pipeline":
                got = sum(values[k] for k in PIPELINE) * 1e3
            elif key.endswith("_s"):
                got = values[key] * 1e3
            else:
                got = values[key]
            print(f"  {label:<26} {base:>8.1f} ms -> {got:8.1f} ms")
    else:
        values = end_to_end(setups, result)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, v in values.items():
        print(f"  {name:<40} {v:>14.6g} {units[name]}")
    correct = self_ok and result["failed"] == 0
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "andovar" / "__init__.py").is_file():
        print(f"error: no src/andovar under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            record = run_one(root, spec, args.workload, args.seed, seconds, args.trace)
        else:
            records = {(w, t): run_one(root, spec, w, args.seed, seconds, t)
                       for w in WORKLOADS for t in (0, 1)}
            record = {
                "correct": all(r["correct"] for r in records.values()),
                "attempted": sum(r["attempted"] for r in records.values()),
                "failed": sum(r["failed"] for r in records.values()),
                "metrics": {f"{w}.{k}": v for (w, _), r in records.items()
                            for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
