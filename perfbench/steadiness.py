"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--seed0 100]
                                    [--seconds S]

Runs ``run.py`` once per seed (seed0, seed0 + 1, ...), one run at a time,
and prints for each end-to-end metric its median, its quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median beside the metric's bound from ``BENCHMARK.json``.
A spread under a third of the bound is marked ``ok``; set-up time has no
spread limit, only a bound on its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    all_correct = True
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= record["correct"]
        for name in values:
            values[name].append(record["metrics"][name]["value"])
        print(f"seed {seed}: correct={record['correct']} "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    summary = {}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "ok": ok}
        print(f"{m['name']:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6} {'ok' if ok else 'WIDE'}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": seconds,
                      "correct": all_correct, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
