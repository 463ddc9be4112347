"""Traced stand-in for ``python -m andovar.cli``.

    python perfbench/cli_traced.py SPANS_OUT COMMAND [ARGS...]

Runs one CLI command in this fresh process with the layer spans installed,
then writes the spans, the import time and the run time of the command to
SPANS_OUT as JSON and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import andovar.cli as cli
    t1 = time.perf_counter()
    recorder = spans.Recorder()
    with recorder:
        t2 = time.perf_counter()
        code = cli.main(argv)
        t3 = time.perf_counter()
    collected = recorder.collect()
    # the import and the command are this process's top-level spans
    collected["covered"] = (t1 - t0) + (t3 - t2)
    collected["counts"].update({"cli.import_ms": (t1 - t0) * 1e3,
                                "cli.run_ms": (t3 - t2) * 1e3})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(collected, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
