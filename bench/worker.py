"""One pass over a workload in a fresh interpreter, as a user's process
would run it.

    python3 bench/worker.py cli|trace WORKLOAD SEED

`cli` prints every table of the workload through `paramcodes.cli.main`
and times the whole pass; `trace` runs the traced replay and its probes.
The last line of standard output is one JSON object with the results.

The `cli` pass also reports the speed of the core it ran on, sampled all
through the pass (see speed.py); the sampling's own seconds are taken out
of the pass's times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import paramcodes  # noqa: E402
from paramcodes import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def run_cli(insts) -> dict:
    tables = []
    probe = SpeedProbe()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with probe:
        for inst in insts:
            out = io.StringIO()
            error = None
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(inst.cli_args())
            except Exception:  # a crash fails this instance's rows, not the run
                code, error = None, traceback.format_exc()
            tables.append({"exit": code, "stdout": out.getvalue(), "error": error})
    return {"wall_s": time.perf_counter() - wall0 - sum(probe.walls),
            "cpu_s": time.process_time() - cpu0 - sum(probe.cpus),
            "speed": probe.speed(), "probes": len(probe.walls), "tables": tables}


def run_trace(insts) -> dict:
    tracer = tracing.Tracer()
    tables, counters, records = [], {}, {}
    for inst in insts:
        try:
            text, counters[inst.name], records[inst.name] = \
                tracing.replay_instance(inst, tracer)
            tables.append({"exit": 0, "stdout": text + "\n", "error": None})
        except Exception:  # a crash fails this instance's rows, not the run
            tables.append({"exit": None, "stdout": "",
                           "error": traceback.format_exc()})
    for k, inst in enumerate(insts):
        if inst.name not in records:
            continue
        try:
            tracing.probe(records[inst.name])
        except Exception:  # as above
            del records[inst.name]
            tables[k] = {"exit": None, "stdout": "", "error": traceback.format_exc()}
    return {"spans": tracer.spans, "counters": counters, "records": records,
            "tables": tables}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if not Path(paramcodes.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"paramcodes imported from {paramcodes.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    insts = workloads.instances(workload, seed)
    result = run_cli(insts) if mode == "cli" else run_trace(insts)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
