"""Seconds-long self-check of the benchmark harness, run from the root of a
checkout:

    python3 bench/smoke.py

It runs the `smoke` workload (Reed-Solomon over GF(5), d = 1..3) untraced
and traced, checks that every metric BENCHMARK.json names is emitted with
its unit, and checks that the correctness rule rejects deliberately wrong
reference rows.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from paramcodes import cli  # noqa: E402

import workloads  # noqa: E402
from workloads import Ref  # noqa: E402


def check_emitted(spec: dict, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"trace {trace}: {result['failed']} of "
                        f"{result['attempted']} rows failed")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"trace {trace}: metrics {got} differ from {want}")
    return problems


def check_rule() -> list[str]:
    """The rule accepts the real table and rejects each wrong reference."""
    inst = workloads.instances("smoke", 0)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(inst.cli_args())
    table = out.getvalue()
    problems = []
    errors, exact = workloads.check_table(inst, table)
    if errors or exact != 3:
        problems.append(f"true references rejected: {errors}, exact {exact}")
    wrong = {
        "dimension": Ref(4, 4, 2),
        "distance": Ref(4, 3, 3),
        "interval": Ref(4, 3, None, (3, 4)),
    }
    for what, ref in wrong.items():
        bad = dataclasses.replace(inst, refs={**inst.refs, 2: ref})
        errors, _ = workloads.check_table(bad, table)
        if len(errors) != 1:
            problems.append(f"wrong {what} at d=2 gave {errors}")
    truncated = json.dumps(json.loads(table)[:2])
    if len(workloads.check_table(inst, truncated)[0]) != 3:
        problems.append("a missing row was not rejected")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_rule() + check_emitted(spec, 0) + check_emitted(spec, 1)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
