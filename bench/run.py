"""Benchmark of the paramcodes pipeline, run from the root of a checkout:

    python3 bench/run.py --workload search --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics.  Whole passes over the workload,
each in a fresh worker process that prints every table through
`paramcodes.cli.main`, repeat for about --seconds; every printed row is
checked against its reference (see workloads.py).  Before each pass, set-up
(cold import of `paramcodes.cli` plus `FieldSpec.of` for the workload's
fields) is timed in fresh interpreters, so that its samples, like the
passes', spread over the whole run.

`table_s`, `table_cpu_s` and `setup_s` are seconds at a reference core
speed: each sample is multiplied by the speed of the core measured while the
pass ran, or right after the set-up (see speed.py), so that runs made
minutes apart on a shared host can be compared.  The raw times are printed
and kept in .bench_results/ beside them.

--trace 1 measures the per-layer metrics: an untraced pass and a traced
replay (see tracing.py) in turn, for about --seconds.  The replay's tables
must equal the untraced output.

Human-readable lines come first; the last line of standard output is the
JSON result.  Results, with the environment and the spans, are also written
to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

import workloads  # noqa: E402

SETUP_PER_PASS = 2
DEADLINE_S = 170  # workers still running then are stopped, so a run ends within 180 s

# ok_frac is one minus the share of rows that failed or disagreed with their
# reference; the failure share itself would read 0 on correct code.
END_TO_END_UNITS = {
    "table_s": "s", "table_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "exact_frac": "frac", "ok_frac": "frac",
}

# The core's speed is sampled right after the timed import, so that the
# probe's own imports do not warm the import being timed.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import paramcodes.cli
from paramcodes.gf import FieldSpec
for field in sys.argv[2:]:
    q, _, mod = field.partition(":")
    FieldSpec.of(int(q), [int(c) for c in mod.split(",")] if mod else None)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range(10):
    probe.sample()
print(t1 - t0, probe.speed(), paramcodes.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.startswith("share."):
        return "frac"
    return "count"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts the child processes of one benchmark run, within a deadline."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, argv: list[str]) -> str:
        """Last line of the child's standard output; BenchError when it fails."""
        budget = DEADLINE_S - self.elapsed()
        if budget <= 1:
            raise BenchError("no time left before the deadline")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run([sys.executable, *argv], capture_output=True,
                                  text=True, timeout=budget, cwd=ROOT, env=env)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[0]} ran past the deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{argv[0]} exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return proc.stdout.strip().splitlines()[-1]

    def setup_seconds(self, fields: list[str]) -> tuple[float, float]:
        """Raw seconds of one cold set-up, and the core's speed then."""
        seconds, speed, module = self.child(
            ["-c", SETUP_CODE, str(BENCH), *fields]).split(" ", 2)
        if not Path(module).resolve().is_relative_to(SRC):
            raise BenchError(f"paramcodes imported from {module}, not {SRC}")
        return float(seconds), float(speed)

    def worker(self, mode: str, workload: str, seed: int) -> dict:
        return json.loads(self.child([str(BENCH / "worker.py"), mode, workload,
                                      str(seed)]))

    def passes(self, seconds: float, make_pass, at_least: int) -> list:
        """Repeat make_pass, at least *at_least* times, until the next one
        would end after *seconds*."""
        results, t0 = [], time.perf_counter()
        while True:
            results.append(make_pass())
            spent = time.perf_counter() - t0
            per_pass = spent / len(results)
            if len(results) >= at_least and (
                    spent + per_pass > seconds
                    or self.elapsed() + 2 * per_pass > DEADLINE_S):
                return results


class Tally:
    """Rows attempted, failed and settled exactly, with the failure reasons."""

    def __init__(self):
        self.attempted = self.failed = self.exact = 0
        self.errors: list[str] = []

    def add(self, insts, tables, expected=None) -> None:
        """Check each instance's printed table; with *expected*, the tables
        must also equal those texts."""
        for k, (inst, table) in enumerate(zip(insts, tables)):
            rows = len(inst.degree_list())
            self.attempted += rows
            if table["exit"] != 0:
                errors = [f"{inst.name}: exit {table['exit']} {table['error'] or ''}"]
                errors *= rows
            elif expected is not None and table["stdout"] != expected[k]["stdout"]:
                errors = [f"{inst.name}: traced replay differs from the CLI"] * rows
            else:
                errors, exact = workloads.check_table(inst, table["stdout"])
                self.exact += exact
            self.failed += len(errors)
            self.errors += errors[:3]

    def result(self, metrics: dict, units) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units(name)}
                            for name, value in metrics.items()}}


def percentile_note(samples: list[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[p - 1]
            return f"p{p} {cut:.4f} s"
    return "no percentile (fewer than 20 samples)"


def untraced(runner: Runner, workload: str, seed: int, seconds: float):
    insts = workloads.instances(workload, seed)
    fields = sorted({f"{i.q}:{','.join(map(str, i.modulus))}" if i.modulus
                     else str(i.q) for i in insts})
    runner.setup_seconds(fields)  # compiles the byte code, as an installed package has
    setup = []
    tally = Tally()

    def one_pass():
        setup.extend(runner.setup_seconds(fields) for _ in range(SETUP_PER_PASS))
        p = runner.worker("cli", workload, seed)
        tally.add(insts, p.pop("tables"))
        return p

    passes = runner.passes(seconds, one_pass, at_least=2)
    walls = [p["wall_s"] * p["speed"] for p in passes]
    raw = [p["wall_s"] for p in passes]
    print(f"setup_s samples: {' '.join(f'{s * v:.4f}' for s, v in setup)}; "
          f"raw median {statistics.median(s for s, _ in setup):.4f}")
    print(f"table_s samples: {' '.join(f'{w:.3f}' for w in walls)}; "
          f"median over {len(walls)} passes, {percentile_note(walls)}")
    print(f"raw table_s samples: {' '.join(f'{w:.3f}' for w in raw)}; "
          f"median {statistics.median(raw):.3f}")
    speeds = " ".join(f"{p['speed']:.3f}" for p in passes)
    print(f"core speed: {speeds}")
    metrics = {
        "table_s": statistics.median(walls),
        "table_cpu_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
        "setup_s": statistics.median(s * v for s, v in setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "exact_frac": tally.exact / tally.attempted,
        "ok_frac": 1 - tally.failed / tally.attempted,
    }
    return tally, metrics, {"setup_samples": setup, "passes": passes}


def layer_metrics(table_s: float, traced: dict) -> dict:
    """Per-layer metrics of one traced replay, against the untraced
    table time *table_s* of the pass run beside it."""
    spans = traced["spans"]
    busy: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        busy[name] = busy.get(name, 0.0) + end - start
    roots = {i for i, s in enumerate(spans) if s[3] is None}
    top_level = sum(end - start for _, start, end, parent, _ in spans
                    if parent in roots)
    traced_s = busy.get("cli.instance", 0.0)
    recs = [r for recs in traced["records"].values() for r in recs]
    rref = sum(r["rref_s"] for r in recs)
    searched_self = sum(r["distance_s"] - r["rref_s"] for r in recs if r["searched"])
    count = {}
    for c in traced["counters"].values():
        for key, value in c.items():
            count[key] = count.get(key, 0) + value
    t = {name: busy.get(name, 0.0) for name in (
        "ideals.enumerate", "groebner.eliminate", "groebner.homogenize",
        "hilbert.profile", "hilbert.value", "codes.eval_matrix", "linalg.rank",
        "codes.distance")}
    metrics = {
        "ideals.enumerate_s": t["ideals.enumerate"],
        "ideals.points": count.get("points", 0),
        "ideals.useful_frac": count.get("points", 0) / max(count.get("tuples", 0), 1),
        "groebner.eliminate_s": t["groebner.eliminate"],
        "groebner.homogenize_s": t["groebner.homogenize"],
        "groebner.basis_size": count.get("basis_size", 0),
        "groebner.basis_terms": count.get("basis_terms", 0),
        "hilbert.profile_s": t["hilbert.profile"],
        "hilbert.value_s": t["hilbert.value"],
        "codes.eval_matrix_s": t["codes.eval_matrix"],
        "codes.eval_entries": count.get("eval_entries", 0),
        "linalg.rank_s": t["linalg.rank"],
        "linalg.rref_s": rref,
        "linalg.cells": count.get("cells", 0),
        "codes.distance_s": t["codes.distance"],
        # estimate: the distance call minus the rref it repeats, leaving the
        # codeword search or the weight-one scan
        "codes.distance_self_s": t["codes.distance"] - rref,
        "codes.codewords": count.get("codewords", 0),
        "codes.codewords_per_s": (count.get("codewords", 0) / searched_self
                                  if searched_self > 0 else 0.0),
        "codes.distance_t2_s": sum(r["t2_s"] for r in recs),
        "cli.unattributed_s": table_s - top_level,
        "trace.overhead_s": traced_s - table_s,
    }
    # Shares are of the traced table time, so that spans and base come from
    # the same pass; the cli share is what an instance spends outside the
    # module calls (field and matrix set-up, rendering).
    shares = {
        "ideals": t["ideals.enumerate"],
        "groebner": t["groebner.eliminate"] + t["groebner.homogenize"],
        "hilbert": t["hilbert.profile"] + t["hilbert.value"],
        "codes": t["codes.eval_matrix"] + metrics["codes.distance_self_s"],
        "linalg": t["linalg.rank"] + rref,
        "cli": traced_s - top_level,
    }
    metrics.update({f"share.{layer}": v / traced_s for layer, v in shares.items()})
    return metrics


def traced(runner: Runner, workload: str, seed: int, seconds: float):
    insts = workloads.instances(workload, seed)
    tally = Tally()
    all_spans = []

    def one_pair():
        plain = runner.worker("cli", workload, seed)
        replay = runner.worker("trace", workload, seed)
        tally.add(insts, plain["tables"])
        tally.add(insts, replay["tables"], expected=plain["tables"])
        t2_wrong = sum(not r["t2_agrees"] for recs in replay["records"].values()
                       for r in recs)
        tally.attempted += sum(map(len, replay["records"].values()))
        if t2_wrong:
            tally.failed += t2_wrong
            tally.errors.append(f"{t2_wrong} distances differ with two threads")
        all_spans.append(replay["spans"])
        return layer_metrics(plain["wall_s"], replay)

    pairs = runner.passes(seconds, one_pair, at_least=1)
    metrics = {name: statistics.median(p[name] for p in pairs) for name in pairs[0]}
    shares = ", ".join(f"{name[6:]} {v:.3f}" for name, v in metrics.items()
                       if name.startswith("share."))
    print(f"median over {len(pairs)} traced/untraced pairs")
    print(f"shares of the traced table time: {shares}")
    return tally, metrics, {"spans": all_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paramcodes" / "__init__.py").is_file():
        print(f"bench: no paramcodes sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))
    runner = Runner()
    measure = traced if args.trace else untraced
    try:
        tally, metrics, detail = measure(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    units = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    result = tally.result(metrics, units)
    for name, m in result["metrics"].items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    for error in tally.errors:
        print(f"FAILED {error}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "environment": env,
                               "result": result, "errors": tally.errors,
                               **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
