"""Benchmark workloads: the instance ladders, the seed permutation, and the
reference tables with the rule that judges every printed row.

Each workload stresses one layer of the pipeline and bypasses another:

  search     exhaustive codeword search on prime fields; negligible ideal
  ideal      Groebner elimination of the 4-cycle; trivial search and rank
  rank       exact rank of a 1728-column evaluation matrix; search over budget
  extension  the search and rank layers through GF(16) and GF(9) elements
  smoke      a seconds-long instance for checking the harness itself

BENCHMARK.json lists the first four; `smoke` is for bench/smoke.py.

References never come from the program under test: torus and Reed-Solomon
rows use closed forms computed here, the GF(5) triangle uses the golden
values of the acceptance suite, and the 4-cycle uses rows recorded from the
seed code.  Where no distance is known, a reported interval must nest inside
the interval the seed code reported, so a later change may tighten `1..13`
to an exact value without counting as a failure.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Ref:
    """Known parameters of one degree-d code."""

    length: int
    dim: int
    delta: Optional[int] = None
    seed_interval: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class Instance:
    name: str
    q: int
    rows: tuple[tuple[int, ...], ...]
    degrees: tuple[int, int]  # inclusive range
    modulus: Optional[tuple[int, ...]] = None
    refs: dict = field(default_factory=dict, compare=False, hash=False)
    # The seed permutes rows and columns unless this is False.
    permutable: bool = True

    def cli_args(self) -> list[str]:
        args = ["params", "--q", str(self.q)]
        if self.modulus:
            args += ["--modulus", " ".join(map(str, self.modulus))]
        lo, hi = self.degrees
        args += ["--matrix", "; ".join(" ".join(map(str, r)) for r in self.rows),
                 "--degrees", f"{lo}..{hi}", "--threads", "1", "--format", "json"]
        return args

    def degree_list(self) -> list[int]:
        lo, hi = self.degrees
        return list(range(lo, hi + 1))

    def permuted(self, seed: int) -> "Instance":
        """Rows and columns shuffled by the seed; seed 0 keeps them as
        written.  The point set's parameters are invariant, so the
        references carry over unchanged."""
        if seed == 0 or not self.permutable:
            return self
        rng = random.Random(f"{seed}:{self.name}")
        r = list(range(len(self.rows)))
        c = list(range(len(self.rows[0])))
        rng.shuffle(r)
        rng.shuffle(c)
        rows = tuple(tuple(self.rows[i][j] for j in c) for i in r)
        return Instance(self.name, self.q, rows, self.degrees, self.modulus,
                        self.refs, self.permutable)


# -- closed forms for the torus (Reed-Solomon is s = 1) --------------------------

def torus_dimension(q: int, s: int, d: int) -> int:
    """Standard monomials of the torus ideal (t_i^(q-1) - 1) of degree <= d."""
    return sum(1 for a in itertools.product(range(q - 1), repeat=s) if sum(a) <= d)


def torus_distance(q: int, s: int, d: int) -> int:
    """Minimum distance of the degree-d torus code: writing
    d - 1 = k(q-2) + r with 0 <= r < q-2, it is (q-1)^(s-k-1) (q-2-r)."""
    if d >= (q - 2) * s:
        return 1
    k, r = divmod(d - 1, q - 2)
    return (q - 1) ** (s - k - 1) * (q - 2 - r)


def torus_instance(name: str, q: int, s: int, degrees: tuple[int, int],
                   modulus: Optional[tuple[int, ...]] = None) -> Instance:
    rows = tuple(tuple(int(i == j) for j in range(s)) for i in range(s))
    refs = {d: Ref((q - 1) ** s, torus_dimension(q, s, d), torus_distance(q, s, d))
            for d in range(degrees[0], degrees[1] + 1)}
    return Instance(name, q, rows, degrees, modulus, refs)


TRIANGLE_GF5 = Instance(
    "triangle-gf5", 5, ((1, 1, 0), (0, 1, 1), (1, 0, 1)), (1, 5),
    refs={1: Ref(32, 4, 23), 2: Ref(32, 10, 8), 3: Ref(32, 20, None, (1, 13)),
          4: Ref(32, 29, None, (1, 4)), 5: Ref(32, 32, 1)})

# The written order stays on every seed: elimination time over 17 row or
# column orders of this matrix ranged from 2.4 s to 26.6 s (2-core Xeon,
# Python 3.11), so seed-chosen orders would spread the workload's timings
# beyond any usable bound.
CYCLE_GF7 = Instance(
    "cycle4-gf7", 7, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)), (1, 3),
    refs={1: Ref(216, 5, 150), 2: Ref(216, 14, None, (1, 203)),
          3: Ref(216, 30, None, (1, 187))},
    permutable=False)

WORKLOADS: dict[str, list[Instance]] = {
    "search": [TRIANGLE_GF5, torus_instance("torus-gf11-s2", 11, 2, (1, 13))],
    "ideal": [CYCLE_GF7],
    "rank": [torus_instance("torus-gf13-s3", 13, 3, (1, 6))],
    "extension": [torus_instance("rs-gf16", 16, 1, (1, 14), (1, 1, 0, 0, 1)),
                  torus_instance("torus-gf9-s3", 9, 3, (1, 4), (1, 0, 1))],
    "smoke": [torus_instance("rs-gf5", 5, 1, (1, 3))],
}


def instances(workload: str, seed: int) -> list[Instance]:
    return [inst.permuted(seed) for inst in WORKLOADS[workload]]


# -- the correctness rule ------------------------------------------------------------

EXACT_STATUSES = ("exact", "weight_one")


def check_row(ref: Ref, row: dict) -> Optional[str]:
    """None when the printed row agrees with its reference, else the reason.

    Length and dimension must match.  An exact distance must equal the known
    value (or lie in the seed's interval when none is known); an interval
    must contain the known value, or nest inside the seed's interval.  The
    Singleton columns must follow from the other columns."""
    if row.get("length") != ref.length or row.get("dim") != ref.dim:
        return (f"length/dim {row.get('length')}/{row.get('dim')}, "
                f"expected {ref.length}/{ref.dim}")
    status, delta = row.get("delta_status"), row.get("delta")
    if status in EXACT_STATUSES:
        if not isinstance(delta, int):
            return f"{status} distance {delta!r} is not an integer"
        lo = hi = delta
    elif status == "bounded":
        try:
            lo, hi = delta["lower"], delta["upper"]
        except (TypeError, KeyError):
            return f"bounded distance {delta!r} has no lower/upper"
    else:
        return f"distance status {status!r}"
    if ref.delta is not None:
        if not lo <= ref.delta <= hi:
            return f"distance {lo}..{hi} excludes the known value {ref.delta}"
    elif not ref.seed_interval[0] <= lo <= hi <= ref.seed_interval[1]:
        return f"distance {lo}..{hi} is not inside the seed's {ref.seed_interval}"
    if status in EXACT_STATUSES:
        defect = ref.length - ref.dim + 1 - delta
        if row.get("singleton_defect") != defect or row.get("mds") != (defect == 0):
            return "singleton_defect/mds disagree with length, dim and distance"
    elif row.get("singleton_defect") is not None or row.get("mds") is not None:
        return "singleton_defect/mds given for an inexact distance"
    return None


def check_table(inst: Instance, text: str) -> tuple[list[str], int]:
    """(one message per failed row, number of rows settled exactly) for the
    JSON table the CLI printed for *inst*."""
    degrees = inst.degree_list()
    try:
        rows = json.loads(text)
    except ValueError:
        return [f"{inst.name}: output is not JSON"] * len(degrees), 0
    if not isinstance(rows, list):
        return [f"{inst.name}: output is not a list of rows"] * len(degrees), 0
    if len(rows) != len(degrees):
        problem = f"{inst.name}: {len(rows)} rows for {len(degrees)} degrees"
        return [problem] * len(degrees), 0
    by_d = {r.get("d"): r for r in rows if isinstance(r, dict)}
    errors, exact = [], 0
    for d in degrees:
        row = by_d.get(d)
        problem = "row missing" if row is None else check_row(inst.refs[d], row)
        if problem:
            errors.append(f"{inst.name} d={d}: {problem}")
        elif row["delta_status"] in EXACT_STATUSES:
            exact += 1
    return errors, exact
