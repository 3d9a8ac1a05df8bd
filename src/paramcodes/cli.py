"""Command-line front end for the parameter pipeline.

Subcommands: params (full table), ideal (print a vanishing-ideal basis),
torus (the closed forms' table), verify (the checks of params --verify,
one line each).  Exit codes: 0 ok, 1 usage, 2 resource limit, 3 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import (
    DEFAULT_MD_BUDGET,
    CodeParameters,
    run_pipeline,
    torus_table,
)
from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec, _factor_prime_power
from .ideals import (
    ExponentMatrix,
    enumerate_points,
    vanishing_ideal_affine,
    vanishing_ideal_projective,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_INCONSISTENT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader of standard output closed it


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    q: int
    modulus: Optional[list[int]]
    matrix: ExponentMatrix
    degrees: list[int]
    md_budget: int = DEFAULT_MD_BUDGET
    output_format: str = "table"
    verify: bool = False

    def field(self) -> FieldSpec:
        return FieldSpec.of(self.q, self.modulus)


# -- config parsing ------------------------------------------------------------

def parse_degrees(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise UsageError(f"bad degree range {text!r}: need 0 <= min <= max")
    try:
        return list(range(lo, hi + 1))
    except (OverflowError, MemoryError) as exc:
        raise ResourceLimitError(f"degree range {text!r} is too long to list") from exc


def _int_list(text: str) -> list[int]:
    return [int(c) for c in text.replace(",", " ").split()]


def parse_matrix_flag(text: str) -> list[list[int]]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            rows.append(_int_list(chunk))
    if not rows:
        raise UsageError("empty matrix")
    return rows


def _parse_flag(flag: str, parse, text: str):
    """Parse a flag value, reporting a malformed one as a usage error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}") from exc


#: Each config key and the parser of its text.  Its flag's attribute is the
#: key with "-" as "_"; a matrix line is one row, --matrix all of them.
_CONFIG_KEYS = {"q": int, "modulus": _int_list, "matrix": _int_list,
                "degrees": parse_degrees, "md-budget": int, "format": str,
                "threads": int}


def parse_config_file(path: str, args: argparse.Namespace) -> dict:
    """Flat key-value lines, by flag attribute.  A key whose flag the
    subcommand of `args` lacks is refused."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # split at the first "=", or else at the first run of whitespace
        key, *rest = line.split("=" if "=" in line else None, 1)
        key, rest = key.strip(), rest[0].strip() if rest else ""
        if not rest:
            raise UsageError(f"{path}:{lineno}: key {key!r} has no value")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(
                f"{path}:{lineno}: key {key!r} does not apply to {args.command}")
        try:
            value = _CONFIG_KEYS[key](rest)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
        if key == "matrix":
            values.setdefault(attr, []).append(value)
        else:
            values[attr] = value
    return values


def build_config(args) -> RunConfig:
    """Merge config file and flags; flags win."""
    values: dict = {}
    if getattr(args, "config", None):
        values = parse_config_file(args.config, args)
    for key, parse in _CONFIG_KEYS.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is not None:
            parse = parse_matrix_flag if key == "matrix" else parse
            values[attr] = _parse_flag(key, parse, getattr(args, attr))

    if "q" not in values:
        raise UsageError("missing field order: give --q or a config with q")
    if "matrix" not in values:
        raise UsageError("missing exponent matrix: give --matrix or config rows")
    if hasattr(args, "degrees") and "degrees" not in values:
        raise UsageError("missing --degrees (inclusive, e.g. 1..5)")
    matrix = ExponentMatrix.of(values["matrix"])
    fmt = values.get("format", "table")
    if fmt not in ("table", "csv", "json"):
        raise UsageError(f"unknown format {fmt!r}: pick table, csv or json")
    md_budget = values.get("md_budget", DEFAULT_MD_BUDGET)
    if md_budget < 0:
        raise UsageError("md-budget must be >= 0")
    # the sweep runs on one thread: threads is checked and ignored
    if values.get("threads", 1) < 1:
        raise UsageError("threads must be >= 1")
    return RunConfig(
        q=values["q"],
        modulus=values.get("modulus"),
        matrix=matrix,
        degrees=values.get("degrees", []),
        md_budget=md_budget,
        output_format=fmt,
        verify=bool(getattr(args, "verify", False)),
    )


# -- output rendering ------------------------------------------------------------

_COLUMNS = ("d", "length", "dim", "delta", "delta_status",
            "singleton_defect", "mds")


def _row_cells(p: CodeParameters) -> list[str]:
    defect = p.singleton_defect
    mds = p.mds
    return [
        str(p.d), str(p.length), str(p.dimension), str(p.min_distance),
        p.min_distance.status,
        "" if defect is None else str(defect),
        "" if mds is None else ("true" if mds else "false"),
    ]


def render_rows(rows: Sequence[CodeParameters], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(_COLUMNS)]
        lines += [",".join(_row_cells(p)) for p in rows]
        return "\n".join(lines)
    if fmt == "json":
        payload = []
        for p in rows:
            md = p.min_distance
            delta = md.value
            if md.status == "bounded":
                delta = {"lower": md.lower, "upper": md.upper}
            payload.append(dict(zip(_COLUMNS, (
                p.d, p.length, p.dimension, delta, md.status,
                p.singleton_defect, p.mds))))
        return json.dumps(payload, indent=2)
    # plain aligned table
    cells = [list(_COLUMNS)] + [_row_cells(p) for p in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines)


# -- subcommands ------------------------------------------------------------------

def cmd_params(args) -> int:
    config = build_config(args)
    pset = enumerate_points(config.matrix, config.field())
    run = run_pipeline(pset, config.degrees, md_budget=config.md_budget,
                       verify=config.verify)
    print(render_rows(run.table, config.output_format))
    return EXIT_OK


def cmd_ideal(args) -> int:
    config = build_config(args)
    pset = enumerate_points(config.matrix, config.field())
    gb_x = vanishing_ideal_affine(pset)
    gb_y = vanishing_ideal_projective(gb_x)
    if config.verify:
        pset.certify(gb_y)
    gb = gb_x if args.which == "xstar" else gb_y
    for g in gb:
        print(gb.format(g))
    return EXIT_OK


def cmd_torus(args) -> int:
    if args.q < 3:
        raise UsageError("torus tables need q >= 3 (q = 2 is a single point)")
    if args.s < 1:
        raise UsageError("torus dimension s must be >= 1")
    degrees = _parse_flag("degrees", parse_degrees, args.degrees)
    # the table needs no field, only a q for which GF(q) exists
    _factor_prime_power(args.q)
    # every cell is at most the length, and Python prints no int of more than
    # `digits` digits; (q-1)^s >= 2^s, so an s of 4 * digits is too large
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and (args.s >= 4 * digits or (args.q - 1) ** args.s >= 10 ** digits):
        raise DomainError(f"the length {args.q - 1}^{args.s} has more than {digits} "
                          f"digits, Python's limit for printing an integer")
    rows = torus_table(args.q, args.s, degrees)
    print(render_rows(rows, args.format or "table"))
    return EXIT_OK


def cmd_verify(args) -> int:
    config = build_config(args)
    pset = enumerate_points(config.matrix, config.field())
    try:
        run = run_pipeline(pset, config.degrees, md_budget=config.md_budget,
                           verify=True)
    except InternalInconsistencyError as exc:
        print(f"FAIL pipeline: {exc}")
        print("1 of 1 checks failed", file=sys.stderr)
        return EXIT_INCONSISTENT
    for name, detail in run.checks:
        print(f"ok   {name}: {detail}")
    print(f"all {len(run.checks)} checks passed")
    return EXIT_OK


# -- entry point --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", help="key-value config file (flags win)")
    sub.add_argument("--q", type=int, help="field order (prime power)")
    sub.add_argument("--modulus",
                     help="extension-field modulus coefficients, constant first")
    sub.add_argument("--matrix",
                     help="exponent rows, ';'-separated: '1 1 0; 0 1 1; 1 0 1'")


def _add_table(sub):
    """The flags of the subcommands that compute code parameters."""
    sub.add_argument("--degrees", help="inclusive degree range, e.g. 1..5")
    sub.add_argument("--md-budget", type=int, dest="md_budget",
                     help="codeword budget for the exhaustive distance sweep "
                          "(0 skips the distance); rows the footprint bound "
                          "settles are exact above it")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paramcodes",
                     description="Parameters of parameterized affine codes "
                                 "over finite fields")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("params", help="full parameter table")
    _add_common(p)
    _add_table(p)
    p.add_argument("--threads", type=int, help="accepted and ignored")
    p.add_argument("--format", choices=("table", "csv", "json"))
    p.add_argument("--verify", action="store_true",
                   help="run the checks of verify before printing the table")
    p.set_defaults(handler=cmd_params)

    p = commands.add_parser("ideal", help="print a vanishing-ideal basis")
    p.add_argument("which", choices=("xstar", "y"))
    _add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="certify both bases before printing")
    p.set_defaults(handler=cmd_ideal)

    p = commands.add_parser("torus", help="closed-form torus table")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--format", choices=("table", "csv", "json"))
    p.set_defaults(handler=cmd_torus)

    p = commands.add_parser("verify", help="run the checks of params --verify")
    _add_common(p)
    _add_table(p)
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout's reader has gone; with fd 1 on devnull the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (UsageError, DomainError) as exc:
        print(f"paramcodes: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"paramcodes: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInconsistencyError as exc:
        print(f"paramcodes: INTERNAL INCONSISTENCY: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
