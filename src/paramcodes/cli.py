"""Command-line front end for the parameter pipeline.

Subcommands: params (full table), ideal (print a vanishing-ideal basis),
torus (the closed forms' table), verify (the checks of params --verify,
one line each).  `-h`/`--help`, alone or after a subcommand, lists its
flags.  A flag's value follows "=" (`--degrees=1..5`) or is the next
argument, which must not start with "--"; a unique prefix names a flag,
the last of a repeated flag wins, and "--" ends the flags.  A command
line that does not parse raises SystemExit(1) after a usage line and
`paramcodes <cmd>: error: ...`; a value that does not parse prints
`paramcodes: error: --flag: reason`.  Exit codes: 0 ok, 1 usage, 2
resource limit, 3 internal inconsistency.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from .codes import DEFAULT_MD_BUDGET, CodeParameters, run_pipeline, torus_table
from .errors import DomainError, InternalInconsistencyError, ResourceLimitError
from .gf import FieldSpec, _factor_prime_power
from .ideals import (ExponentMatrix, ParameterizedSet, enumerate_points,
                     vanishing_ideal_affine, vanishing_ideal_projective)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_INCONSISTENT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader of standard output closed it


class UsageError(Exception):
    pass


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
    rows = [_int_list(chunk) for chunk in text.split(";") if chunk.strip()]
    if not rows:
        raise UsageError("empty matrix")
    return rows


def _parse_flag(where: str, parse, text: str):
    """Parse a value, reporting a malformed one as a usage error at `where`."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc


#: Each config key, also the name of its flag, and the parser of its text;
#: a matrix line is one row, --matrix all of them.
_CONFIG_KEYS = {"q": int, "modulus": _int_list, "matrix": _int_list,
                "degrees": parse_degrees, "md-budget": int, "format": str,
                "threads": int}


def parse_config_file(path: str, command: str) -> dict:
    """Flat key-value lines, by key.  A key whose flag `command` lacks is
    refused."""
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
        if key not in COMMANDS[command].flags:
            raise UsageError(f"{path}:{lineno}: key {key!r} does not apply to {command}")
        value = _parse_flag(f"{path}:{lineno}", _CONFIG_KEYS[key], rest)
        if key == "matrix":
            values.setdefault(key, []).append(value)
        else:
            values[key] = value
    return values


def _output_format(fmt: str) -> str:
    if fmt not in ("table", "csv", "json"):
        raise UsageError(f"unknown format {fmt!r}: pick table, csv or json")
    return fmt


def build_config(args: dict) -> tuple[ParameterizedSet, dict]:
    """The point set and the values of config file and flags merged, by
    key; flags win."""
    values = parse_config_file(args["config"], args["command"]) if args.get("config") else {}
    for key, parse in _CONFIG_KEYS.items():
        if key in args:
            parse = parse_matrix_flag if key == "matrix" else parse
            values[key] = _parse_flag(f"--{key}", parse, args[key])

    if "q" not in values:
        raise UsageError("missing field order: give --q or a config with q")
    if "matrix" not in values:
        raise UsageError("missing exponent matrix: give --matrix or config rows")
    if "degrees" in COMMANDS[args["command"]].flags and "degrees" not in values:
        raise UsageError("missing --degrees (inclusive, e.g. 1..5)")
    matrix = ExponentMatrix.of(values["matrix"])
    _output_format(values.setdefault("format", "table"))
    if values.setdefault("md-budget", DEFAULT_MD_BUDGET) < 0:
        raise UsageError("md-budget must be >= 0")
    # the sweep runs on one thread: threads is checked and ignored
    if values.get("threads", 1) < 1:
        raise UsageError("threads must be >= 1")
    return enumerate_points(matrix, FieldSpec.of(values["q"], values.get("modulus"))), values


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
        return "\n".join(",".join(cells) for cells in [_COLUMNS, *map(_row_cells, rows)])
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
    pset, config = build_config(args)
    run = run_pipeline(pset, config["degrees"], md_budget=config["md-budget"],
                       verify="verify" in args)
    print(render_rows(run.table, config["format"]))
    return EXIT_OK


def cmd_ideal(args) -> int:
    pset, _ = build_config(args)
    gb_x = vanishing_ideal_affine(pset)
    gb_y = vanishing_ideal_projective(gb_x)
    if "verify" in args:
        pset.certify(gb_y)
    gb = gb_x if args["which"] == "xstar" else gb_y
    for g in gb:
        print(gb.format(g))
    return EXIT_OK


def cmd_torus(args) -> int:
    q, s = (_parse_flag(f"--{key}", int, args[key]) for key in ("q", "s"))
    fmt = _output_format(args.get("format", "table"))
    if q < 3:
        raise UsageError("torus tables need q >= 3 (q = 2 is a single point)")
    if s < 1:
        raise UsageError("torus dimension s must be >= 1")
    degrees = _parse_flag("--degrees", parse_degrees, args["degrees"])
    # the table needs no field, only a q for which GF(q) exists
    _factor_prime_power(q)
    # every cell is at most the length, and Python prints no int of more than
    # `digits` digits; (q-1)^s >= 2^s, so an s of 4 * digits is too large
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and (s >= 4 * digits or (q - 1) ** s >= 10 ** digits):
        raise DomainError(f"the length {q - 1}^{s} has more than {digits} "
                          f"digits, Python's limit for printing an integer")
    print(render_rows(torus_table(q, s, degrees), fmt))
    return EXIT_OK


def cmd_verify(args) -> int:
    pset, config = build_config(args)
    try:
        run = run_pipeline(pset, config["degrees"], md_budget=config["md-budget"],
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

class Command(NamedTuple):
    """A subcommand: its handler and summary, its flags in usage order, what
    it cannot run without ("which" is its positional) and the choices of
    that positional, if it takes one."""
    handler: Callable[[dict], int]
    summary: str
    flags: tuple[str, ...]
    required: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()


_COMMON = ("config", "q", "modulus", "matrix")
COMMANDS = {
    "params": Command(cmd_params, "full parameter table", _COMMON + (
        "degrees", "md-budget", "threads", "format", "verify")),
    "ideal": Command(cmd_ideal, "print a vanishing-ideal basis",
                     _COMMON + ("verify",), ("which",), ("xstar", "y")),
    "torus": Command(cmd_torus, "closed-form torus table",
                     ("q", "s", "degrees", "format"), ("q", "s", "degrees")),
    "verify": Command(cmd_verify, "run the checks of params --verify",
                      _COMMON + ("degrees", "md-budget")),
}


def _usage(name: str) -> str:
    if not name:
        return "usage: paramcodes [-h] {" + ",".join(COMMANDS) + "} ..."
    cmd = COMMANDS[name]
    words = []
    for f in cmd.flags:
        word = f"--{f}" if f == "verify" else f"--{f} {f.upper().replace('-', '_')}"
        words.append(word if f in cmd.required else f"[{word}]")
    if cmd.choices:
        words.append("{" + ",".join(cmd.choices) + "}")
    return " ".join([f"usage: paramcodes {name} [-h]", *words])


def _fail(name: str, message: str):
    """Refuse a command line that does not parse, under the usage of
    subcommand `name` ("" for none)."""
    print(_usage(name), f"paramcodes {name}".rstrip() + f": error: {message}",
          sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _choice(name: str, what: str, token: str, choices) -> str:
    if token not in choices:
        _fail(name, f"argument {what}: invalid choice: {token!r} "
                    f"(choose from {', '.join(map(repr, choices))})")
    return token


def parse_argv(argv: Sequence[str]) -> dict:
    """The subcommand and flags of `argv` as {"command": name, flag: text},
    with "which" for the positional and True for --verify; each subcommand
    parses its values.  -h or --help prints the usage and exits."""
    if argv and argv[0] in ("-h", "--h", "--he", "--hel", "--help"):
        print(_usage(""), "", *(f"  {n:<8}{c.summary}" for n, c in COMMANDS.items()), sep="\n")
        raise SystemExit(EXIT_OK)
    if not argv:
        _fail("", "the following arguments are required: command")
    name = _choice("", "command", argv[0], COMMANDS)
    cmd, args, rest, extras, ended = COMMANDS[name], {"command": name}, list(argv[1:]), [], False
    while rest:
        token = rest.pop(0)
        if token == "--" and not ended:
            ended = True  # every later argument is a positional
        elif ended or not (token == "-h" or token.startswith("--")):
            if cmd.choices and "which" not in args:
                args["which"] = _choice(name, "which", token, cmd.choices)
            else:
                extras.append(token)
        else:
            given, eq, value = ("help" if token == "-h" else token[2:]).partition("=")
            names = ("help", *cmd.flags)
            found = [f for f in names if f == given] or [f for f in names if f.startswith(given)]
            if len(found) > 1:
                _fail(name, f"ambiguous option: {token} could match "
                            + ", ".join(f"--{f}" for f in found))
            if not found or (eq and found[0] in ("help", "verify")):
                extras.append(token)
            elif found[0] == "help":
                print(_usage(name), "", cmd.summary, sep="\n")
                raise SystemExit(EXIT_OK)
            elif found[0] == "verify":
                args["verify"] = True
            elif eq or (rest and not rest[0].startswith("--")):
                args[found[0]] = value if eq else rest.pop(0)
            else:
                _fail(name, f"argument --{found[0]}: expected one argument")
    missing = [f if f == "which" else f"--{f}" for f in cmd.required if f not in args]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(name, f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        status = COMMANDS[args["command"]].handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout's reader has gone; with fd 1 on devnull the flush at
        # interpreter exit cannot raise again
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)
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
