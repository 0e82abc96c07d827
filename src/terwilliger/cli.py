"""Command line front end.

Three subcommands:

``report``
    Print the structural summary of the Terwilliger algebra for a scheme:
    dimensions, radical data, center data, Wedderburn blocks, verdicts.

``verify``
    Run the full self-check suite (closed forms against the dense matrix
    oracle) and report one line per check.

``mul``
    Multiply two basis elements given as comma-separated bit strings and
    print the resulting term.

Exit codes: 0 on success, 1 when verification fails, 2 on invalid input
or when a command runs out of memory.  Output that cannot be written also
exits 1, with no traceback: quietly on a closed pipe (``| head``), with one
``error:`` line on stderr for any other write error, such as a full device.

Every command gets its spec from ``spec_from_args``: one ``SchemeSpec`` per
``--sizes`` text and ``--char`` value in a process, as the parser is built once.

``main`` parses the arguments after a command's name with that command's own
parser, at about half the cost of the whole parser, which does the same
after reading the name.  An argv that names no command or leaves arguments
over goes to the whole parser, so every help text, usage error and exit code
is the whole parser's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence, TextIO

import numpy as np

from .algebra import Element, Triple, _mul_triples, check_triple, dimension, render_triple
from .center import center_summary
from .oracle import DEFAULT_ORACLE_CAP
from .quotient import wedderburn_summary
from .radical import radical_closed_form, radical_columns
from .scheme import SchemeSpec, parse_mask, render_mask
from .verify import DEFAULT_SEED, run_all


# The largest dim T a report accepts.  It admits (3,)*8, whose JSON report lists
# 390,369 radical triples (30 MB) in about 0.22 s and 51 MB peak RSS as a fresh
# process on a 2-vCPU host, and whose text report takes 0.02 s; dim T grows 4- or
# 5-fold per factor.
MAX_REPORT_DIMENSION = 5**8


def parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))  # int() strips blanks, refuses empty parts
    except ValueError:
        raise ValueError(f"cannot parse sizes from {text!r}; expected e.g. '2,3,3'") from None


def parse_triple_arg(spec: SchemeSpec, text: str) -> Triple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated masks, got {text!r}")
    t = tuple(parse_mask(p, spec.n) for p in parts)
    check_triple(spec, t)
    return t


def spec_from_args(args: argparse.Namespace) -> SchemeSpec:
    """The spec of --sizes and --char: one SchemeSpec per text and int in a process (_spec)."""
    return _spec(args.sizes, args.char)


@functools.lru_cache(maxsize=64, typed=True)
def _spec(sizes: str, characteristic: int) -> SchemeSpec:
    """The SchemeSpec of the raw --sizes text and the --char int, built once per pair and shared.

    The key is the text, never the parsed tuple: lru_cache hashes 2.0 like 2,
    so a tuple key could hand a refused float spec the cached int one.  A
    refusal raises and is not cached, so it repeats alike.  Only callers that
    run several commands in one process, such as tests and scripts, gain.
    """
    return SchemeSpec(sizes=parse_sizes(sizes), characteristic=characteristic)


def build_report(
    spec: SchemeSpec,
    with_checks: bool = False,
    base_points: int = 2,
    seed: int = DEFAULT_SEED,
    cap: int = DEFAULT_ORACLE_CAP,
) -> dict:
    """The report as a dict; the radical's basis listing is left out, since only JSON prints it."""
    dim_t = dimension(spec)
    if dim_t > MAX_REPORT_DIMENSION:
        raise ValueError(
            f"dim T = {dim_t} exceeds {MAX_REPORT_DIMENSION}, the largest dimension a report lists"
        )
    center = center_summary(spec)
    radical = radical_closed_form(spec)
    wedderburn = wedderburn_summary(spec)
    square_sum = sum(b["size"] ** 2 for b in wedderburn["blocks"])
    if dim_t != radical["dim"] + square_sum:
        raise RuntimeError(
            "internal consistency failure: dim T != rad dim + sum of block sizes squared"
        )
    report = {
        "spec": {"sizes": list(spec.sizes), "characteristic": spec.characteristic},
        "points": spec.num_points,
        "dim_T": dim_t,
        "dim_Z": center["dim"],
        "rad_dim": radical["dim"],
        "nilpotent_index": radical["nilpotent_index"],
        "center_rad_dim": center["rad_dim"],
        "center_nilpotent_index": center["nilpotent_index"],
        "blocks": wedderburn["blocks"],
        "verdicts": wedderburn["verdicts"],
        "center": center,
        "radical": radical,
    }
    if with_checks:
        report["verification"] = build_verification(spec, base_points, seed, cap)
    return report


def build_verification(spec: SchemeSpec, base_points: int, seed: int, cap: int) -> dict:
    """Run every check and collect the results with the settings that produced them."""
    results = run_all(spec, base_points=base_points, seed=seed, cap=cap)
    return {
        "seed": seed,
        "base_points": base_points,
        "all_passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }


def render_checks(verification: dict) -> list[str]:
    """One line per check, then the overall verdict."""
    lines = []
    for check in verification["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        line = f"{status} {check['name']}: {check['count']} identities ({check['seconds']:.3f}s)"
        if check["detail"]:
            line += f" [{check['detail']}]"
        lines.append(line)
    lines.append("all checks passed" if verification["all_passed"] else "VERIFICATION FAILED")
    return lines


# Stands in for report["radical"]["basis"] while json.dumps lays out the rest of a report;
# no other field holds a NUL character.
_BASIS_SLOT = "\x00radical basis"
_BASIS_SLOT_JSON = json.dumps(_BASIS_SLOT)

# Radical listing rows rendered and written at a time.  A row takes 52 + 3n bytes,
# 70 at n = 6, so a slice of about 140 KB stays in a core's cache.  The largest
# benchmark listing, (3,)*6 at char 2 with 15,561 rows, goes out in 8 writes; its
# whole JSON report was written in 1.28-1.34, 1.21-1.26, 1.33 and 1.56 ms with
# slices of 1 << 10, 1 << 11, 1 << 12 and 1 << 15 rows (2-vCPU host, to a StringIO).
_ROWS_PER_WRITE = 1 << 11


def write_report_json(spec: SchemeSpec, report: dict, out: TextIO) -> None:
    """Write json.dumps(report, indent=2) and a newline, with the radical's basis listing in place.

    At its depth json.dumps lays out every basis triple alike, as an ASCII
    row of three masks, which need no escaping.  So a row is three fixed-width
    byte records, each read from a table of all 2^n masks: the g record holds
    the row's prefix and g, the h record h, and the i record i and the row's
    suffix.  A slice of _ROWS_PER_WRITE rows is one structured array, each
    field filled by one gather and the slice decoded straight from its
    buffer.  The listing's length is checked against rad_dim before anything
    is written.
    """
    g, h, i = radical_columns(spec)
    if len(g) != report["rad_dim"]:
        raise RuntimeError(
            "internal consistency failure: the radical listing does not hold rad_dim triples"
        )
    text = json.dumps({**report, "radical": {**report["radical"], "basis": _BASIS_SLOT}}, indent=2)
    head, tail = text.split(_BASIS_SLOT_JSON)
    if not len(g):
        out.write(head + "[]" + tail + "\n")
        return
    masks = [render_mask(m, spec.n) for m in range(1 << spec.n)]
    frames = (('      [\n        "', '",\n        "'), ("", '",\n        "'), ("", '"\n      ],\n'))
    tables = [np.array([f"{a}{m}{b}".encode("ascii") for m in masks]) for a, b in frames]
    record = np.dtype([(name, table.dtype) for name, table in zip("ghi", tables)])
    out.write(head + "[\n")
    for start in range(0, len(g), _ROWS_PER_WRITE):
        rows = np.empty(min(_ROWS_PER_WRITE, len(g) - start), dtype=record)
        for name, table, column in zip("ghi", tables, (g, h, i)):
            rows[name] = table.take(column[start : start + len(rows)])
        end = -2 if start + len(rows) == len(g) else None  # the last triple takes no ",\n"
        out.write(str(rows.view(np.uint8)[:end], "ascii"))
    out.write("\n    ]" + tail + "\n")


def render_report_text(report: dict) -> str:
    lines = []
    lines.append("sizes: " + ",".join(str(s) for s in report["spec"]["sizes"]))
    lines.append(f"characteristic: {report['spec']['characteristic']}")
    lines.append(f"points: {report['points']}")
    for key in (
        "dim_T",
        "dim_Z",
        "rad_dim",
        "nilpotent_index",
        "center_rad_dim",
        "center_nilpotent_index",
    ):
        lines.append(f"{key}: {report[key]}")
    for block in report["blocks"]:
        rows = ",".join(block["rows"])
        lines.append(f"block: signature={block['signature']} size={block['size']} rows={rows}")
    verdicts = report["verdicts"]
    lines.append(
        "verdicts: "
        + " ".join(f"{k}={'true' if verdicts[k] else 'false'}" for k in sorted(verdicts))
    )
    if "verification" in report:
        ver = report["verification"]
        lines.append(f"verification: seed={ver['seed']} base_points={ver['base_points']}")
        lines.extend(render_checks(ver))
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    report = build_report(
        spec,
        with_checks=args.with_checks,
        base_points=args.base_points,
        seed=args.seed,
        cap=args.oracle_cap,
    )
    if args.fmt == "json":
        write_report_json(spec, report, sys.stdout)
    else:
        print(render_report_text(report))
    if args.with_checks and not report["verification"]["all_passed"]:
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    payload = {
        "spec": {"sizes": list(spec.sizes), "characteristic": spec.characteristic},
        **build_verification(spec, args.base_points, args.seed, args.oracle_cap),
    }
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join([f"seed: {args.seed}", *render_checks(payload)]))
    if not payload["all_passed"]:
        first = next(c for c in payload["checks"] if not c["passed"])
        print(f"verification failed: {first['name']}: {first['detail']}", file=sys.stderr)
        return 1
    return 0


def cmd_mul(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    t1 = parse_triple_arg(spec, args.left)
    t2 = parse_triple_arg(spec, args.right)
    product = _mul_triples(spec, t1, t2)  # parse_triple_arg has validated both operands
    if args.fmt == "json":
        # _mul_triples returns a valid triple with a canonical nonzero coefficient, or None
        terms = {} if product is None else {product[1]: product[0]}
        result = Element._with_terms(spec, terms)
        print(json.dumps({"terms": result.to_json()}))
    elif product is None:
        print("zero")
    else:
        coeff, triple = product
        print(f"{spec.field.render(coeff)} · {render_triple(spec, triple)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="terwilliger",
        description="Terwilliger algebras of factorial association schemes over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name, for main

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sizes", required=True, help="factor sizes, e.g. '2,3,3'")
        p.add_argument("--char", type=int, default=0, help="field characteristic (0 or a prime)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
        fmt.add_argument("--text", dest="fmt", action="store_const", const="text")
        p.set_defaults(fmt="text")

    def add_check_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--base-points", type=int, default=2, help="base points to sample")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed for sampling")
        p.add_argument(
            "--oracle-cap",
            type=int,
            default=DEFAULT_ORACLE_CAP,
            help="largest point count the dense oracle will accept",
        )

    p_report = sub.add_parser("report", help="structural summary of the algebra")
    add_common(p_report)
    p_report.add_argument(
        "--with-checks", action="store_true", help="also run the verification suite"
    )
    add_check_options(p_report)
    p_report.set_defaults(fn=cmd_report)

    p_verify = sub.add_parser("verify", help="run all closed-form vs oracle checks")
    add_common(p_verify)
    add_check_options(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_mul = sub.add_parser("mul", help="multiply two basis elements")
    add_common(p_mul)
    p_mul.add_argument("left", help="basis triple, e.g. '01,11,11'")
    p_mul.add_argument("right", help="basis triple, e.g. '11,01,11'")
    p_mul.set_defaults(fn=cmd_mul)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command argv names, parsed by its own parser, and return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or rest:  # the whole parser refuses these, or prints its help
        args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a write error shows here, not when the interpreter exits
        return code
    except OSError as exc:  # the output cannot be written
        _drop_stdout()
        if not isinstance(exc, BrokenPipeError):  # a reader that left early is no error
            print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory at sizes {args.sizes},"
              f" characteristic {args.char}{detail}", file=sys.stderr)
        return 2


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that nothing left buffered is written at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stdout without a descriptor, such as a StringIO
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    raise SystemExit(main())
