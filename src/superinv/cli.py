"""Batch command-line front end: enumerate tableau data, print brute-force
invariant bases, and run the claim catalog, with JSON or CSV reports.

Exit codes: 0 all checks passed (errata records do not fail a run), 1 a
check failed, 2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import fields, replace

from .alphabet import IndexRange
from .claims import CATALOG, ClaimOptions, KNOWN_CLAIMS, claim_key, run_claim
from .errors import InvalidOptions
from .invariants import (
    DEFAULT_MONOMIAL_CAP,
    CapExceeded,
    algebra_for,
    invariant_space_bruteforce,
)
from .liealgebras import build_family
from .tableaux import (
    Partition,
    count_semistandard,
    count_standard_tableaux,
    enumerate_standard_tableaux,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# `tableaux` lists every standard tableau, about 30 µs each to enumerate,
# and both of its enumerations recurse once per cell
STANDARD_TABLEAU_CAP = 50_000
TABLEAU_CELL_CAP = 500


def _parse_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers")
    if len(parts) != count or any(x < 0 for x in parts):
        raise argparse.ArgumentTypeError(
            f"{what} must be {count} nonnegative comma-separated integers"
        )
    return parts


def _emit(report: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=1)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "claim_ref", "status", "oracle", "generated", "witness", "errata"])
        for check in report.get("checks", []):
            dims = check.get("dims") or {}
            writer.writerow(
                [
                    check.get("id", ""),
                    check.get("claim_ref", ""),
                    check.get("status", ""),
                    dims.get("oracle", ""),
                    dims.get("generated", ""),
                    check.get("witness", ""),
                    json.dumps(check["errata"], sort_keys=True) if check.get("errata") else "",
                ]
            )
        text = buf.getvalue()
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # a path that cannot be written is a usage error
            raise argparse.ArgumentTypeError(
                f"cannot write --output {output}: {exc.strerror or exc}"
            ) from exc
    else:
        try:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (`| head`): what is left of the
            # report, and the flush at exit, go to the null device
            sys.stdout = open(os.devnull, "w", encoding="utf-8")


def _finish(config: dict, checks: list[dict], args, started: float) -> int:
    report = {
        "config": config,
        "checks": checks,
        "timing_ms": None if args.no_timing else int((time.time() - started) * 1000),
    }
    _emit(report, args.format, args.output)
    if any(c["status"] == "fail" for c in checks):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_tableaux(args) -> int:
    started = time.time()
    parts = _parse_ints(args.shape, len(args.shape.split(",")), "--shape")
    parts = tuple(p for p in parts if p > 0)
    if not parts:
        print(f"error: --shape needs a positive part, got {args.shape}", file=sys.stderr)
        return EXIT_USAGE
    n, m = _parse_ints(args.range, 2, "--range")
    config = {"command": "tableaux", "shape": list(parts), "range": [n, m], "seed": args.seed}
    try:
        shape = Partition(parts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rng = IndexRange(n, m)
    if shape.size > TABLEAU_CELL_CAP:
        raise CapExceeded("tableau cells", shape.size, TABLEAU_CELL_CAP)
    count = count_standard_tableaux(shape)
    if count > STANDARD_TABLEAU_CAP:
        raise CapExceeded("standard tableaux", count, STANDARD_TABLEAU_CAP)
    standard = enumerate_standard_tableaux(shape)
    checks = [
        {
            "id": f"tableaux:{shape}",
            "claim_ref": "enumeration",
            "status": "pass",
            "dims": {
                "standard_tableaux": len(standard),
                "semistandard_sequences": count_semistandard(shape, rng),
            },
            "tableaux": [str(t) for t in standard],
        }
    ]
    return _finish(config, checks, args, started)


def cmd_invariants(args) -> int:
    started = time.time()
    dims = _parse_ints(args.dims, 2, "--dims")
    p, q, k, l = _parse_ints(args.pqkl, 4, "--pqkl")
    config = {
        "command": "invariants",
        "family": args.family,
        "dims": list(dims),
        "pqkl": [p, q, k, l],
        "degree": args.degree,
        "seed": args.seed,
    }
    try:
        family = build_family(args.family, IndexRange(*dims))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    algebra = algebra_for(family, p, q, k, l)
    space = invariant_space_bruteforce(family, algebra, args.degree, monomial_cap=args.cap)
    checks = [
        {
            "id": f"invariants:{args.family}{dims}:deg{args.degree}",
            "claim_ref": "oracle",
            "status": "pass",
            "dims": {"oracle": space.dimension},
            "basis": [str(f) for f in space.basis],
        }
    ]
    return _finish(config, checks, args, started)


def cmd_verify(args) -> int:
    started = time.time()
    try:
        key = claim_key(args.theorem)
    except KeyError:
        print(
            f"error: unknown claim id {args.theorem!r}; known ids: {', '.join(KNOWN_CLAIMS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    given = {"monomial_cap": args.cap}
    for f in fields(ClaimOptions):
        value = getattr(args, f.name, None)
        if isinstance(value, str):
            # a tuple option has as many entries as its default
            value = _parse_ints(value, len(f.default), "--" + f.name)
        if value is not None:
            given[f.name] = value
    opts = replace(CATALOG[key].defaults, **given)
    config = {
        "command": "verify",
        "theorem": key,
        **{f.name: getattr(opts, f.name) for f in fields(ClaimOptions) if f.name != "monomial_cap"},
        "seed": args.seed,
    }
    try:
        # options outside the claim's range raise before any check runs
        records = run_claim(key, opts)
    except InvalidOptions as exc:
        print(f"error: {key}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _finish(config, [r.as_dict() for r in records], args, started)


class _Parser(argparse.ArgumentParser):
    """A usage error is one line, `error: <message>`, and exit 2; the
    subcommand parsers are of this class too."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superinv",
        description="Exact verification toolkit for invariant rings of matrix "
        "Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--seed", type=int, default=0, help="seed echoed into the config")
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="omit wall-clock timing for byte-identical reports",
        )

    p = sub.add_parser("tableaux", help="standard and semistandard enumeration")
    p.add_argument("--shape", required=True, help="partition with a positive part, e.g. 2,1")
    p.add_argument("--range", default="1,1", help="even,odd letter counts")
    common(p)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("invariants", help="brute-force invariant space")
    p.add_argument("--family", default="gl", choices=["gl", "sl", "osp", "pe", "spe"])
    p.add_argument("--dims", default="1,1", help="even,odd dimensions of the space")
    p.add_argument("--pqkl", default="1,0,0,0", help="w-even,w-odd,u-even,u-odd")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_MONOMIAL_CAP, help="monomial basis cap")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="run a claim from the catalog")
    p.add_argument("--theorem", required=True, help="claim id, e.g. T2.1")
    p.add_argument("--dims", default=None)
    p.add_argument("--pqkl", default=None)
    p.add_argument("--udims", default=None)
    p.add_argument("--wdims", default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_MONOMIAL_CAP, help="monomial basis cap")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for name in ("cap", "degree", "max_degree"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be nonnegative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        # every cap is checked before the work it bounds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
