"""Per-layer timings of the derivation action and the relation check,
appended as one row to a `BENCH_<date>.json` trajectory file.

Run from the repository root:

    PYTHONPATH=src python tools/bench_layers.py --label "<commit>: <change>"

The case is the oracle's heaviest: gl(2|1) acting on U = W = (2|1) at
degree 6, 2,031 weight-zero monomials.  Each time is the minimum of 15
in-process runs, in milliseconds, after one untimed warm-up run:

- recheck: `annihilates(family.basis, basis)` on the oracle's basis, every
  basis element on every basis polynomial;
- solve_images: the generating subset's images of each weight-zero
  monomial, one `act_through_images` call per monomial, as the oracle's
  solve builds them for `joint_kernel`;
- oracle: the whole `invariant_space_bruteforce` at that degree;
- relations: `relation_kernel_check` of T2.2 at its catalog defaults with
  --udims 2,2 --wdims 2,2 (gl(1|1), 256 relations at degree 4, 985 blocks
  in 154 orbits), each run on a fresh `SubstitutionMap`, so that no run
  reuses the prefix table of another.

The file records the Python version and `os.cpu_count()` of the machine
that wrote it; a run on another machine or Python starts a new file.  To
time another checkout, point PYTHONPATH at its `src` and give a label that
names it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

from superinv import claims
from superinv.alphabet import IndexRange
from superinv.invariants import (
    SubstitutionMap,
    algebra_for,
    blocked_monomials,
    invariant_space_bruteforce,
    relation_kernel_check,
)
from superinv.liealgebras import act_through_images, action_table, annihilates, build_family, diagonal_weights

RUNS = 15
DEGREE = 6
# the full degree-6 basis has 57,799 monomials, above the default cap
CAP = 10**7


def best_ms(work) -> float:
    """The minimum over RUNS timed calls of `work`, after one warm-up."""
    work()
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1000, 2)


def t22_relation_check() -> tuple:
    """The substitution map, relations and degree that T2.2 checks at
    --udims 2,2 --wdims 2,2, caught on their way to `relation_kernel_check`."""
    seen = []

    def record(subs, rels, degree, monomial_cap):
        seen.append((subs, rels, degree))
        return relation_kernel_check(subs, rels, degree, monomial_cap)

    opts = replace(claims.CATALOG["T2.2"].defaults, udims=(2, 2), wdims=(2, 2))
    with mock.patch.object(claims, "relation_kernel_check", record):
        claims.run_claim("T2.2", opts)
    return seen[0]


def measure() -> dict:
    family = build_family("gl", IndexRange(2, 1))
    algebra = algebra_for(family, 2, 1, 2, 1)
    basis = invariant_space_bruteforce(family, algebra, DEGREE, CAP).basis
    blocks = blocked_monomials(algebra, DEGREE, CAP, diagonal_weights(family, algebra))
    monomials = [m for monos in blocks.values() for m in monos]

    def recheck():
        if not annihilates(family.basis, basis):
            raise AssertionError("the oracle basis is not invariant")

    subs, rels, degree = t22_relation_check()

    def relations():
        fresh = SubstitutionMap(subs.source, subs.target, subs.images)
        if not relation_kernel_check(fresh, rels, degree).kernel_matches_span:
            raise AssertionError("the T2.2 relations do not span the kernel")

    def solve_images():
        table = action_table(family.generators, algebra)
        for m in monomials:
            act_through_images(table, algebra, {m: 1})

    return {
        "case": f"gl(2|1), U = W = (2|1), degree {DEGREE}",
        "polynomials": len(basis),
        "terms": sum(len(f.terms) for f in basis),
        "monomials": len(monomials),
        "recheck_ms": best_ms(recheck),
        "solve_images_ms": best_ms(solve_images),
        "oracle_ms": best_ms(lambda: invariant_space_bruteforce(family, algebra, DEGREE, CAP)),
        "relations_case": "T2.2, gl(1|1), U = W = (2|2), degree 4",
        "relations": len(rels),
        "relations_ms": best_ms(relations),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was timed, e.g. a commit and a change")
    today = datetime.date.today().isoformat()
    parser.add_argument("--output", type=Path, default=Path(f"BENCH_{today}.json"))
    args = parser.parse_args()
    if args.output.exists():
        record = json.loads(args.output.read_text())
    else:
        record = {"python": platform.python_version(), "cpu_count": os.cpu_count(), "rows": []}
    row = {"label": args.label, "date": today, **measure()}
    record["rows"].append(row)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(row))


if __name__ == "__main__":
    main()
