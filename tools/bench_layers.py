"""Per-layer timings of the derivation action, polynomial products, the
generation check and the relation check, appended as one row to a
`BENCH_<date>.json` trajectory file.

Run from the repository root:

    PYTHONPATH=src python tools/bench_layers.py --label "<commit>: <change>"

The case is the oracle's heaviest: gl(2|1) acting on U = W = (2|1) at
degree 6, 2,031 weight-zero monomials.  Each time is the minimum of 15
in-process runs, in milliseconds, after one untimed warm-up run:

- recheck: `annihilates(family, basis)` on the oracle's basis, every
  basis element on every basis polynomial, through the family's table
  (`AlgebraFamily.table`), which the warm-up run builds;
- solve_images: the generating subset's images of each weight-zero
  monomial, one `act_through_images` call per monomial, as the oracle's
  solve builds them for `joint_kernel`;
- oracle: the whole `invariant_space_bruteforce` at that degree, which
  also finds the family's tables built;
- relations: `relation_kernel_check` of T2.2 at its catalog defaults with
  --udims 2,2 --wdims 2,2 (gl(1|1), 256 relations at degree 4, 985 blocks
  in 154 orbits); each call packs the images and builds a prefix table of
  its own, and each run gets a new `SubstitutionMap`, so that a checkout
  whose map kept its table between calls is timed the same way;
- product: image(m[:5]) * image(m[5:]) for 12 seeded degree-9 source
  monomials m of T2.2 at --dims 2,2 --udims 1,2 --wdims 1,2, the products
  of its relation check; the images are built once by `apply`, outside
  the timing;
- generation: `check_generation` of pe(1|1) on U = (3|2), W = 0 at
  degree 6, with every scalar product, on one family whose tables the
  warm-up run builds.

The file records the Python version and `os.cpu_count()` of the machine
that wrote it.  A run on another machine or Python must start a new file:
appending to a file that records another one is refused with exit status
2.  To time another checkout, point PYTHONPATH at its `src` and give a
label that names it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

from superinv import claims
from superinv.alphabet import IndexRange
from superinv.generators import scalar_products, substitution_map
from superinv.invariants import (
    SubstitutionMap,
    algebra_for,
    blocked_monomials,
    check_generation,
    invariant_space_bruteforce,
    relation_kernel_check,
)
from superinv.liealgebras import act_through_images, action_table, annihilates, build_family, diagonal_weights
from superinv.polynomials import Polynomial, make_uw_algebra, monomials_of_degree

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


def product_factors() -> list:
    """The image pairs (image(m[:5]), image(m[5:])) of 12 degree-9 source
    monomials m of T2.2 at --dims 2,2 --udims 1,2 --wdims 1,2, drawn with
    seed 1 among those whose two images are nonzero."""
    family = build_family("gl", IndexRange(2, 2))
    U = W = IndexRange(1, 2)
    source = make_uw_algebra(U, W)
    subs = substitution_map("gl", source, algebra_for(family, 1, 2, 1, 2))
    pairs = []
    for m in random.Random(1).sample(monomials_of_degree(source, 9), 200):
        left, right = (subs.apply(Polynomial(source, {half: 1})) for half in (m[:5], m[5:]))
        if left and right and len(pairs) < 12:
            pairs.append((left, right))
    return pairs


def measure() -> dict:
    family = build_family("gl", IndexRange(2, 1))
    algebra = algebra_for(family, 2, 1, 2, 1)
    basis = invariant_space_bruteforce(family, algebra, DEGREE, CAP).basis
    blocks = blocked_monomials(algebra, DEGREE, CAP, diagonal_weights(family, algebra))
    monomials = [m for monos in blocks.values() for m in monos]

    def recheck():
        if not annihilates(family, basis):
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

    pairs = product_factors()
    pe = build_family("pe", IndexRange(1, 1))
    pe_algebra = algebra_for(pe, 3, 2, 0, 0)
    pe_generators = [g for g in scalar_products("pe", pe_algebra) if g]

    def generation():
        (verdict,) = check_generation(pe, pe_algebra, pe_generators, [DEGREE])
        if not verdict.equal:
            raise AssertionError("the scalar products of pe(1|1) do not generate")

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
        "product_case": (
            "T2.2, gl(2|2), U = W = (1|2): image(m[:5]) * image(m[5:]), 12 m of degree 9"
        ),
        "product_terms": sum(len((left * right).terms) for left, right in pairs),
        "product_ms": best_ms(lambda: [left * right for left, right in pairs]),
        "generation_case": f"pe(1|1), pqkl 3,2,0,0, degree {DEGREE}",
        "generation_ms": best_ms(generation),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was timed, e.g. a commit and a change")
    today = datetime.date.today().isoformat()
    parser.add_argument("--output", type=Path, default=Path(f"BENCH_{today}.json"))
    args = parser.parse_args()
    machine = {"python": platform.python_version(), "cpu_count": os.cpu_count()}
    if args.output.exists():
        record = json.loads(args.output.read_text())
        if {k: record.get(k) for k in machine} != machine:
            message = f"{args.output} records another machine or Python; start a new file"
            print(message, file=sys.stderr)
            sys.exit(2)
    else:
        record = {**machine, "rows": []}
    row = {"label": args.label, "date": today, **measure()}
    record["rows"].append(row)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(row))


if __name__ == "__main__":
    main()
