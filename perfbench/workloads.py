"""Workload definitions: set-up and ops, built from the seed.

Each workload function does the set-up (families, algebras, generator and
tableau lists) and returns its ops.  An op is (id, run, records): `run` is
the timed call into superinv's public functions, and `records` turns its
result into (check id, status, dims) triples outside the timed region.
The verdicts do not depend on the seed; only the order of the ops, the
order of the generators and the symmetrizer's chosen inputs do.
"""

from __future__ import annotations

import json
import math
import random
from typing import Callable, NamedTuple

from superinv import (
    ClaimOptions,
    IndexRange,
    Partition,
    TensorElement,
    algebra_for,
    build_family,
    check_generation,
    enumerate_partitions,
    enumerate_standard_tableaux,
    invariant_space_bruteforce,
    run_claim,
    scalar_products,
    young_symmetrizer,
)
from superinv import cli
from superinv.tensors import apply_group_algebra, plain_word

# Large enough for the 57,799 monomials of gl(2|1) at degree 6; passed
# explicitly, never through the environment.
ORACLE_CAP = 60_000

ORACLE_CASES = [("gl", (2, 1), (2, 1, 2, 1), d) for d in (2, 3, 4, 5, 6)] + [
    ("spe", (2, 2), (0, 2, 0, 0), 8),
    ("spe", (2, 2), (0, 2, 0, 0), 10),
    ("sl", (1, 1), (2, 1, 2, 1), 4),
]

GENERATION_CASES = [
    ("pe", (1, 1), (3, 2, 0, 0), 4),
    ("pe", (1, 1), (3, 2, 0, 0), 6),
    ("osp", (1, 2), (3, 1, 0, 0), 4),
    ("osp", (1, 2), (3, 1, 0, 0), 6),
    ("gl", (1, 1), (2, 2, 2, 2), 4),
]

WORD_DIMS = IndexRange(2, 2)


class Op(NamedTuple):
    id: str
    run: Callable[[], object]
    records: Callable[[object], list]


def _case_id(tag, dims, pqkl, degree) -> str:
    return f"{tag}({dims[0]}|{dims[1]}):pqkl{','.join(map(str, pqkl))}:deg{degree}"


def _families(cases) -> dict:
    fams = {}
    for tag, dims, pqkl, _ in cases:
        if (tag, dims) not in fams:
            fams[tag, dims] = build_family(tag, IndexRange(*dims))
    return fams


def oracle(seed: int) -> list[Op]:
    fams = _families(ORACLE_CASES)
    ops = []
    for tag, dims, pqkl, degree in ORACLE_CASES:
        fam = fams[tag, dims]
        alg = algebra_for(fam, *pqkl)
        cid = "oracle:" + _case_id(tag, dims, pqkl, degree)
        ops.append(
            Op(
                cid,
                lambda fam=fam, alg=alg, d=degree: invariant_space_bruteforce(
                    fam, alg, d, monomial_cap=ORACLE_CAP
                ),
                lambda space, cid=cid: [[cid, "pass", {"oracle": space.dimension}]],
            )
        )
    random.Random(seed).shuffle(ops)
    return ops


def _verdict_records(cid: str):
    def records(verdicts):
        return [
            [cid, v.verdict, {"oracle": v.oracle_dim, "generated": v.generated_dim}]
            for v in verdicts
        ]

    return records


def _claim_records(records):
    return [[r.id, r.status, r.dims] for r in records]


def generation(seed: int) -> list[Op]:
    rng = random.Random(seed)
    fams = _families(GENERATION_CASES)
    ops = []
    for tag, dims, pqkl, degree in GENERATION_CASES:
        fam = fams[tag, dims]
        alg = algebra_for(fam, *pqkl)
        gens = [g for g in scalar_products(tag, alg) if g]
        rng.shuffle(gens)
        cid = "generation:" + _case_id(tag, dims, pqkl, degree)
        ops.append(
            Op(
                cid,
                lambda fam=fam, alg=alg, gens=gens, d=degree: check_generation(
                    fam, alg, gens, [d]
                ),
                _verdict_records(cid),
            )
        )
    opts = ClaimOptions(dims=(1, 1), udims=(2, 2), wdims=(2, 2))
    ops.append(Op("generation:T2.2", lambda: run_claim("T2.2", opts), _claim_records))
    rng.shuffle(ops)
    return ops


def hook_product(shape: Partition) -> int:
    """Product of the hook lengths, n!/f^lambda: the scalar with e*e = c e."""
    conj = shape.conjugate().parts
    return math.prod(
        (arm - c - 1) + (conj[c] - r - 1) + 1
        for r, arm in enumerate(shape.parts)
        for c in range(arm)
    )


def _stabilizer_order(parts) -> int:
    return math.prod(math.factorial(p) for p in parts)


def _square_op(t, variant) -> Op:
    c = hook_product(t.shape)
    terms = _stabilizer_order(t.shape.parts) * _stabilizer_order(t.shape.conjugate().parts)
    cid = f"square:{t}:{variant}"

    def run():
        e = young_symmetrizer(t, variant)
        return e, e * e

    def records(result):
        e, square = result
        ok = len(e) == terms and square == e.scale(c)
        return [[cid, "pass" if ok else "fail", {"terms": len(e)}]]

    return Op(cid, run, records)


def _word_op(t, variant, letters) -> Op:
    c = hook_product(t.shape)
    cid = f"word:{t}:{variant}:{''.join(map(str, letters))}"

    def run():
        e = young_symmetrizer(t, variant)
        ev = apply_group_algebra(e, TensorElement.from_word(WORD_DIMS, plain_word(letters)))
        return ev, apply_group_algebra(e, ev)

    def records(result):
        ev, eev = result
        ok = eev == ev.scale(c)
        return [[cid, "pass" if ok else "fail", {"terms": len(ev.terms)}]]

    return Op(cid, run, records)


def _seeded_word(rng: random.Random, size: int) -> tuple:
    """A word over (2|2) whose letters are distinct except that, at 5 cells,
    the first and last letter are the same even letter.  The seed picks the
    letters; the size of e.v, and so the cost of the op, depends only on
    the tableau, because it is set by which positions hold equal letters."""
    evens = [i for i in WORD_DIMS.indices() if not i.parity]
    if size <= 4:
        return tuple(rng.sample(WORD_DIMS.indices(), size))
    first = rng.choice(evens)
    rest = [i for i in WORD_DIMS.indices() if i != first]
    return (first, *rng.sample(rest, 3), first)


def symmetrizer(seed: int) -> list[Op]:
    """e*e for both variants of every standard tableau with at most 5 cells
    and of one seed-chosen tableau per 6-cell shape; the word action for
    both variants of every tableau with at most 5 cells."""
    rng = random.Random(seed)
    ops = []
    for size in range(1, 7):
        for shape in enumerate_partitions(size):
            tableaux = enumerate_standard_tableaux(shape)
            if size == 6:
                tableaux = [rng.choice(tableaux)]
            for t in tableaux:
                for variant in ("plain", "tilde"):
                    ops.append(_square_op(t, variant))
                    if size <= 5:
                        ops.append(_word_op(t, variant, _seeded_word(rng, size)))
    rng.shuffle(ops)
    return ops


def catalog_op(claim: str, output: str) -> Op:
    def run():
        return cli.main(["verify", "--theorem", claim, "--no-timing", "--output", output])

    def records(code):
        out = [["exit_code", code, None]]
        if code == 0:
            with open(output, encoding="utf-8") as fh:
                report = json.load(fh)
            out += [[c["id"], c["status"], c.get("dims")] for c in report["checks"]]
        return out

    return Op("catalog:" + claim, run, records)


WORKLOAD_OPS = {"oracle": oracle, "generation": generation, "symmetrizer": symmetrizer}
