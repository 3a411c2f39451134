"""The invariant laboratory: brute-force invariant spaces by exact nullspace,
subspaces generated by polynomial families, generation verdicts with
witnesses, and relation-ideal kernel checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .alphabet import IndexRange
from .coefficients import Coeff, add_scaled
from .errors import CapExceeded
from .liealgebras import AlgebraFamily, MatrixElement, act_on_polynomial
from .linalg import SpanTracker, nullspace
from .polynomials import (
    AlgebraDescriptor,
    Monomial,
    Polynomial,
    make_mixed_algebra,
    monomials_of_degree,
)

DEFAULT_MONOMIAL_CAP = 20_000
DEFAULT_ENTRY_CAP = 2_000_000


def algebra_for(
    family: AlgebraFamily, p: int, q: int, k: int, l: int
) -> AlgebraDescriptor:
    """The polynomial ring carrying the family's inner action, with u-block
    dimensions (k|l) and w-block dimensions (p|q)."""
    return make_mixed_algebra(family.dims, IndexRange(k, l), IndexRange(p, q))


def _gen_block_key(algebra: AlgebraDescriptor, gen_index: int):
    g = algebra.generator(gen_index)
    if g.family == "uv":
        return ("u", g.row)
    if g.family == "vw":
        return ("w", g.col)
    if g.family == "zuw":
        return (("u", g.row), ("w", g.col))
    # symmetric-square style generators grade by both w-letters
    return (("w", g.row), ("w", g.col))


def block_key(algebra: AlgebraDescriptor, mono: Monomial):
    """Outer multidegree of a monomial: the multiset of block keys of its
    factors.  The inner action and the substitution maps both preserve it."""
    keys = []
    for g in mono:
        k = _gen_block_key(algebra, g)
        if isinstance(k[0], tuple):
            keys.extend(k)
        else:
            keys.append(k)
    return tuple(sorted(keys))


def blocked_monomials(
    algebra: AlgebraDescriptor, degree: int, cap: int = DEFAULT_MONOMIAL_CAP
) -> dict:
    monos = monomials_of_degree(algebra, degree)
    if len(monos) > cap:
        raise CapExceeded("monomial basis", len(monos), cap)
    blocks: dict = {}
    for m in monos:
        blocks.setdefault(block_key(algebra, m), []).append(m)
    return blocks


def _weight(algebra: AlgebraDescriptor, mono: Monomial, x: MatrixElement) -> Coeff:
    """Eigenvalue of a diagonal matrix on a monomial."""
    total = 0
    for g in mono:
        gen = algebra.generator(g)
        if gen.family == "uv":
            total += x.entries.get((gen.col, gen.col), 0)
        elif gen.family == "vw":
            total -= x.entries.get((gen.row, gen.row), 0)
    return total


@dataclass
class InvariantSpace:
    family_tag: str
    degree: int
    algebra: AlgebraDescriptor
    basis: list[Polynomial]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def invariant_space_bruteforce(
    family: AlgebraFamily,
    algebra: AlgebraDescriptor,
    degree: int,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
    entry_cap: int = DEFAULT_ENTRY_CAP,
    verify: bool = True,
) -> InvariantSpace:
    """Exact joint kernel of the family action on the degree-d monomials.

    Works block by block in the outer multidegree (the action only touches
    the inner letters), with a diagonal weight pre-filter inside each block.
    """
    blocks = blocked_monomials(algebra, degree, monomial_cap)
    diagonal = [b for b in family.basis if b.is_diagonal()]
    rest = [b for b in family.basis if not b.is_diagonal()]
    basis: list[Polynomial] = []
    for key in sorted(blocks):
        monos = [
            m
            for m in blocks[key]
            if all(_weight(algebra, m, x) == 0 for x in diagonal)
        ]
        if not monos:
            continue
        pos = {m: i for i, m in enumerate(monos)}
        rows: list[list[Coeff]] = []
        for x in rest:
            images: dict[Monomial, dict[Monomial, Coeff]] = {}
            for m in monos:
                img = act_on_polynomial(x, Polynomial(algebra, {m: 1}))
                for u, c in img.terms.items():
                    images.setdefault(u, {})[m] = c
            for u, col in images.items():
                rows.append([col.get(m, 0) for m in monos])
        if len(rows) * len(monos) > entry_cap:
            raise CapExceeded("action matrix", len(rows) * len(monos), entry_cap)
        if rows:
            vectors = nullspace(rows, ncols=len(monos))
        else:
            vectors = [
                [1 if i == j else 0 for j in range(len(monos))] for i in range(len(monos))
            ]
        for vec in vectors:
            poly = Polynomial(algebra, {monos[i]: v for i, v in enumerate(vec) if v})
            basis.append(poly)
    if verify:
        for f in basis:
            for x in family.basis:
                if not act_on_polynomial(x, f).is_zero():
                    raise AssertionError("oracle produced a non-invariant")
    return InvariantSpace(family.tag, degree, algebra, basis)


def polynomials_to_matrix(
    polys: Sequence[Polynomial],
) -> tuple[list[Monomial], list[list[Coeff]]]:
    monos = sorted({m for f in polys for m in f.terms})
    pos = {m: i for i, m in enumerate(monos)}
    rows = []
    for f in polys:
        vec: list[Coeff] = [0] * len(monos)
        for m, c in f.terms.items():
            vec[pos[m]] = c
        rows.append(vec)
    return monos, rows


def span_dimension(polys: Sequence[Polynomial]) -> int:
    if not polys:
        return 0
    _, rows = polynomials_to_matrix(polys)
    tracker = SpanTracker(len(rows[0]))
    for r in rows:
        tracker.add(r)
    return tracker.rank


def generated_subspace(
    generators: Sequence[Polynomial], degree: int
) -> list[Polynomial]:
    """Products of the generators of total degree exactly `degree`,
    deduplicated to a basis.  Generators must be homogeneous."""
    if degree == 0:
        raise ValueError("degree must be positive")
    gens = [g for g in generators if g]
    if not gens:
        return []
    algebra = gens[0].algebra
    degrees = []
    for g in gens:
        d = {len(m) for m in g.terms}
        if len(d) != 1:
            raise ValueError("generators must be homogeneous")
        degrees.append(d.pop())
    products: list[Polynomial] = []

    def rec(start: int, total: int, current: Polynomial):
        if total == degree:
            products.append(current)
            return
        for i in range(start, len(gens)):
            if total + degrees[i] > degree:
                continue
            nxt = current * gens[i]
            if nxt:
                rec(i, total + degrees[i], nxt)

    rec(0, 0, algebra.one())
    if not products:
        return []
    monos, rows = polynomials_to_matrix(products)
    tracker = SpanTracker(len(monos))
    basis = []
    for f, row in zip(products, rows):
        if tracker.add(row):
            basis.append(f)
    return basis


@dataclass
class GenerationVerdict:
    family_tag: str
    degree: int
    oracle_dim: int
    generated_dim: int
    verdict: str
    witness: Optional[Polynomial] = None

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"


def check_generation(
    family: AlgebraFamily,
    algebra: AlgebraDescriptor,
    generators: Sequence[Polynomial],
    degrees: Sequence[int],
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
) -> list[GenerationVerdict]:
    """Per-degree comparison of the generated subspace with the brute-force
    oracle, with a witness polynomial on strict inclusion."""
    out = []
    for d in degrees:
        oracle = invariant_space_bruteforce(family, algebra, d, monomial_cap=monomial_cap)
        gen_basis = generated_subspace(generators, d)
        all_polys = list(gen_basis) + list(oracle.basis)
        if all_polys:
            monos = sorted({m for f in all_polys for m in f.terms})
            pos = {m: i for i, m in enumerate(monos)}

            def vec(f: Polynomial) -> list[Coeff]:
                v: list[Coeff] = [0] * len(monos)
                for m, c in f.terms.items():
                    v[pos[m]] = c
                return v

            tracker = SpanTracker(len(monos))
            for f in gen_basis:
                tracker.add(vec(f))
            gen_dim = tracker.rank
            witness = None
            for f in oracle.basis:
                if not tracker.contains(vec(f)):
                    witness = f
                    break
            # soundness: the generated space must sit inside the oracle space
            oracle_tracker = SpanTracker(len(monos))
            for f in oracle.basis:
                oracle_tracker.add(vec(f))
            for f in gen_basis:
                if not oracle_tracker.contains(vec(f)):
                    raise AssertionError("generated subspace escapes the oracle")
        else:
            gen_dim = 0
            witness = None
        verdict = "equal" if (gen_dim == oracle.dimension and witness is None) else "strict-subspace"
        out.append(
            GenerationVerdict(family.tag, d, oracle.dimension, gen_dim, verdict, witness)
        )
    return out


# ---------------------------------------------------------------------------
# substitution homomorphisms and relation kernels


@dataclass
class SubstitutionMap:
    """Algebra homomorphism given by generator images; parities must match."""

    source: AlgebraDescriptor
    target: AlgebraDescriptor
    images: dict[int, Polynomial]

    def __post_init__(self):
        for i, img in self.images.items():
            p = img.parity()
            if img and p != self.source.parities[i]:
                raise ValueError("image parity differs from generator parity")

    def apply(self, f: Polynomial) -> Polynomial:
        if f.algebra is not self.source:
            raise ValueError("polynomial not over the source algebra")
        out: dict[Monomial, Coeff] = {}
        one = self.target.one()
        for mono, coeff in f.terms.items():
            term = one
            for g in mono:
                term = term * self.images[g]
                if not term:
                    break
            add_scaled(out, term.terms, coeff)
        return Polynomial(self.target, out)


@dataclass
class RelationReport:
    degree: int
    relations_checked: int
    all_substitute_to_zero: bool
    kernel_dim: int
    relation_span_dim: int

    @property
    def kernel_matches_span(self) -> bool:
        return self.kernel_dim == self.relation_span_dim


def kernel_dimension_at_degree(
    subs: SubstitutionMap, degree: int, monomial_cap: int = DEFAULT_MONOMIAL_CAP
) -> int:
    """Dimension of the kernel of the substitution map on the degree-d
    source monomials, block by block in the outer multidegree."""
    blocks = blocked_monomials(subs.source, degree, monomial_cap)
    total = 0
    for key in sorted(blocks):
        monos = blocks[key]
        image_polys = [
            subs.apply(Polynomial(subs.source, {m: 1})) for m in monos
        ]
        target_monos = sorted({m for f in image_polys for m in f.terms})
        pos = {m: i for i, m in enumerate(target_monos)}
        tracker = SpanTracker(len(target_monos) or 1)
        rank = 0
        for f in image_polys:
            vec: list[Coeff] = [0] * (len(target_monos) or 1)
            for m, c in f.terms.items():
                vec[pos[m]] = c
            if tracker.add(vec):
                rank += 1
        total += len(monos) - rank
    return total


def relation_kernel_check(
    subs: SubstitutionMap,
    relation_polys: Sequence[Polynomial],
    degree: int,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
) -> RelationReport:
    """(a) every relation polynomial substitutes to zero; (b) at the stated
    degree the kernel dimension equals the rank of the relation family."""
    all_zero = True
    for f in relation_polys:
        if not f.is_homogeneous_degree(degree):
            raise ValueError("relation polynomial has the wrong degree")
        if not subs.apply(f).is_zero():
            all_zero = False
    kernel_dim = kernel_dimension_at_degree(subs, degree, monomial_cap)
    span_dim = span_dimension(list(relation_polys))
    return RelationReport(degree, len(relation_polys), all_zero, kernel_dim, span_dim)
