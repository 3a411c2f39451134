"""The invariant laboratory: brute-force invariant spaces by exact nullspace,
subspaces generated by polynomial families, generation verdicts with
witnesses, and relation-ideal kernel checks.

The oracle walks the monomials of weight zero under the diagonal basis and
stacks the kernel maps of the family's certified generating subset
(`AlgebraFamily.generators`) only; its re-check of the result acts with
every basis element."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .alphabet import IndexRange
from .coefficients import Coeff
from .errors import CapExceeded
from .liealgebras import (
    AlgebraFamily,
    act_through_images,
    annihilates,
    diagonal_weights,
    generator_images,
)
from .linalg import SpanTracker, joint_kernel, rank_rows
from .polynomials import (
    AlgebraDescriptor,
    Monomial,
    Polynomial,
    count_monomials_of_degree,
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


def _factor_keys(algebra: AlgebraDescriptor, gen_index: int) -> tuple:
    """The block keys one generator contributes to the outer multidegree."""
    g = algebra.generator(gen_index)
    if g.family == "uv":
        return (("u", g.row),)
    if g.family == "vw":
        return (("w", g.col),)
    if g.family == "zuw":
        return (("u", g.row), ("w", g.col))
    # symmetric-square style generators grade by both w-letters
    return (("w", g.row), ("w", g.col))


def check_monomial_cap(algebra: AlgebraDescriptor, degree: int, cap: int) -> None:
    """Raise CapExceeded when the full degree-d monomial basis exceeds `cap`,
    counted in closed form."""
    size = count_monomials_of_degree(algebra, degree)
    if size > cap:
        raise CapExceeded("monomial basis", size, cap)


def blocked_monomials(
    algebra: AlgebraDescriptor,
    degree: int,
    cap: int = DEFAULT_MONOMIAL_CAP,
    weights: Sequence[Sequence] = (),
) -> dict:
    """The degree-d monomials of weight zero under `weights` (all of them
    when there are none), grouped by outer multidegree: the sorted multiset
    of the block keys of their factors, which the inner action and the
    substitution maps both preserve.  Each block lists its monomials in
    increasing order.  CapExceeded is raised, before any monomial is built,
    when the full degree-d basis exceeds `cap`."""
    check_monomial_cap(algebra, degree, cap)
    keys = [_factor_keys(algebra, i) for i in range(len(algebra))]
    blocks: dict = {}
    for m in monomials_of_degree(algebra, degree, weights):
        blocks.setdefault(tuple(sorted(k for g in m for k in keys[g])), []).append(m)
    return blocks


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
) -> InvariantSpace:
    """Exact joint kernel of the family action on the degree-d monomials.

    Works block by block in the outer multidegree (the action only touches
    the inner letters).  The diagonal elements act on a monomial by a
    scalar, its weight (see `diagonal_weights`), so only the monomials of
    weight zero under all of them can occur: the walk of
    `blocked_monomials` enumerates just those, pruning as it goes.  The
    monomial cap still counts the full degree-d basis.  The elements of
    `family.generators` act through their generator-image tables
    (`generator_images`), built once per call: the annihilator of a
    polynomial is a Lie sub-superalgebra, so on weight-zero monomials their
    joint kernel is the kernel of every off-diagonal element, and it is
    read off the reduced echelon form.  Every basis polynomial is then
    checked against every element of the family (`annihilates`),
    independently of the generating subset.
    """
    blocks = blocked_monomials(
        algebra, degree, monomial_cap, diagonal_weights(family, algebra)
    )
    maps = [
        lambda m, t=generator_images(x, algebra), p=x.parity: act_through_images(
            t, p, algebra, {m: 1}
        )
        for x in family.generators
    ]
    basis = [
        Polynomial(algebra, terms)
        for key in sorted(blocks)
        for terms in joint_kernel(blocks[key], maps, DEFAULT_ENTRY_CAP)
    ]
    if not annihilates(family.basis, basis):
        raise AssertionError("oracle produced a non-invariant")
    return InvariantSpace(family.tag, degree, algebra, basis)


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
    tracker = SpanTracker()
    return [f for f in products if tracker.add(f.terms)]


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
        tracker = SpanTracker()
        for f in generated_subspace(generators, d):
            tracker.add(f.terms)
        gen_dim = tracker.rank
        # the first oracle vector outside the generated span is the witness
        witness = None
        for f in oracle.basis:
            if tracker.add(f.terms) and witness is None:
                witness = f
        # soundness: the oracle basis is independent, so the joint span has
        # its dimension only when the generated space sits inside it
        if tracker.rank != oracle.dimension:
            raise AssertionError("generated subspace escapes the oracle")
        verdict = "equal" if (gen_dim == oracle.dimension and witness is None) else "strict-subspace"
        out.append(
            GenerationVerdict(family.tag, d, oracle.dimension, gen_dim, verdict, witness)
        )
    return out


# ---------------------------------------------------------------------------
# substitution homomorphisms and relation kernels


@dataclass
class SubstitutionMap:
    """Algebra homomorphism given by generator images; parities must match.

    Monomial images are built through `image`, which keeps the images of the
    proper prefixes it builds, so monomials that share a prefix share its
    products."""

    source: AlgebraDescriptor
    target: AlgebraDescriptor
    images: dict[int, Polynomial]
    _prefixes: dict[Monomial, Polynomial] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for i, img in self.images.items():
            p = img.parity()
            if img and p != self.source.parities[i]:
                raise ValueError("image parity differs from generator parity")

    def image(self, mono: Monomial) -> Polynomial:
        """The image of a normal-form source monomial, which callers must not
        modify: the image of its longest proper prefix already built, times
        the images of the remaining factors.  Every proper prefix built on the
        way is stored; the monomial itself is not, so after a degree-d pass
        the table holds only keys shorter than d."""
        if not mono:
            return self.target.one()
        table, images = self._prefixes, self.images
        k = len(mono) - 1
        while k > 1 and mono[:k] not in table:
            k -= 1
        if k > 1:
            term = table[mono[:k]]
        else:
            term, k = images[mono[0]], 1
        for j in range(k, len(mono)):
            if j > k:
                table[mono[:j]] = term
            if not term:
                break
            term = term * images[mono[j]]
        return term

    def apply(self, f: Polynomial) -> Polynomial:
        if f.algebra is not self.source:
            raise ValueError("polynomial not over the source algebra")
        # a sum that cancels is dropped at once, as a chain of Polynomial
        # additions drops it, so a term that comes back is placed last
        out: dict[Monomial, Coeff] = {}
        get = out.get
        for mono, coeff in f.terms.items():
            for key, v in self.image(mono).terms.items():
                c = get(key, 0) + v * coeff
                if c:
                    out[key] = c
                else:
                    del out[key]
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
    for monos in blocks.values():
        tracker = SpanTracker()
        for m in monos:
            tracker.add(subs.image(m).terms)
        total += len(monos) - tracker.rank
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
    span_dim = rank_rows(f.terms for f in relation_polys)
    return RelationReport(degree, len(relation_polys), all_zero, kernel_dim, span_dim)
