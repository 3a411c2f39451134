"""The invariant laboratory: brute-force invariant spaces by exact nullspace,
subspaces generated by polynomial families, generation verdicts with
witnesses, and relation-ideal kernel checks.

The oracle walks the monomials of weight zero under the diagonal basis and
stacks the kernel maps of the family's certified generating subset
(`AlgebraFamily.generators`) only; its re-check of the result acts with
every basis element.  `check_generation` solves each degree once and
reads the oracle's dimension from its first-block kernels; it relabels
them into the basis, and re-checks it, only when it needs a witness: an
`equal` verdict needs none, once every basis element kills the
generators.

The outer letters are a symmetry of every inner action: a permutation of
the u letters of one parity, or of the w letters of one parity, is an even
automorphism of the algebra that commutes with gl(V), so it maps each
outer-multidegree block, and its kernel, onto another block's (super
Schur-Weyl duality: Sergeev, Math. USSR Sb. 51, 1985; Berele-Regev, Adv.
Math. 64, 1987).  The oracle solves one block per orbit of these
permutations and carries the kernel to the others by relabeling.

The relation check uses the same orbits on the source of a substitution
map, S(U x W), whose generators z[r,s] each name a u letter and a w letter.
It trusts no construction: it checks once per call, on the generators,
that the map commutes with each swap of adjacent letters in a class.  It
then carries each relation's slice on each block of an orbit onto the
orbit's first block, its least key as in the oracle, and substitutes and
ranks that block only.  A map that fails keeps every block apart."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .alphabet import IndexRange
from .coefficients import Coeff, add_scaled
from .errors import CapExceeded
from .liealgebras import (
    AlgebraFamily,
    act_through_images,
    annihilates,
    diagonal_weights,
)
from .linalg import SpanTracker, _primitive_terms, joint_kernel, rank_rows
from .polynomials import (
    AlgebraDescriptor,
    Monomial,
    Polynomial,
    count_monomials_of_degree,
    field_width,
    make_mixed_algebra,
    monomials_of_degree,
    normalize_product,
    pack,
    packed_product,
    unpack,
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
    increasing order, the blocks in the order of their first monomials.  A
    monomial is grouped by its letter counts packed into one integer, with
    room for 2d in each field (a symmetric-square factor may carry one w
    letter twice); a block's key is sorted from its first monomial only.
    CapExceeded is raised, before any monomial is built, when the full
    degree-d basis exceeds `cap`."""
    check_monomial_cap(algebra, degree, cap)
    keys = [_factor_keys(algebra, i) for i in range(len(algebra))]
    width = field_width(2 * degree)
    fields: dict = {}
    packed = [sum(1 << width * fields.setdefault(k, len(fields)) for k in ks) for ks in keys]
    groups: dict[int, list[Monomial]] = {}
    for m in monomials_of_degree(algebra, degree, weights):
        groups.setdefault(sum(map(packed.__getitem__, m)), []).append(m)
    return {tuple(sorted(k for g in ms[0] for k in keys[g])): ms for ms in groups.values()}


class BlockOrbits:
    """The orbits of the outer-multidegree blocks under the permutations of
    the outer letters that commute with the inner action: the u letters and
    the w letters, each split by parity into a class.  The mixed algebras
    (`algebra_for`) and the `zuw` algebras of U x W have these classes; an
    algebra that does not record its u and w ranges has none, and each of
    its blocks is its own orbit."""

    def __init__(self, algebra: AlgebraDescriptor) -> None:
        letters: list[tuple] = []
        spans: list[range] = []
        self.pairs = {g.family for g in algebra.generators} == {"zuw"}
        outer = None not in (algebra.u_range, algebra.w_range)
        if outer and (self.pairs or algebra.v_range is not None):
            for tag, letter_range in (("u", algebra.u_range), ("w", algebra.w_range)):
                # a range lists its even letters, then its odd ones
                split = len(letters) + letter_range.even_count
                spans += [range(len(letters), split), range(split, split + letter_range.odd_count)]
                letters += [(tag, a) for a in letter_range]
        self.spans = [span for span in spans if span]
        self.index = index = {a: n for n, a in enumerate(letters)}
        # each generator as its two letters, the first outer (a uv row, a
        # vw column, a zuw row) and the second inner, or outer for zuw,
        # and back
        self.slots = [
            (index["u", g.row], index["w", g.col]) if self.pairs
            else (index["u", g.row], g.col) if g.family == "uv"
            else (index["w", g.col], g.row)
            for g in algebra.generators
        ] if self.spans else []
        self.at = {slot: i for i, slot in enumerate(self.slots)}

    def orbit(self, key: tuple) -> tuple[tuple, list[int]]:
        """A block key's orbit and its letters (by their place in the
        classes) in rank order: in each class by decreasing multiplicity in
        the key, ties in letter order.  The orbit's canonical key puts the
        ranked letters on the class's letters in order, so the
        multiplicities in rank order name it."""
        if not self.spans:
            return key, []
        counts = [0] * len(self.index)
        for a in key:
            counts[self.index[a]] += 1
        ranked = [
            n for span in self.spans for n in sorted(span, key=counts.__getitem__, reverse=True)
        ]
        return tuple(map(counts.__getitem__, ranked)), ranked

    def generator_map(self, solved: list[int], ranked: list[int]) -> list[int]:
        """Each generator's image under the letter map that sends the ranked
        letters of a solved block to the same ranks of another block."""
        moves = dict(zip(solved, ranked))
        if self.pairs:
            return [self.at[moves[n], moves[x]] for n, x in self.slots]
        return [self.at[moves[n], inner] for n, inner in self.slots]

    def transpositions(self) -> list[list[int]]:
        """The generator maps of the swaps of adjacent letters inside each
        class, which generate every class's symmetric group."""
        order = range(len(self.index))
        out = []
        for span in self.spans:
            for n in span[:-1]:
                swapped = list(order)
                swapped[n : n + 2] = n + 1, n
                out.append(self.generator_map(order, swapped))
        return out


def _relabel(terms: dict, gens: list[int], parities: Sequence[int]):
    """Each monomial of a term dict with its factors sent through `gens`, a
    generator map of a letter permutation, and re-sorted: (monomial, Koszul
    sign, coefficient)."""
    for mono, c in terms.items():
        sign, key = normalize_product([gens[g] for g in mono], parities)
        yield key, sign, c


def _relabeled(
    kernel: list[dict], gens: list[int], parities: Sequence[int], monomials: list[Monomial]
) -> list[dict]:
    """A block's kernel from the `kernel`, as primitive integer vectors, of
    another block of its orbit, in `nullspace`'s form: one vector per free
    monomial, in increasing order, that is 1 there and 0 on the other free
    monomials, the free monomials being the vectors' greatest.

    `gens` sends each generator to its image under the letter map from the
    solved block to this one (`_relabel`).  One SpanTracker pass, keyed by
    each monomial negated so that a row's pivot is its greatest monomial,
    brings the images to that form; each vector is divided by its pivot at
    the end.  The vectors are keyed by the block's own `monomials`, so the
    basis shares their tuples."""
    # the monomials of a block share a degree, so negation reverses their order
    negated = {tuple(-g for g in m): m for m in monomials}
    tracker = SpanTracker()
    for vec in kernel:
        tracker.add({tuple(-g for g in k): s * c for k, s, c in _relabel(vec, gens, parities)})
    out = []
    for pivot, row in sorted(tracker.rows.items(), reverse=True):
        d = row[pivot]
        out.append({negated[k]: Fraction(x, d) for k, x in sorted(row.items(), reverse=True)})
    return out


@dataclass
class InvariantSpace:
    family_tag: str
    degree: int
    algebra: AlgebraDescriptor
    basis: list[Polynomial]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _solve_orbits(
    family: AlgebraFamily, algebra: AlgebraDescriptor, degree: int, monomial_cap: int
) -> tuple:
    """One solve of the oracle at a degree: the `BlockOrbits`, the blocks
    of `blocked_monomials` in sorted key order as (monomials, orbit, ranked
    letters), and each orbit's first-block `joint_kernel`, with that
    block's ranked letters.  The oracle's dimension is the sum, over the
    blocks, of their orbit's kernel size."""
    blocks = blocked_monomials(algebra, degree, monomial_cap, diagonal_weights(family, algebra))
    orbits = BlockOrbits(algebra)
    table = family.table(algebra)
    placed, solved = [], {}
    for key in sorted(blocks):
        monos, (orbit, ranked) = blocks[key], orbits.orbit(key)
        if orbit not in solved:
            kernel = joint_kernel(
                monos, lambda m: act_through_images(table, algebra, {m: 1}), DEFAULT_ENTRY_CAP
            )
            solved[orbit] = kernel, ranked
        placed.append((monos, orbit, ranked))
    return orbits, placed, solved


def _oracle_basis(family: AlgebraFamily, algebra: AlgebraDescriptor, solve: tuple) -> list:
    """The basis of a `_solve_orbits` solve, block by block: an orbit's
    first block gives its kernel, each later one relabels it; `annihilates`
    then re-checks every polynomial with every element of the family."""
    orbits, placed, solved = solve
    basis, integral = [], {}
    for monos, orbit, ranked in placed:
        kernel, ranked_there = solved[orbit]
        if orbit not in integral:
            polys = [Polynomial(algebra, terms) for terms in kernel]
            # an integral vector's primitive form is its own term dict
            integral[orbit] = [_primitive_terms(f.terms) for f in polys]
            basis.extend(polys)
        elif kernel:
            gens = orbits.generator_map(ranked_there, ranked)
            relabeled = _relabeled(integral[orbit], gens, algebra.parities, monos)
            basis.extend(Polynomial(algebra, terms) for terms in relabeled)
    if not annihilates(family, basis):
        raise AssertionError("oracle produced a non-invariant")
    return basis


def invariant_space_bruteforce(
    family: AlgebraFamily,
    algebra: AlgebraDescriptor,
    degree: int,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
) -> InvariantSpace:
    """Exact joint kernel of the family action on the degree-d monomials.

    Works block by block in the outer multidegree (the action only touches
    the inner letters), one `joint_kernel` per orbit of blocks under the
    outer letter permutations (`BlockOrbits`): the first block of an orbit,
    in sorted order, is solved, and each later one relabels its kernel.
    The diagonal elements act on a monomial by a scalar, its weight (see
    `diagonal_weights`), so only the monomials of weight zero under all of
    them can occur: the walk of `blocked_monomials` enumerates just those,
    pruning as it goes.  The monomial cap still counts the full degree-d
    basis.  The elements of `family.generators` share the family's table
    (`AlgebraFamily.table`) and act on each monomial in one walk: the
    annihilator of a polynomial is a Lie sub-superalgebra, so on
    weight-zero monomials their joint kernel is the kernel of every
    off-diagonal element, and it is read off the reduced echelon form.
    Every basis polynomial is then checked against every element of the
    family (`annihilates`), independently of the generating subset.
    """
    solve = _solve_orbits(family, algebra, degree, monomial_cap)
    return InvariantSpace(family.tag, degree, algebra, _oracle_basis(family, algebra, solve))


def generated_subspace(
    generators: Sequence[Polynomial], degree: int, *, _tracker: Optional[SpanTracker] = None
) -> list[Polynomial]:
    """Products of the generators of total degree exactly `degree`,
    deduplicated to a basis.  Generators must be homogeneous.  The products
    are packed at `field_width(degree)` and reduced in `_tracker`, returning
    nothing, when given (`check_generation` goes on adding to it), else in
    a tracker of their own, and the basis is unpacked."""
    if degree < 1:
        raise ValueError("degree must be positive")
    width, gens = field_width(degree), []
    for g in generators:
        if len(d := {len(m) for m in g.terms}) > 1:
            raise ValueError("generators must be homogeneous")
        if g and (d := d.pop()) <= degree:
            algebra = g.algebra
            gens.append((d, pack(g.terms, width, algebra.parities)))
    tracker, basis = SpanTracker() if _tracker is None else _tracker, []

    def rec(start: int, total: int, current: dict):
        if total == degree:
            if tracker.add(current) and _tracker is None:
                basis.append(Polynomial(algebra, unpack(current, width, len(algebra))))
            return
        for i in range(start, len(gens)):
            d, g = gens[i]
            if total + d <= degree and (nxt := packed_product(current, g, len(algebra))):
                rec(i, total + d, nxt)

    rec(0, 0, {0: 1})
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
    oracle, with a witness polynomial on strict inclusion.

    Each degree is solved once (`_solve_orbits`), its caps checked before
    any product: K, the oracle's dimension, is read from the orbits'
    first-block kernels.  The elements act as derivations, so when all of
    `family.basis` kill the generators (`annihilates`, once per call)
    every product is invariant: generated rank <= dim Inv <= K.  A degree
    whose products reach rank K is `equal`, its basis neither relabeled nor
    re-checked.  Any other builds (and re-checks) the oracle basis from the
    same kernels and adds it, packed as the products are, to their tracker:
    the first oracle vector outside their span is the witness."""
    invariant_generators = annihilates(family, generators)
    out = []
    for d in degrees:
        solve = _solve_orbits(family, algebra, d, monomial_cap)
        _, placed, solved = solve
        oracle_dim = sum(len(solved[orbit][0]) for _, orbit, _ in placed)
        tracker = SpanTracker()
        generated_subspace(generators, d, _tracker=tracker)
        gen_dim, witness = tracker.rank, None
        if not invariant_generators or gen_dim != oracle_dim:
            for f in _oracle_basis(family, algebra, solve):
                if tracker.add(pack(f.terms, field_width(d), algebra.parities)) and witness is None:
                    witness = f
            # soundness: the oracle basis is independent, so the joint span
            # has its dimension only when the generated space sits inside it
            if tracker.rank != oracle_dim:
                raise AssertionError("generated subspace escapes the oracle")
        verdict = "equal" if witness is None else "strict-subspace"
        out.append(GenerationVerdict(family.tag, d, oracle_dim, gen_dim, verdict, witness))
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
        # one width for every term, and a sum that cancels is dropped at
        # once, as a chain of Polynomial additions drops it, so a term that
        # comes back is placed last
        width, image = _packed_images(self, f.degree())
        out: dict[int, Coeff] = {}
        for mono, coeff in f.terms.items():
            for key, v in image(mono).items():
                c = out.get(key, 0) + v * coeff
                if c:
                    out[key] = c
                else:
                    del out[key]
        return Polynomial(self.target, unpack(out, width, len(self.target)))


def _packed_images(subs: SubstitutionMap, degree: int) -> tuple:
    """(width, image) for one pass over source monomials of degree at most
    `degree`: the images packed (`pack`) at a width that fits their
    products, and `image(mono)`, the packed image of a normal-form monomial,
    which callers must not modify.  It extends the monomial's longest prefix
    in the pass's table by the remaining factors' images, storing each
    proper prefix built, so monomials that share a prefix share its
    products.  The table starts with () and the generators: after monomials
    of degree d it holds only keys shorter than d."""
    top = max((img.degree() for img in subs.images.values()), default=0)
    width, n = field_width(max(degree, 1) * top), len(subs.target)
    images = {i: pack(f.terms, width, subs.target.parities) for i, f in subs.images.items()}
    table = {(): {0: 1}, **{(i,): packed for i, packed in images.items()}}

    def image(mono: Monomial) -> dict:
        k = len(mono)
        while mono[:k] not in table:
            k -= 1
        term = table[mono[:k]]
        for j in range(k, len(mono)):
            if j > k:
                table[mono[:j]] = term
            if not term:
                break
            term = packed_product(term, images[mono[j]], n)
        return term

    return width, image


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
    source monomials: the pass of `relation_kernel_check` with no
    relations, one streamed pass per orbit of blocks in the outer
    multidegree."""
    return relation_kernel_check(subs, (), degree, monomial_cap).kernel_dim


def _commutes_with_letters(subs: SubstitutionMap, orbits: BlockOrbits) -> bool:
    """Whether the substitution commutes with the letter permutations of the
    source's classes (`orbits`), checked on the generators: for each swap
    of adjacent letters in a class, the image of each generator's swap is
    the swap of its image, each target monomial re-sorted with its Koszul
    sign.  The swaps generate every class's symmetric group and both sides
    are algebra homomorphisms, so the map then commutes with every such
    permutation.  A target whose u and w letters differ from the source's
    fails."""
    target = BlockOrbits(subs.target)
    if target.index != orbits.index:
        return False
    parities = subs.target.parities
    for src, tgt in zip(orbits.transpositions(), target.transpositions()):
        for i, img in subs.images.items():
            moved = {k: s * c for k, s, c in _relabel(img.terms, tgt, parities)}
            if subs.images.get(src[i]) != Polynomial(subs.target, moved):
                return False
    return True


def relation_kernel_check(
    subs: SubstitutionMap,
    relation_polys: Sequence[Polynomial],
    degree: int,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
) -> RelationReport:
    """(a) every relation polynomial substitutes to zero; (b) at the stated
    degree the kernel dimension equals the rank of the relation family.

    One streamed pass per orbit of the blocks of `blocked_monomials` (whose
    cap is checked before any substitution) serves both.  An orbit's blocks
    go in sorted key order, so its first block is its least key, as in the
    oracle.  Each relation's slice on each block of the orbit is carried
    onto the first block, keyed by (block, relation): the letter map τ from
    its block sends each of its monomials to a first-block monomial with a
    Koszul sign (`_relabel`).  Then each first-block monomial's image is
    built once, added to the orbit's SpanTracker and into every carried
    slice containing the monomial, and dropped; the first block's kernel
    dimension counts for each block of the orbit.  The substitution
    preserves the outer multidegree, so a relation's image is zero exactly
    when every block slice of it is.

    The orbits are those of the letter permutations of the source's classes
    (`BlockOrbits`) once `_commutes_with_letters` certifies, on the
    generators, that the map commutes with them: as subs∘τ = τ∘subs and τ
    is an automorphism of the target, a carried slice is τ of the real
    slice, zero exactly when it is.  Otherwise (the certificate fails, or a
    symmetric-square source, whose classes relabel with a sign) every block
    is its own orbit."""
    occurrences: dict[Monomial, list] = {}
    for i, f in enumerate(relation_polys):
        if f.algebra is not subs.source:
            raise ValueError("polynomial not over the source algebra")
        if not f.is_homogeneous_degree(degree):
            raise ValueError("relation polynomial has the wrong degree")
        for mono, coeff in f.terms.items():
            occurrences.setdefault(mono, []).append((i, coeff))
    blocks = blocked_monomials(subs.source, degree, monomial_cap)
    orbits = BlockOrbits(subs.source)
    certified = _commutes_with_letters(subs, orbits)
    by_orbit: dict = {}
    for key, monos in blocks.items():
        orbit, ranked = orbits.orbit(key) if certified else (key, [])
        by_orbit.setdefault(orbit, []).append((key, monos, ranked))
    _, image_of = _packed_images(subs, degree)
    all_zero, kernel_dim = True, 0
    for group in by_orbit.values():
        group.sort()
        _, monos, ranked = group[0]
        # every relation's slice on every block, carried onto the first
        # block with its Koszul signs and keyed by (block, relation)
        carried = {m: [((0, i), c) for i, c in occurrences[m]] for m in monos if m in occurrences}
        for b, (_, there, ranked_there) in enumerate(group[1:], 1):
            gens = orbits.generator_map(ranked_there, ranked)
            mine = {m: occurrences[m] for m in there if m in occurrences}
            for key, sign, occurs in _relabel(mine, gens, subs.source.parities):
                carried.setdefault(key, []).extend([((b, i), sign * c) for i, c in occurs])
        tracker, slices = SpanTracker(), {}
        for m in monos:
            image = image_of(m)
            tracker.add(image)
            for at, coeff in carried.get(m, ()):
                add_scaled(slices.setdefault(at, {}), image, coeff)
        kernel_dim += (len(monos) - tracker.rank) * len(group)
        all_zero = all_zero and not any(any(out.values()) for out in slices.values())
    span_dim = rank_rows(f.terms for f in relation_polys)
    return RelationReport(degree, len(relation_polys), all_zero, kernel_dim, span_dim)
