import contextlib
import inspect
import itertools
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, ev, od
import superinv.claims as claims_module
import superinv.invariants as invariants_module
from superinv.invariants import (
    BlockOrbits,
    CapExceeded,
    DEFAULT_MONOMIAL_CAP,
    SubstitutionMap,
    algebra_for,
    blocked_monomials,
    check_generation,
    generated_subspace,
    invariant_space_bruteforce,
    kernel_dimension_at_degree,
    relation_kernel_check,
)
from superinv.liealgebras import (
    AlgebraFamily,
    MatrixElement,
    act_through_images,
    action_table,
    build_family,
    diagonal_weights,
)
from superinv.linalg import SpanTracker, joint_kernel, rank_rows
from superinv.generators import scalar_products, substitution_map
from superinv.named_polynomials import P_t
from superinv.polynomials import (
    Polynomial,
    count_monomials_of_degree,
    make_sym_square_algebra,
    make_uw_algebra,
    monomials_of_degree,
    normalize_product,
)
from superinv.tableaux import Partition, fill_rows, enumerate_semistandard

from reference import reference_product


def test_oracle_simplest_case():
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    assert invariant_space_bruteforce(fam, alg, 1).dimension == 0
    space = invariant_space_bruteforce(fam, alg, 2)
    assert space.dimension == 1
    assert str(space.basis[0]) == "1*x[1,1]*x*[1,1]"


def test_oracle_rejects_cap():
    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 2, 2, 2, 2)
    with pytest.raises(CapExceeded):
        invariant_space_bruteforce(fam, alg, 4, monomial_cap=10)


def test_oracle_order_independence():
    """Dimension does not depend on the block visit order: permute the
    basis and compare."""
    fam = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(fam, 1, 1, 1, 1)
    dim = invariant_space_bruteforce(fam, alg, 2).dimension
    shuffled = build_family("gl", IndexRange(1, 1))
    shuffled.basis.reverse()
    assert invariant_space_bruteforce(shuffled, alg, 2).dimension == dim


def blockwise_reference(family, algebra, degree):
    """The oracle's basis with no orbits: one `joint_kernel` on every block,
    in sorted block order."""
    blocks = blocked_monomials(algebra, degree, 60_000, diagonal_weights(family, algebra))
    table = action_table(family.generators, algebra)
    return [
        Polynomial(algebra, terms)
        for key in sorted(blocks)
        for terms in joint_kernel(blocks[key], lambda m: act_through_images(table, algebra, {m: 1}))
    ]


def test_orbit_oracle_matches_blockwise_reference():
    """Solving one block per orbit and relabeling it for the others gives
    the blockwise basis exactly: the same polynomials, terms in the same
    order, coefficients of the same types.  gl(1|1) and pe(1|1) swap odd
    letters, so their relabeled monomials pick up Koszul signs."""
    cases = [
        ("gl", (1, 1), (2, 2, 2, 2), 4),
        ("pe", (1, 1), (3, 2, 0, 0), 6),
        ("spe", (2, 2), (0, 2, 0, 0), 8),
        ("osp", (1, 2), (3, 1, 0, 0), 4),
        ("sl", (2, 1), (2, 1, 2, 1), 6),
    ]
    for tag, dims, pqkl, degree in cases:
        fam = build_family(tag, IndexRange(*dims))
        alg = algebra_for(fam, *pqkl)
        got = invariant_space_bruteforce(fam, alg, degree, monomial_cap=60_000).basis
        want = blockwise_reference(fam, alg, degree)
        assert [[(m, type(c), c) for m, c in f.terms.items()] for f in got] == [
            [(m, type(c), c) for m, c in f.terms.items()] for f in want
        ], tag

    # gl(2|1) at degree 6: 100 blocks in 36 orbits, one elimination each
    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 2, 1, 2, 1)
    blocks = blocked_monomials(alg, 6, 60_000, diagonal_weights(fam, alg))
    orbits = BlockOrbits(alg)
    assert len(blocks) == 100
    assert len({orbits.orbit(key)[0] for key in blocks}) == 36
    with mock.patch.object(
        invariants_module, "joint_kernel", wraps=invariants_module.joint_kernel
    ) as solve:
        invariant_space_bruteforce(fam, alg, 6, monomial_cap=60_000)
    assert solve.call_count == 36


def test_block_orbits_permute_letters_of_one_class():
    """Blocks lie in one orbit when a permutation of the u letters of one
    parity, or of the w letters of one parity, maps one key onto the other;
    an algebra without u and w ranges keeps every block apart."""
    fam = build_family("gl", IndexRange(1, 1))
    orbits = BlockOrbits(algebra_for(fam, 2, 1, 2, 1))
    u1, u2, w1, w2, wodd = ("u", ev(1)), ("u", ev(2)), ("w", ev(1)), ("w", ev(2)), ("w", od(1))
    assert orbits.orbit((u1, u1, w2))[0] == orbits.orbit((u2, u2, w1))[0]
    assert orbits.orbit((u1, u1, w2))[0] != orbits.orbit((u1, u2, w2))[0]
    assert orbits.orbit((u1, w1))[0] != orbits.orbit((u1, wodd))[0]
    # the u letters ranked (2, 1) in one key and (1, 2) in the other: the
    # map swaps them, moving every generator with a u row
    solved, ranked = orbits.orbit((u2, u2, w1))[1], orbits.orbit((u1, u1, w1))[1]
    alg = algebra_for(fam, 2, 1, 2, 1)
    moved = [alg.generator(i) for i in orbits.generator_map(solved, ranked)]
    swap = {ev(1): ev(2), ev(2): ev(1)}
    assert [(g.family, g.row, g.col) for g in moved] == [
        (g.family, swap.get(g.row, g.row) if g.family == "uv" else g.row, g.col)
        for g in alg.generators
    ]
    plain = BlockOrbits(make_sym_square_algebra(IndexRange(2, 0)))
    assert plain.orbit((w1, w1, w2)) == ((w1, w1, w2), [])


def test_generated_subspace_simple():
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    g = scalar_products("gl", alg)[0]
    basis4 = generated_subspace([g], 4)
    assert len(basis4) == 1  # the square
    assert generated_subspace([], 3) == []
    assert generated_subspace([g], 3) == []


@pytest.mark.parametrize("degree", [0, -1, -2])
def test_generated_subspace_refuses_a_degree_below_one(degree):
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    gens = scalar_products("gl", alg)
    for generators in (gens, []):
        with pytest.raises(ValueError, match="positive"):
            generated_subspace(generators, degree)


def test_generated_requires_homogeneous():
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    g = scalar_products("gl", alg)[0]
    bad = g + alg.one()
    with pytest.raises(ValueError):
        generated_subspace([bad], 2)


def test_check_generation_gl_small():
    fam = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(fam, 1, 1, 1, 1)
    gens = scalar_products("gl", alg)
    verdicts = check_generation(fam, alg, gens, [2])
    assert verdicts[0].equal and verdicts[0].oracle_dim == 4


def reference_products(generators, degree):
    """Every product of the nonzero generators of total degree `degree`, one
    per nondecreasing sequence of their positions, by `reference_product`;
    a product that vanishes is not extended."""
    gens = [g for g in generators if g]
    out = []

    def rec(start, total, current):
        if total == degree:
            out.append(current)
            return
        for i in range(start, len(gens)):
            if total + gens[i].degree() <= degree:
                nxt = reference_product(current, gens[i])
                if nxt:
                    rec(i, total + gens[i].degree(), nxt)

    if gens:
        rec(0, 0, gens[0].algebra.one())
    return out


def two_tracker_generation(family, algebra, generators, degree):
    """`check_generation` at one degree with the products, by
    `reference_products`, reduced in a tracker of their own, as (verdict,
    oracle and generated dimensions, witness): the witness is the first
    oracle basis vector outside their span."""
    oracle = invariant_space_bruteforce(family, algebra, degree)
    tracker = SpanTracker()
    for f in reference_products(generators, degree):
        tracker.add(f.terms)
    gen_dim = tracker.rank
    witness = None
    for f in oracle.basis:
        if tracker.add(f.terms) and witness is None:
            witness = f
    assert tracker.rank == oracle.dimension
    verdict = "equal" if gen_dim == oracle.dimension and witness is None else "strict-subspace"
    return verdict, oracle.dimension, gen_dim, witness


# the five check_generation cases of the benchmark's generation workload
GENERATION_CASES = [
    ("pe", (1, 1), (3, 2, 0, 0), 4),
    ("pe", (1, 1), (3, 2, 0, 0), 6),
    ("osp", (1, 2), (3, 1, 0, 0), 4),
    ("osp", (1, 2), (3, 1, 0, 0), 6),
    ("gl", (1, 1), (2, 2, 2, 2), 4),
]


def adds_during(run):
    """The number of `SpanTracker.add` calls that `run()` makes, and its
    result."""
    add = SpanTracker.add
    calls = []

    def counted(tracker, vec):
        calls.append(vec)
        return add(tracker, vec)

    with mock.patch.object(SpanTracker, "add", counted):
        out = run()
    return len(calls), out


def counted_calls(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def forbid_oracle_basis(*args):
    raise AssertionError("the oracle basis must not be built")


@pytest.mark.parametrize("skip", [0, 1])
@pytest.mark.parametrize("tag, dims, pqkl, degree", GENERATION_CASES)
def test_check_generation_eliminates_the_products_once(tag, dims, pqkl, degree, skip, monkeypatch):
    """The verdict, dimensions and witness are the two-tracker reference's.
    With every scalar product the products reach the oracle's dimension:
    the verdict is `equal`, and the oracle basis is never built.  Without
    the first one (`skip`) every case is a strict subspace with a witness:
    the basis is built once, from the same solve, and added to the tracker
    that reduced the products, so the adds are the first blocks' kernels,
    the products' once, and at `skip` the relabelings' and the basis."""
    fam = build_family(tag, IndexRange(*dims))
    alg = algebra_for(fam, *pqkl)
    gens = [g for g in scalar_products(tag, alg) if g][skip:]
    fam.generators  # computed once per family, through a SpanTracker of its own
    want = two_tracker_generation(fam, alg, gens, degree)
    oracle_basis = invariants_module._oracle_basis
    solve_adds, solve = adds_during(
        lambda: invariants_module._solve_orbits(fam, alg, degree, DEFAULT_MONOMIAL_CAP)
    )
    product_adds, _ = adds_during(lambda: generated_subspace(gens, degree))
    relabel_adds, _ = adds_during(lambda: oracle_basis(fam, alg, solve))
    calls = Counter()
    monkeypatch.setattr(
        invariants_module,
        "_oracle_basis",
        counted_calls(calls, "bases", oracle_basis) if skip else forbid_oracle_basis,
    )
    adds, (got,) = adds_during(lambda: check_generation(fam, alg, gens, [degree]))
    assert (got.verdict, got.oracle_dim, got.generated_dim, got.witness) == want
    assert (got.witness is not None) == bool(skip)
    assert calls["bases"] == skip
    assert adds == solve_adds + product_adds + skip * (relabel_adds + got.oracle_dim)


@pytest.mark.parametrize("tag, dims, pqkl, degree", GENERATION_CASES)
def test_generation_walks_and_solves_once(tag, dims, pqkl, degree, monkeypatch):
    """A strict-subspace degree reads its dimension and builds its witness
    from one solve: one `blocked_monomials` walk, and one `joint_kernel` per
    orbit of blocks."""
    fam = build_family(tag, IndexRange(*dims))
    alg = algebra_for(fam, *pqkl)
    gens = [g for g in scalar_products(tag, alg) if g][1:]
    blocks = blocked_monomials(alg, degree, DEFAULT_MONOMIAL_CAP, diagonal_weights(fam, alg))
    orbits = BlockOrbits(alg)
    calls = Counter()
    monkeypatch.setattr(
        invariants_module, "blocked_monomials", counted_calls(calls, "walks", blocked_monomials)
    )
    monkeypatch.setattr(
        invariants_module, "joint_kernel", counted_calls(calls, "solves", joint_kernel)
    )
    (got,) = check_generation(fam, alg, gens, [degree])
    assert got.verdict == "strict-subspace"
    assert calls == {"walks": 1, "solves": len({orbits.orbit(key)[0] for key in blocks})}


def test_blocked_monomials_partition():
    alg = make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1))
    blocks = blocked_monomials(alg, 3)
    total = sum(len(v) for v in blocks.values())
    assert total == len(monomials_of_degree(alg, 3))


def sorted_key_blocks(alg, degree, weights=()):
    """The blocks keyed by each monomial's sorted tuple of letter keys, in
    the order of their first monomials: the reference for the packed
    integer grouping."""
    keys = [invariants_module._factor_keys(alg, i) for i in range(len(alg))]
    blocks = {}
    for m in monomials_of_degree(alg, degree, weights):
        blocks.setdefault(tuple(sorted(k for g in m for k in keys[g])), []).append(m)
    return blocks


_ORACLE_STYLE_CASES = [("gl", (2, 1), (2, 1, 2, 1), d) for d in (2, 3, 4, 5, 6)] + [
    ("spe", (2, 2), (0, 2, 0, 0), 8),
    ("spe", (2, 2), (0, 2, 0, 0), 10),
    ("sl", (1, 1), (2, 1, 2, 1), 4),
]


@pytest.mark.parametrize("tag, dims, pqkl, degree", _ORACLE_STYLE_CASES)
def test_packed_blocks_match_sorted_key_blocks(tag, dims, pqkl, degree):
    """Grouping by packed letter counts gives the blocks of the sorted
    letter keys, with the same keys, monomials and insertion order."""
    fam = _family(tag, dims)
    alg = algebra_for(fam, *pqkl)
    weights = diagonal_weights(fam, alg)
    got = blocked_monomials(alg, degree, DEFAULT_MONOMIAL_CAP * 10, weights)
    assert list(got.items()) == list(sorted_key_blocks(alg, degree, weights).items())


@pytest.mark.parametrize(
    "source",
    [
        lambda: _claim_map("T2.2", udims=(2, 2), wdims=(2, 2)),
        lambda: _claim_map("T4.5"),
        lambda: _claim_map("T6.3.2"),
        # q[1,1]^4 carries the w letter 1 eight times, twice the degree
        lambda: (SimpleNamespace(source=make_sym_square_algebra(IndexRange(1, 1))), 4, None),
    ],
    ids=["T2.2-udims-2,2-wdims-2,2", "T4.5", "T6.3.2", "sym-square-degree-4"],
)
def test_packed_blocks_of_relation_sources(source):
    """The same on the sources of substitution maps, whose generators carry
    two outer letters each, the same w letter twice on a symmetric-square
    diagonal."""
    subs, degree, _ = source()
    got = blocked_monomials(subs.source, degree)
    assert list(got.items()) == list(sorted_key_blocks(subs.source, degree).items())


@pytest.mark.parametrize(
    "alg",
    [
        make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1)),
        make_uw_algebra(IndexRange(0, 2), IndexRange(2, 0)),
        make_uw_algebra(IndexRange(2, 0), IndexRange(1, 0)),
        algebra_for(build_family("gl", IndexRange(1, 1)), 2, 1, 1, 1),
    ],
)
def test_monomial_count_closed_form(alg):
    for degree in range(5):
        assert count_monomials_of_degree(alg, degree) == len(monomials_of_degree(alg, degree))


def test_monomial_cap_before_enumeration(monkeypatch):
    import superinv.invariants as invariants_module

    def fail(algebra, degree):
        raise AssertionError("monomials_of_degree must not run")

    monkeypatch.setattr(invariants_module, "monomials_of_degree", fail)
    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 2, 2, 2, 2)
    with pytest.raises(CapExceeded):
        blocked_monomials(alg, 4, cap=10)


def test_substitution_parity_guard():
    source = make_uw_algebra(IndexRange(0, 1), IndexRange(1, 0))  # one odd gen
    fam = build_family("gl", IndexRange(1, 0))
    target = algebra_for(fam, 1, 0, 1, 0)
    even_image = target.zero()
    even_image.add_term((0, 1), 1)
    with pytest.raises(ValueError):
        SubstitutionMap(source, target, {0: even_image})


def test_relation_kernel_minor():
    fam = build_family("gl", IndexRange(1, 0))
    U = W = IndexRange(2, 0)
    target = algebra_for(fam, 2, 0, 2, 0)
    source = make_uw_algebra(U, W)
    subs = substitution_map("gl", source, target)
    t = fill_rows(Partition((1, 1)))
    rels = [
        P_t(source, t, I, J)
        for I in enumerate_semistandard(t, U)
        for J in enumerate_semistandard(t, W)
    ]
    rep = relation_kernel_check(subs, rels, 2)
    assert rep.all_substitute_to_zero
    assert rep.kernel_dim == rep.relation_span_dim == 1


def test_kernel_dimension_counts_minors():
    # rank-one substitution: kernel at degree 2 = number of independent
    # 2x2 minors = C(2,2)^2 = 1 for 2x2, 9 for 3x3 sources
    fam = build_family("gl", IndexRange(1, 0))
    for size, expected in [(2, 1), (3, 9)]:
        U = W = IndexRange(size, 0)
        target = algebra_for(fam, size, 0, size, 0)
        source = make_uw_algebra(U, W)
        subs = substitution_map("gl", source, target)
        assert kernel_dimension_at_degree(subs, 2) == expected


def test_span_dimension():
    alg = make_uw_algebra(IndexRange(1, 0), IndexRange(1, 0))
    z = alg.gen(0)
    assert rank_rows([z.terms, z.scale(2).terms]) == 1
    assert rank_rows([]) == 0


def test_soundness_assertion_catches_non_invariants():
    """check_generation refuses a 'generator' outside the oracle space."""
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    x = alg.gen(alg.index("uv", ev(1), ev(1)))
    with pytest.raises(AssertionError):
        check_generation(fam, alg, [x * x], [2])


def _reference_monomials(alg, degree):
    """Nondecreasing index tuples with no odd index repeated, in the
    lexicographic order combinations_with_replacement yields them."""
    return [
        m
        for m in itertools.combinations_with_replacement(range(len(alg)), degree)
        if not any(a == b and alg.parities[a] for a, b in zip(m, m[1:]))
    ]


_WALK_FAMILIES = [
    ("gl", (1, 1)),
    ("gl", (2, 1)),
    ("sl", (1, 1)),
    ("sl", (2, 1)),
    ("osp", (1, 2)),
    ("osp", (2, 0)),
    ("pe", (1, 1)),
    ("spe", (1, 1)),
    ("spe", (2, 2)),
]
_FAMILY_CACHE: dict = {}


def _family(tag, dims):
    if (tag, dims) not in _FAMILY_CACHE:
        _FAMILY_CACHE[tag, dims] = build_family(tag, IndexRange(*dims))
    return _FAMILY_CACHE[tag, dims]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_WALK_FAMILIES),
    st.tuples(*[st.integers(0, 2)] * 4),
    st.integers(0, 5),
)
def test_weighted_walk_is_the_filtered_unweighted_walk(family_dims, pqkl, degree):
    """Pruning by weight drops exactly the monomials of nonzero weight: the
    blocks, their keys and the order of every block's monomials match the
    unweighted blocks filtered by weight."""
    fam = _family(*family_dims)
    alg = algebra_for(fam, *pqkl)
    # keep the unweighted reference small: lower the degree until it is
    while degree and count_monomials_of_degree(alg, degree) > 3000:
        degree -= 1
    weights = diagonal_weights(fam, alg)

    def weight_zero(m):
        return all(sum(w[g] for g in m) == 0 for w in weights)

    every = monomials_of_degree(alg, degree)
    assert every == _reference_monomials(alg, degree)
    assert monomials_of_degree(alg, degree, weights) == [m for m in every if weight_zero(m)]
    expected = {}
    for key, monos in blocked_monomials(alg, degree).items():
        kept = [m for m in monos if weight_zero(m)]
        if kept:
            expected[key] = kept
    got = blocked_monomials(alg, degree, weights=weights)
    assert sorted(got) == sorted(expected)
    assert all(got[key] == expected[key] for key in expected)


def test_verification_catches_a_non_invariant(monkeypatch):
    """The oracle re-checks every basis polynomial with every element: a
    kernel vector that is not invariant raises AssertionError."""
    real = invariants_module.joint_kernel

    def with_a_lone_monomial(keys, images, entry_cap=None):
        keys = list(keys)
        return real(keys, images, entry_cap) + [{keys[0]: 1}]

    monkeypatch.setattr(invariants_module, "joint_kernel", with_a_lone_monomial)
    fam = build_family("gl", IndexRange(2, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    with pytest.raises(AssertionError, match="non-invariant"):
        invariant_space_bruteforce(fam, alg, 2)


def test_verification_catches_a_wrong_generating_subset(monkeypatch):
    """The re-check acts with every basis element, not with the generating
    subset the kernel was built from: with E[1,1'] alone as the generators
    of gl(2|1), its kernel holds non-invariants, and the oracle raises."""
    dims = IndexRange(2, 1)
    lone = [MatrixElement.unit(dims, ev(1), od(1))]
    monkeypatch.setattr(AlgebraFamily, "generators", property(lambda fam: lone))
    fam = build_family("gl", dims)
    alg = algebra_for(fam, 2, 1, 2, 1)
    with pytest.raises(AssertionError, match="non-invariant"):
        invariant_space_bruteforce(fam, alg, 2)


def test_rank_route_falls_back_on_a_wrong_generating_subset(monkeypatch):
    """With E[1,1'] alone as the generators of gl(2|1), the first-block
    kernels hold non-invariants too, so the oracle's dimension read from
    them exceeds the products' rank and `check_generation` does not read
    `equal`: it builds the oracle basis from the same solve, and the
    basis's re-check raises."""
    dims = IndexRange(2, 1)
    lone = [MatrixElement.unit(dims, ev(1), od(1))]
    monkeypatch.setattr(AlgebraFamily, "generators", property(lambda fam: lone))
    fam = build_family("gl", dims)
    alg = algebra_for(fam, 2, 1, 2, 1)
    gens = scalar_products("gl", alg)
    with pytest.raises(AssertionError, match="non-invariant"):
        check_generation(fam, alg, gens, [2])


def test_generation_checks_the_cap_before_any_product(monkeypatch):
    """A degree above the monomial cap raises the oracle's CapExceeded
    before a single product of the generators is formed."""
    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 2, 1, 2, 1)
    gens = scalar_products("gl", alg)
    with pytest.raises(CapExceeded) as oracle_cap:
        invariant_space_bruteforce(fam, alg, 6)

    def no_products(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(Polynomial, "__mul__", no_products)
    with pytest.raises(CapExceeded) as generation_cap:
        check_generation(fam, alg, gens, [6])
    assert str(generation_cap.value) == str(oracle_cap.value)


def equal_degree_dimensions(fam, alg, degree, cap):
    """The dimension `check_generation` reads at an `equal` degree, and
    the oracle's: the oracle basis itself, as the generators, makes the
    degree `equal`, and the basis must not be built again."""
    basis = invariant_space_bruteforce(fam, alg, degree, monomial_cap=cap).basis
    with mock.patch.object(invariants_module, "_oracle_basis", forbid_oracle_basis):
        (got,) = check_generation(fam, alg, basis, [degree], cap)
    assert (got.verdict, got.generated_dim) == ("equal", len(basis))
    return got.oracle_dim, len(basis)


@pytest.mark.parametrize("tag, dims, pqkl, degree", _ORACLE_STYLE_CASES)
def test_rank_only_dimension_is_the_oracle_dimension(tag, dims, pqkl, degree):
    """On an `equal` degree, the dimension `check_generation` reads from
    the first-block kernels, with no basis relabeled, is the dimension of
    the basis the oracle builds."""
    fam = _family(tag, dims)
    alg = algebra_for(fam, *pqkl)
    got, want = equal_degree_dimensions(fam, alg, degree, DEFAULT_MONOMIAL_CAP * 10)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_WALK_FAMILIES),
    st.tuples(*[st.integers(0, 2)] * 4),
    st.integers(1, 6),
)
def test_rank_only_dimension_on_random_draws(family_dims, pqkl, degree):
    fam = _family(*family_dims)
    alg = algebra_for(fam, *pqkl)
    # keep the oracle small: lower the degree until it is
    while degree > 1 and count_monomials_of_degree(alg, degree) > 5000:
        degree -= 1
    got, want = equal_degree_dimensions(fam, alg, degree, DEFAULT_MONOMIAL_CAP)
    assert got == want


def test_cap_counts_the_full_basis():
    """The cap is checked against all degree-d monomials, not the walked
    weight-zero ones: gl(2|1) at U = W = (2|1) and degree 6 has 57,799
    monomials, 2,031 of weight zero."""
    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 2, 1, 2, 1)
    assert count_monomials_of_degree(alg, 6) == 57_799 > DEFAULT_MONOMIAL_CAP
    with pytest.raises(CapExceeded):
        invariant_space_bruteforce(fam, alg, 6)
    weights = diagonal_weights(fam, alg)
    assert len(monomials_of_degree(alg, 6, weights)) == 2_031


def reference_apply(subs, f):
    """The substitution term by term: each monomial's image is the product
    of its factors' images, starting from one."""
    out = subs.target.zero()
    for mono, coeff in f.terms.items():
        term = subs.target.one()
        for g in mono:
            term = reference_product(term, subs.images[g])
        out = out + term.scale(coeff)
    return out


_CLAIM_MAPS: dict = {}


def _claim_map(claim, **options):
    """The substitution map, degree and relations of the claim's relation
    check at its catalog defaults (gl for T2.2, osp for T4.5, pe for
    T6.3.2), with `options` replaced."""
    key = (claim, *sorted(options.items()))
    if key not in _CLAIM_MAPS:
        seen = []

        def record(subs, rels, degree, monomial_cap):
            seen.append((subs, degree, list(rels)))
            return relation_kernel_check(subs, rels, degree, monomial_cap)

        opts = replace(claims_module.CATALOG[claim].defaults, **options)
        with mock.patch.object(claims_module, "relation_kernel_check", record):
            claims_module.run_claim(claim, opts)
        _CLAIM_MAPS[key] = seen[0]
    return _CLAIM_MAPS[key]


def _image(subs, mono):
    """The image of one source monomial."""
    return subs.apply(Polynomial(subs.source, {mono: 1}))


@contextlib.contextmanager
def _passes():
    """Each pass of `_packed_images` while active, as its `image`, wrapped
    to count the images built, and its prefix table."""
    passes, real = [], invariants_module._packed_images

    def spy(subs, degree):
        width, image = real(subs, degree)
        passes.append((mock.Mock(wraps=image), inspect.getclosurevars(image).nonlocals["table"]))
        return width, passes[-1][0]

    with mock.patch.object(invariants_module, "_packed_images", spy):
        yield passes


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["T2.2", "T4.5", "T6.3.2"]), st.data())
def test_apply_matches_reference_apply(claim, data):
    """apply through the prefix table equals the factor-by-factor product,
    term order and coefficient types included, on runs of consecutive
    monomials (which share prefixes) plus a few of other degrees, which the
    pass packs at the width of the highest."""
    subs, degree, _ = _claim_map(claim)
    monos = monomials_of_degree(subs.source, data.draw(st.integers(1, degree)))
    start = data.draw(st.integers(0, len(monos) - 1))
    run = monos[start : start + data.draw(st.integers(1, 12))]
    others = data.draw(
        st.lists(st.sampled_from(monomials_of_degree(subs.source, degree - 1)), max_size=3)
    )
    coeff = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=3, min_value=-2, max_value=2))
    f = Polynomial(subs.source, {m: data.draw(coeff) for m in run + others})
    got, want = subs.apply(f), reference_apply(subs, f)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


@pytest.mark.parametrize("claim, kernel", [("T2.2", 0), ("T4.5", 4), ("T6.3.2", 4)])
def test_kernel_dimension_through_the_prefix_table(claim, kernel):
    """The kernel dimension of each default relation check is the one the
    golden reports record, and the one found block by block from
    `reference_apply`; afterwards the prefix table holds only proper
    prefixes, keys shorter than the degree, so full-degree images are never
    kept."""
    subs, degree, _ = _claim_map(claim)
    with _passes() as passes:
        assert kernel_dimension_at_degree(subs, degree) == kernel
    expected = 0
    for monos in blocked_monomials(subs.source, degree).values():
        images = [reference_apply(subs, Polynomial(subs.source, {m: 1})) for m in monos]
        expected += len(monos) - rank_rows(f.terms for f in images)
    assert expected == kernel
    (_, table), = passes
    assert any(len(key) > 1 for key in table)
    assert all(len(key) < degree for key in table)


def test_one_map_substitutes_at_two_degrees():
    """The T2.2 images, of degree 2, are packed per pass at the width its
    degree needs: 3-bit fields for a degree-3 monomial, 4-bit ones at degree
    4.  One map gives the factor-by-factor reference image at both
    degrees, whichever comes first, and holds nothing but its three fields
    after `apply` and after `relation_kernel_check`."""
    subs, degree, rels = _claim_map("T2.2")
    monos = [monomials_of_degree(subs.source, d)[-1] for d in (degree - 1, degree)]
    for mono in monos + monos[::-1]:
        f = Polynomial(subs.source, {mono: 1})
        assert subs.apply(f) == reference_apply(subs, f)
        assert set(vars(subs)) == {"source", "target", "images"}
    assert relation_kernel_check(subs, rels, degree).all_substitute_to_zero
    assert set(vars(subs)) == {"source", "target", "images"}


def _t22_relations():
    """The substitution map, the 16 relations and the degree of T2.2 at
    --udims 1,2 --wdims 1,2, and the outer-multidegree block of each
    degree-d source monomial."""
    subs, degree, rels = _claim_map("T2.2", udims=(1, 2), wdims=(1, 2))
    block_of = {
        m: key for key, monos in blocked_monomials(subs.source, degree).items() for m in monos
    }
    return subs, rels, degree, block_of


def _surviving_monomial(subs, block_of, keep):
    """A source monomial whose block satisfies `keep` and whose image is
    nonzero."""
    return next(m for m, key in sorted(block_of.items()) if keep(key) and _image(subs, m))


def _relation_blocks(rels, block_of):
    """The one block each relation lies in, by relation."""
    blocks = [{block_of[m] for m in f.terms} for f in rels]
    assert all(len(b) == 1 for b in blocks)
    return [b.pop() for b in blocks]


def _substitutes_to_zero(subs, f, degree):
    """The pass's verdict on one relation, checked against `apply`."""
    rep = relation_kernel_check(subs, [f], degree)
    assert rep.all_substitute_to_zero == subs.apply(f).is_zero()
    return rep.all_substitute_to_zero


def test_relation_with_a_surviving_monomial_fails():
    """A relation plus a monomial of its own block whose image survives."""
    subs, rels, degree, block_of = _t22_relations()
    f = rels[0]
    home = _relation_blocks([f], block_of)[0]
    m = _surviving_monomial(subs, block_of, lambda key: key == home)
    assert not _substitutes_to_zero(subs, f + Polynomial(subs.source, {m: 1}), degree)


def test_relation_across_blocks_fails_when_one_part_survives():
    """A relation whose parts lie in two blocks: one part vanishes, the
    other survives, so the relation does not substitute to zero."""
    subs, rels, degree, block_of = _t22_relations()
    f = rels[0]
    home = _relation_blocks([f], block_of)[0]
    m = _surviving_monomial(subs, block_of, lambda key: key != home)
    g = f + Polynomial(subs.source, {m: 3})
    assert {block_of[x] for x in g.terms} == {home, block_of[m]}
    assert not _substitutes_to_zero(subs, g, degree)


def test_sum_of_relations_from_two_blocks_vanishes():
    subs, rels, degree, block_of = _t22_relations()
    blocks = _relation_blocks(rels, block_of)
    i = next(i for i, key in enumerate(blocks) if key != blocks[0])
    assert _substitutes_to_zero(subs, rels[0] + rels[i].scale(-2), degree)
    rep = relation_kernel_check(subs, [rels[0], rels[0] + rels[i], rels[i]], degree)
    assert rep.all_substitute_to_zero
    assert rep.relation_span_dim == 2


def test_relation_guards():
    """A relation over another algebra or of the wrong degree is refused,
    and the monomial cap is checked before any substitution."""
    subs, rels, degree, _ = _t22_relations()
    twin = make_uw_algebra(IndexRange(1, 2), IndexRange(1, 2))
    assert twin is not subs.source
    with pytest.raises(ValueError):
        relation_kernel_check(subs, [rels[0], Polynomial(twin, rels[1].terms)], degree)
    short = Polynomial(subs.source, {monomials_of_degree(subs.source, degree - 1)[0]: 1})
    with pytest.raises(ValueError):
        relation_kernel_check(subs, [rels[0], short], degree)
    with _passes() as passes, pytest.raises(CapExceeded):
        relation_kernel_check(subs, rels, degree, monomial_cap=1)
    assert not passes


def blockwise_relation_reference(subs, rels, degree):
    """The relation pass with no orbits, as (kernel dimension, verdict,
    nullity by block): every block's images, by `reference_apply`, go into
    its own SpanTracker and into the relation slices."""
    occurrences = {}
    for i, f in enumerate(rels):
        for mono, coeff in f.terms.items():
            occurrences.setdefault(mono, []).append((i, coeff))
    all_zero, nullity = True, {}
    for key, monos in blocked_monomials(subs.source, degree).items():
        images = [reference_apply(subs, Polynomial(subs.source, {m: 1})).terms for m in monos]
        nullity[key] = len(monos) - rank_rows(images)
        slices = {}
        for m, image in zip(monos, images):
            for i, coeff in occurrences.get(m, ()):
                part = slices.setdefault(i, {})
                for k, v in image.items():
                    part[k] = part.get(k, 0) + v * coeff
        all_zero = all_zero and not any(any(out.values()) for out in slices.values())
    return sum(nullity.values()), all_zero, nullity


@pytest.mark.parametrize(
    "dims, blocks, orbits, relations, images",
    [((2, 2), 985, 154, 256, 500), ((1, 2), 163, 57, 16, 117)],
)
def test_relation_orbits_match_blockwise_reference(dims, blocks, orbits, relations, images):
    """T2.2 at --udims/--wdims `dims`: one SpanTracker per orbit of blocks,
    and only the monomials of the first block of an orbit substituted (a
    later block's relation slices are carried onto it), give the blockwise
    kernel dimension and verdict."""
    subs, degree, rels = _claim_map("T2.2", udims=dims, wdims=dims)
    kernel, all_zero, nullity = blockwise_relation_reference(subs, rels, degree)
    assert (len(rels), kernel, all_zero) == (relations, relations, True)
    block_orbits = BlockOrbits(subs.source)
    assert len(nullity) == blocks
    assert len({block_orbits.orbit(key)[0] for key in nullity}) == orbits
    with mock.patch.object(
        invariants_module, "SpanTracker", wraps=invariants_module.SpanTracker
    ) as trackers, _passes() as passes:
        rep = relation_kernel_check(subs, rels, degree)
    assert (rep.kernel_dim, rep.all_substitute_to_zero) == (kernel, all_zero)
    assert rep.relation_span_dim == relations
    (built, _), = passes
    assert (trackers.call_count, built.call_count) == (orbits, images)


def _orbit_blocks(subs, degree):
    """The blocks of each orbit in sorted key order, so the first is the
    least key, each as its monomials and, for each monomial, the Koszul sign
    and the first-block monomial of the letter map onto the first block."""
    orbits, firsts, out = BlockOrbits(subs.source), {}, {}
    blocks = blocked_monomials(subs.source, degree)
    for key in sorted(blocks):
        orbit, ranked = orbits.orbit(key)
        gens = orbits.generator_map(ranked, firsts.setdefault(orbit, ranked))
        moved = [normalize_product([gens[g] for g in m], subs.source.parities) for m in blocks[key]]
        out.setdefault(orbit, []).append((blocks[key], moved))
    return list(out.values())


def _later_blocks(subs, degree):
    """The blocks that are not the first of their orbit, each as its
    monomials and the Koszul sign of each under the letter map onto the
    orbit's first block."""
    return [
        (monos, [sign for sign, _ in moved])
        for _, *later in _orbit_blocks(subs, degree)
        for monos, moved in later
    ]


def test_relations_on_a_later_block_are_read_from_the_first_block():
    """A relation supported on one later block of an orbit gets its slices
    from the first block's images, relabeled with their Koszul signs, and
    none of its own monomials is substituted.  A single monomial with a
    nonzero image does not substitute to zero; a kernel vector of a block
    whose letter map flips the sign of one of its monomials does.  Both
    verdicts agree with the blockwise reference and with `apply`."""
    subs, _, degree, _ = _t22_relations()
    later = _later_blocks(subs, degree)
    bogus = next(m for monos, _ in later for m in monos if _image(subs, m))
    genuine = next(
        vec
        for monos, signs in later
        for vec in joint_kernel(monos, lambda m: [_image(subs, m).terms])
        if any(sign < 0 and m in vec for m, sign in zip(monos, signs))
    )
    for terms, vanishes in (({bogus: 1}, False), (genuine, True)):
        f = Polynomial(subs.source, terms)
        assert subs.apply(f).is_zero() == vanishes
        assert blockwise_relation_reference(subs, [f], degree)[1] == vanishes
        with _passes() as passes:
            rep = relation_kernel_check(subs, [f], degree)
        assert rep.all_substitute_to_zero == vanishes
        (built, _), = passes
        assert not {call.args[0] for call in built.call_args_list} & set(terms)


def test_relation_slices_are_kept_apart_by_block():
    """m1 and m2, of two later blocks of a 4-block orbit, relabel onto the
    same first-block monomial m0 with signs s1 and s2.  Keyed by relation
    alone, the carried slices of s2*m1 - s1*m2 would cancel on m0; keyed by
    (block, relation), each is the image of m0, which is nonzero, so the
    relation does not substitute to zero."""
    subs, _, degree, _ = _t22_relations()
    (first, _), *later = next(g for g in _orbit_blocks(subs, degree) if len(g) == 4)
    m0 = next(m for m in first if _image(subs, m))
    (m1, s1), (m2, s2) = [
        next((m, sign) for m, (sign, key) in zip(monos, moved) if key == m0)
        for monos, moved in later[:2]
    ]
    f = Polynomial(subs.source, {m1: s2, m2: -s1})
    assert not blockwise_relation_reference(subs, [f], degree)[1]
    assert not _substitutes_to_zero(subs, f, degree)


def test_relation_check_refuses_a_map_that_breaks_the_letter_symmetry():
    """Zeroing one generator's image, or doubling it, breaks the commutation
    with the odd u-letter swap.  The certificate refuses both maps, so every
    block is its own orbit; with the zero image the blocks of one orbit
    have different kernel dimensions, which orbits would have hidden."""
    subs, degree, rels = _claim_map("T2.2", udims=(1, 2), wdims=(1, 2))
    source, target = subs.source, subs.target
    z = source.index("zuw", od(1), ev(1))
    block_orbits = BlockOrbits(source)
    assert invariants_module._commutes_with_letters(subs, block_orbits)
    for image in (target.zero(), subs.images[z].scale(2)):
        broken = SubstitutionMap(source, target, {**subs.images, z: image})
        assert not invariants_module._commutes_with_letters(broken, block_orbits)
        kernel, all_zero, nullity = blockwise_relation_reference(broken, rels, degree)
        with mock.patch.object(
            invariants_module, "SpanTracker", wraps=invariants_module.SpanTracker
        ) as trackers:
            rep = relation_kernel_check(broken, rels, degree)
        assert (rep.kernel_dim, rep.all_substitute_to_zero) == (kernel, all_zero)
        assert trackers.call_count == len(nullity)
    by_orbit = {}
    for key, dim in blockwise_relation_reference(
        SubstitutionMap(source, target, {**subs.images, z: target.zero()}), rels, degree
    )[2].items():
        by_orbit.setdefault(block_orbits.orbit(key)[0], set()).add(dim)
    assert any(len(dims) > 1 for dims in by_orbit.values())


def test_block_orbits_of_a_uw_algebra():
    """A zuw generator names a u letter and a w letter: a swap inside a
    class moves both kinds of generator, blocks related by such a swap
    share an orbit, and an even letter never trades places with an odd
    one."""
    alg = make_uw_algebra(IndexRange(2, 1), IndexRange(1, 2))
    orbits = BlockOrbits(alg)
    u1, u2, uodd = ("u", ev(1)), ("u", ev(2)), ("u", od(1))
    w1, wodd1, wodd2 = ("w", ev(1)), ("w", od(1)), ("w", od(2))
    assert orbits.orbit((u1, u1, w1, wodd1))[0] == orbits.orbit((u2, u2, w1, wodd2))[0]
    assert orbits.orbit((u1, w1))[0] != orbits.orbit((uodd, w1))[0]
    assert orbits.orbit((u1, wodd1))[0] != orbits.orbit((u1, w1))[0]
    blocks = blocked_monomials(alg, 3)
    assert len({orbits.orbit(key)[0] for key in blocks}) < len(blocks)
    # one swap per adjacent pair inside a class: u 1,2 and w 1',2'
    swaps = {ev(1): ev(2), ev(2): ev(1)}, {od(1): od(2), od(2): od(1)}
    moved = orbits.transpositions()
    assert len(moved) == 2
    for gens, (row_swap, col_swap) in zip(moved, [(swaps[0], {}), ({}, swaps[1])]):
        assert [(alg.generator(i).row, alg.generator(i).col) for i in gens] == [
            (row_swap.get(g.row, g.row), col_swap.get(g.col, g.col)) for g in alg.generators
        ]
