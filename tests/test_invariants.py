import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, ev
import superinv.claims as claims_module
import superinv.invariants as invariants_module
from superinv.invariants import (
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
from superinv.liealgebras import build_family, diagonal_weights
from superinv.linalg import rank_rows
from superinv.generators import scalar_products, substitution_map
from superinv.named_polynomials import P_t
from superinv.polynomials import (
    Polynomial,
    count_monomials_of_degree,
    make_uw_algebra,
    monomials_of_degree,
)
from superinv.tableaux import Partition, fill_rows, enumerate_semistandard


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


def test_generated_subspace_simple():
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    g = scalar_products("gl", alg)[0]
    basis4 = generated_subspace([g], 4)
    assert len(basis4) == 1  # the square
    assert generated_subspace([], 3) == []
    assert generated_subspace([g], 3) == []


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


def test_blocked_monomials_partition():
    alg = make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1))
    blocks = blocked_monomials(alg, 3)
    total = sum(len(v) for v in blocks.values())
    assert total == len(monomials_of_degree(alg, 3))


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

    def with_a_lone_monomial(keys, maps, entry_cap=None):
        keys = list(keys)
        return real(keys, maps, entry_cap) + [{keys[0]: 1}]

    monkeypatch.setattr(invariants_module, "joint_kernel", with_a_lone_monomial)
    fam = build_family("gl", IndexRange(2, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    with pytest.raises(AssertionError, match="non-invariant"):
        invariant_space_bruteforce(fam, alg, 2)


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
            term = term * subs.images[g]
        out = out + term.scale(coeff)
    return out


_CLAIM_MAPS: dict = {}


def _claim_map(claim):
    """The substitution map and degree of the claim's relation check at its
    catalog defaults (gl for T2.2, osp for T4.5, pe for T6.3.2)."""
    if claim not in _CLAIM_MAPS:
        seen = []

        def record(subs, rels, degree, monomial_cap):
            seen.append((subs, degree))
            return relation_kernel_check(subs, rels, degree, monomial_cap)

        with mock.patch.object(claims_module, "relation_kernel_check", record):
            claims_module.run_claim(claim)
        _CLAIM_MAPS[claim] = seen[0]
    return _CLAIM_MAPS[claim]


def _fresh(subs):
    return SubstitutionMap(subs.source, subs.target, subs.images)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["T2.2", "T4.5", "T6.3.2"]), st.booleans(), st.data())
def test_apply_matches_reference_apply(claim, fresh, data):
    """apply through the prefix table equals the factor-by-factor product,
    term order and coefficient types included, on runs of consecutive
    monomials (which share prefixes) plus a few of other degrees, with the
    table empty or filled by earlier calls."""
    subs, degree = _claim_map(claim)
    if fresh:
        subs = _fresh(subs)
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
    subs, degree = _claim_map(claim)
    subs = _fresh(subs)
    assert kernel_dimension_at_degree(subs, degree) == kernel
    expected = 0
    for monos in blocked_monomials(subs.source, degree).values():
        images = [reference_apply(subs, Polynomial(subs.source, {m: 1})) for m in monos]
        expected += len(monos) - rank_rows(f.terms for f in images)
    assert expected == kernel
    assert subs._prefixes
    assert all(len(key) < degree for key in subs._prefixes)
