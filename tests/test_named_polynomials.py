import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superinv.alphabet import IndexRange, ev, od
from superinv.generators import _dual_letters, nonzero_shadows
from superinv.named_polynomials import (
    PPf_t,
    P_t,
    Pf_t,
    Z_combination,
    Z_of,
    _pair_family,
    _square_term,
    frobenius_hook_shape,
    ppf_tableau,
)
from superinv.permutations import (
    Permutation,
    cocycle,
    cocycle_sign,
    symmetrize,
    young_symmetrizer,
)
from superinv.polynomials import (
    Polynomial,
    make_mixed_algebra,
    make_sym_square_algebra,
    make_uw_algebra,
    normalize_product,
)
from superinv.tableaux import (
    Partition,
    enumerate_partitions,
    enumerate_semistandard,
    enumerate_standard_tableaux,
    fill_rows,
)
from superinv.tensors import TensorElement
from reference import act_on_word, cross_parity_count, is_standard, relabel


# -- reference helpers: one expanded symmetrizer term, one pairing at a time --


def _monomial_polynomial(algebra, term):
    return Polynomial(algebra, {} if term is None else {term[1]: term[0]})


def X_of(algebra, I):
    """Product of symmetric-square symbols over consecutive pairs of the
    sequence; zero when a vanishing diagonal symbol appears."""
    return _monomial_polynomial(algebra, _square_term(algebra, I, shifted=False))


def Y_of(algebra, I):
    """Parity-shifted analog of X with the decalage sign
    (-1)^{sum (k - a) (p(i_{2a-1}) + p(i_{2a}))}."""
    return _monomial_polynomial(algebra, _square_term(algebra, I, shifted=True))


def _reference_z_term(algebra, I, J, fam):
    """Z(I, J) as a signed monomial: one generator lookup per position, the
    Koszul sign of sorting and the cross-parity sign counted pair by pair."""
    mono = []
    for i, j in zip(I, J):
        idx = algebra.maybe_index(fam, i, j)
        if idx is None:
            raise KeyError(f"no generator {fam}[{i},{j}]")
        mono.append(idx)
    norm = normalize_product(mono, algebra.parities)
    if norm is None:
        return None
    return norm[0] * (-1) ** cross_parity_count(I, J), norm[1]


def _expanded_terms(t, I, variant="plain"):
    """(eps(tau) c(I, g^{-1}), g I) for every term g of a freshly expanded
    symmetrizer, moved words not collected."""
    parities = [i.parity for i in I]
    for inv, eps in young_symmetrizer(t, variant).inverse_terms():
        yield eps * cocycle_sign(parities, inv), tuple(I[x] for x in inv)


def _accumulate(algebra, signed_terms):
    acc = {}
    for c, term in signed_terms:
        if term is not None:
            acc[term[1]] = acc.get(term[1], 0) + c * term[0]
    return Polynomial(algebra, acc)


def reference_P_t(algebra, t, I, J, variant="plain", family=None):
    fam = family or _pair_family(algebra)
    terms = _expanded_terms(t, I, variant)
    return _accumulate(algebra, ((c, _reference_z_term(algebra, w, J, fam)) for c, w in terms))


def reference_Pf_t(algebra, t, I):
    terms = _expanded_terms(t, I)
    return _accumulate(algebra, ((c, _square_term(algebra, w, False)) for c, w in terms))


def reference_PPf_t(algebra, t, I):
    terms = _expanded_terms(t, I)
    return _accumulate(algebra, ((c, _square_term(algebra, w, True)) for c, w in terms))


def reference_dual_shadow(algebra, element, J):
    terms = ((c, w) for w, c in element.terms.items())
    return _accumulate(algebra, ((c, _reference_z_term(algebra, I, J, "vw")) for c, I in terms))


def test_Z_single_pair():
    alg = make_uw_algebra(IndexRange(1, 0), IndexRange(1, 0))
    f = Z_of(alg, (ev(1),), (ev(1),))
    assert str(f) == "1*z[1,1]"


def test_Z_sign_single_term():
    # I=(1,1'), J=(1',1): the only crossing pair is p(i_2) p(j_1) = 1
    alg = make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1))
    f = Z_of(alg, (ev(1), od(1)), (od(1), ev(1)))
    mono = next(iter(f.terms))
    assert f.terms[mono] == Fraction(-1)


def test_Z_order_independence():
    """Oracle: build the product one factor at a time in shuffled order,
    tracking the Koszul sign of the shuffle by multiplying generator
    polynomials; must agree with the closed-form sign."""
    rng = random.Random(23)
    U, W = IndexRange(1, 1), IndexRange(1, 1)
    alg = make_uw_algebra(U, W)
    for _ in range(100):
        k = rng.randint(1, 4)
        I = tuple(rng.choice(U.indices()) for _ in range(k))
        J = tuple(rng.choice(W.indices()) for _ in range(k))
        direct = Z_of(alg, I, J)
        # interleaved product of single generators, in order
        prod = alg.one()
        sign = 1
        for a in range(k):
            # moving z[i_a, j_a] into place crosses the dual halves of the
            # earlier factors; the closed form absorbs it, the sequential
            # product reproduces it automatically
            idx = alg.index("zuw", I[a], J[a])
            prod = prod * alg.gen(idx)
        # the sequential product is the plain product of z-symbols, while
        # Z carries the interleaving sign; they agree up to that sign
        expo = sum(I[a].parity * J[b].parity for a in range(k) for b in range(k) if a > b)
        assert direct == prod.scale((-1) ** expo)


def test_P_single_cell():
    alg = make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1))
    t = fill_rows(Partition((1,)))
    f = P_t(alg, t, (od(1),), (ev(1),))
    assert str(f) == "1*z[1',1]"


def test_P_column_is_minor():
    alg = make_uw_algebra(IndexRange(2, 0), IndexRange(2, 0))
    t = fill_rows(Partition((1, 1)))
    I = (ev(1), ev(2))
    J = (ev(1), ev(2))
    f = P_t(alg, t, I, J)
    z = lambda a, b: alg.index("zuw", ev(a), ev(b))
    expected = alg.zero()
    expected.add_term((z(1, 1), z(2, 2)), 1)
    expected.add_term((z(2, 1), z(1, 2)), -1)
    assert f == expected


def test_P_relabel_covariance():
    """Relabeling the tableau and moving both sequences reproduces the
    original polynomial up to the product of the two cocycle signs (the
    projection is invariant only under the diagonal action)."""
    rng = random.Random(31)
    U, W = IndexRange(1, 1), IndexRange(1, 1)
    alg = make_uw_algebra(U, W)
    for parts in [(2,), (1, 1), (2, 1), (2, 2)]:
        t = fill_rows(Partition(parts))
        k = t.size
        for _ in range(30):
            I = tuple(rng.choice(U.indices()) for _ in range(k))
            J = tuple(rng.choice(W.indices()) for _ in range(k))
            sigma = Permutation(tuple(rng.sample(range(k), k)))
            lhs = P_t(
                alg,
                relabel(t, sigma.images),
                act_on_word(sigma, I),
                act_on_word(sigma, J),
            )
            sign = cocycle(I, sigma.inverse()) * cocycle(J, sigma.inverse())
            rhs = P_t(alg, t, I, J).scale(sign)
            assert lhs == rhs


def test_P_family_independent():
    """Semistandard pairs give linearly independent polynomials."""
    from superinv.linalg import rank_rows
    from superinv.tableaux import enumerate_partitions, enumerate_semistandard

    U = W = IndexRange(2, 1)
    alg = make_uw_algebra(U, W)
    for size in (2, 3, 4):
        for shape in enumerate_partitions(size):
            t = fill_rows(shape)
            fam = []
            for I in enumerate_semistandard(t, U):
                for J in enumerate_semistandard(t, W):
                    f = P_t(alg, t, I, J)
                    fam.append(f)
            assert all(fam)
            assert rank_rows(f.terms for f in fam) == len(fam), shape


def test_X_of_canonicalization():
    W = IndexRange(2, 1)
    alg = make_sym_square_algebra(W, twisted=False)
    f = X_of(alg, (ev(2), ev(1)))
    g = X_of(alg, (ev(1), ev(2)))
    assert f == g
    assert X_of(alg, (od(1), od(1))).is_zero()


def test_Pf_row_pair_even():
    W = IndexRange(2, 1)
    alg = make_sym_square_algebra(W, twisted=False)
    t = fill_rows(Partition((2,)))
    f = Pf_t(alg, t, (ev(1), ev(2)))
    expected = X_of(alg, (ev(1), ev(2))).scale(2)
    assert f == expected


def test_Pf_row_pair_odd_repeat():
    # the cocycle sign of the odd swap and the symbol's vanishing diagonal
    # both kill this one
    W = IndexRange(0, 1)
    alg = make_sym_square_algebra(W, twisted=False)
    t = fill_rows(Partition((2,)))
    assert Pf_t(alg, t, (od(1), od(1))).is_zero()


def test_Pf_odd_rows_rejected():
    W = IndexRange(2, 0)
    alg = make_sym_square_algebra(W, twisted=False)
    with pytest.raises(ValueError):
        Pf_t(alg, fill_rows(Partition((2, 1))), (ev(1), ev(1), ev(2)))


def test_Y_single_symbol():
    W = IndexRange(2, 1)
    alg = make_sym_square_algebra(W, twisted=True)
    f = Y_of(alg, (ev(1), ev(2)))
    assert len(f.terms) == 1 and list(f.terms.values())[0] == 1


def test_Y_decalage_sign():
    # two factors: the first carries exponent (k - 1) * parity
    W = IndexRange(1, 1)
    alg = make_sym_square_algebra(W, twisted=True)
    f = Y_of(alg, (ev(1), od(1), ev(1), ev(1)))
    g = Y_of(alg, (ev(1), ev(1), ev(1), od(1)))
    mono_f = next(iter(f.terms))
    mono_g = next(iter(g.terms))
    assert f.terms[mono_f] == -1  # (k-alpha)=1 times parity 1
    assert g.terms[mono_g] == 1


def test_frobenius_hook_shapes():
    assert frobenius_hook_shape((1,)).parts == (2,)
    assert frobenius_hook_shape((2,)).parts == (3, 1)
    assert frobenius_hook_shape((2, 1)).parts == (3, 3)
    assert frobenius_hook_shape((3, 2, 1)).parts == (4, 4, 4)
    with pytest.raises(ValueError):
        frobenius_hook_shape((1, 1))


def test_ppf_tableau_numbering():
    t = ppf_tableau((2, 1))
    assert t.rows == ((1, 2, 4), (3, 5, 6))
    assert is_standard(t)
    t = ppf_tableau((2,))
    assert t.rows == ((1, 2, 4), (3,))


def test_ppf_single_symbol():
    W = IndexRange(1, 1)
    alg = make_sym_square_algebra(W, twisted=True)
    t = ppf_tableau((1,))
    f = PPf_t(alg, t, (ev(1), od(1)))
    # row pair symmetrizes without signs on a mixed pair
    assert f == Y_of(alg, (ev(1), od(1))).scale(2)


def test_ppf_rejects_bad_shape():
    W = IndexRange(1, 1)
    alg = make_sym_square_algebra(W, twisted=True)
    bad = fill_rows(Partition((2, 2)))
    with pytest.raises(ValueError):
        PPf_t(alg, bad, (ev(1), ev(1), od(1), od(1)))


# -- the collected-word paths against the per-term references ---------------

LETTERS = IndexRange(2, 2).indices()
TABLEAUX_UP_TO_6 = [
    t
    for size in range(1, 7)
    for shape in enumerate_partitions(size)
    for t in enumerate_standard_tableaux(shape)
]
EVEN_ROW_TABLEAUX = [t for t in TABLEAUX_UP_TO_6 if not any(p % 2 for p in t.shape.parts)]
HOOK_TABLEAUX = [
    t for t in TABLEAUX_UP_TO_6 if t.shape.parts in ((2,), (3, 1), (4, 1, 1), (3, 3))
]


def _words(length):
    """Words over (2|2): four letters, so repeated even letters and odd
    letters (repeated or not) are both common."""
    return st.lists(st.sampled_from(LETTERS), min_size=length, max_size=length).map(tuple)


def _all_int(f):
    return all(type(c) is int for c in f.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(TABLEAUX_UP_TO_6), st.sampled_from(("plain", "tilde")))
def test_P_t_matches_per_term_reference(data, t, variant):
    alg = make_uw_algebra(IndexRange(2, 2), IndexRange(2, 2))
    I = data.draw(_words(t.size))
    J = data.draw(_words(t.size))
    f = P_t(alg, t, I, J, variant)
    assert f == reference_P_t(alg, t, I, J, variant)
    assert _all_int(f)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(EVEN_ROW_TABLEAUX))
def test_Pf_t_matches_per_term_reference(data, t):
    alg = make_sym_square_algebra(IndexRange(2, 2))
    I = data.draw(_words(t.size))
    f = Pf_t(alg, t, I)
    assert f == reference_Pf_t(alg, t, I)
    assert _all_int(f)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(HOOK_TABLEAUX))
def test_PPf_t_matches_per_term_reference(data, t):
    alg = make_sym_square_algebra(IndexRange(2, 2), twisted=True)
    I = data.draw(_words(t.size))
    f = PPf_t(alg, t, I)
    assert f == reference_PPf_t(alg, t, I)
    assert _all_int(f)


def test_equal_letters_collect_and_cancel():
    """Repeated even letters collect moved words; two equal odd letters in
    a row cancel their swap, so the row symmetrization of (1', 1') is 0."""
    alg = make_uw_algebra(IndexRange(2, 2), IndexRange(2, 2))
    row = fill_rows(Partition((2,)))
    assert P_t(alg, row, (ev(1), ev(1)), (ev(1), ev(2))) == Z_of(
        alg, (ev(1), ev(1)), (ev(1), ev(2))
    ).scale(2)
    assert P_t(alg, row, (od(1), od(1)), (ev(1), ev(2))).is_zero()
    assert reference_P_t(alg, row, (od(1), od(1)), (ev(1), ev(2))).is_zero()
    # one pairing per distinct moved word; a word whose terms cancel is dropped
    assert symmetrize(row, "plain", {(ev(1), ev(1)): 1}) == {(ev(1), ev(1)): 2}
    assert symmetrize(row, "plain", {(od(1), od(1)): 1}) == {}
    assert symmetrize(row, "plain", {(ev(1), od(1)): 1}) == {(ev(1), od(1)): 1, (od(1), ev(1)): 1}


_SHADOW_ALGEBRA = make_mixed_algebra(IndexRange(2, 2), IndexRange(0, 0), IndexRange(2, 1))
_SHADOW_TABLEAUX = [fill_rows(Partition(parts)) for parts in ((2,), (1, 1), (2, 1), (2, 2), (3, 1))]


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.sampled_from(_SHADOW_TABLEAUX),
    st.lists(st.integers(-3, 3), min_size=1, max_size=12),
)
def test_dual_shadows_match_per_word_reference(data, t, coeffs):
    """A random dual tensor paired against every semistandard J: the shared
    loop, Z_combination and the per-word reference agree."""
    words = [data.draw(_words(t.size)) for _ in coeffs]
    terms = {}
    for w, c in zip(words, coeffs):
        terms[w] = terms.get(w, 0) + c
    element = TensorElement(IndexRange(2, 2), (True,) * t.size, terms)
    alg = _SHADOW_ALGEBRA
    expected = []
    for J in enumerate_semistandard(t, alg.w_range):
        ref = reference_dual_shadow(alg, element, J)
        assert Z_combination(alg, _dual_letters(element, len(J)), J, "vw") == ref
        if ref:
            expected.append(ref)
    got = nonzero_shadows(alg, _dual_letters(element, t.size), t)
    assert got == expected
    assert all(_all_int(f) for f in got)


def test_missing_generator_raises_key_error():
    alg = make_uw_algebra(IndexRange(1, 0), IndexRange(1, 0))
    with pytest.raises(KeyError, match="no generator"):
        Z_of(alg, (ev(2),), (ev(1),))
    with pytest.raises(KeyError, match="no generator"):
        _reference_z_term(alg, (ev(2),), (ev(1),), "zuw")
