import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, all_words, ev, od
from superinv.errors import CapExceeded
from superinv.permutations import (
    GroupAlgebraElement,
    Permutation,
    cocycle,
    column_group,
    row_group,
    young_symmetrizer,
)
from superinv.tableaux import Partition, enumerate_partitions, enumerate_standard_tableaux, fill_rows
from reference import act_on_word, apply_to_word


def all_perms(k):
    return [Permutation(im) for im in itertools.permutations(range(k))]


def test_identity_action():
    w = (ev(1), od(2), ev(3))
    assert act_on_word(Permutation.identity(3), w) == w


def test_transposition_action():
    w = (ev(1), od(1))
    assert act_on_word(Permutation.transposition(2, 0, 1), w) == (od(1), ev(1))


def test_cycle_action_index_chase():
    # position a receives the letter from position sigma^{-1}(a)
    sigma = Permutation((1, 2, 0))
    w = (ev(1), ev(2), ev(3))
    moved = act_on_word(sigma, w)
    inv = sigma.inverse()
    assert moved == tuple(w[inv(a)] for a in range(3))


def test_sign():
    assert Permutation.identity(3).sign() == 1
    assert Permutation.transposition(3, 0, 2).sign() == -1
    assert Permutation((1, 2, 0)).sign() == 1


def test_cocycle_all_even():
    w = (ev(1), ev(2), ev(3))
    for sigma in all_perms(3):
        assert cocycle(w, sigma) == 1


def test_cocycle_odd_swap():
    w = (od(1), od(2))
    assert cocycle(w, Permutation.transposition(2, 0, 1)) == -1


@pytest.mark.parametrize("evens,odds", [(2, 2), (1, 1), (0, 3), (3, 1)])
def test_cocycle_identity_random(evens, odds):
    rng = random.Random(7 + evens * 10 + odds)
    letters = IndexRange(evens, odds).indices()
    for _ in range(200):
        k = rng.randint(1, 6)
        word = tuple(rng.choice(letters) for _ in range(k))
        sigma = Permutation(tuple(rng.sample(range(k), k)))
        tau = Permutation(tuple(rng.sample(range(k), k)))
        lhs = cocycle(word, sigma * tau)
        rhs = cocycle(act_on_word(sigma.inverse(), word), tau) * cocycle(word, sigma)
        assert lhs == rhs


def test_word_action_is_representation():
    """sigma.(tau.v_I) = (sigma tau).v_I with the cocycle weights."""
    rng = random.Random(11)
    letters = IndexRange(1, 2).indices()
    for _ in range(100):
        k = rng.randint(2, 5)
        word = tuple(rng.choice(letters) for _ in range(k))
        sigma = Permutation(tuple(rng.sample(range(k), k)))
        tau = Permutation(tuple(rng.sample(range(k), k)))
        one = apply_to_word(GroupAlgebraElement(k, {sigma * tau: Fraction(1)}), word)
        inner = apply_to_word(GroupAlgebraElement(k, {tau: Fraction(1)}), word)
        two = {}
        for w, c in inner.items():
            for w2, c2 in apply_to_word(GroupAlgebraElement(k, {sigma: Fraction(1)}), w).items():
                two[w2] = two.get(w2, Fraction(0)) + c * c2
        assert one == {w: c for w, c in two.items() if c}


def test_stabilizer_sizes_row_and_column_shapes():
    row3 = fill_rows(Partition((3,)))
    assert len(row_group(row3)) == 6
    assert len(column_group(row3)) == 1
    col3 = fill_rows(Partition((1, 1, 1)))
    assert len(row_group(col3)) == 1
    assert len(column_group(col3)) == 6


def test_stabilizers_match_preservation_oracle():
    """Oracle: permutations preserving every row (column) setwise."""
    for parts in [(2, 1), (2, 2), (3, 1)]:
        t = fill_rows(Partition(parts))
        size = t.size
        row_cells = [set(v - 1 for v in row) for row in t.rows]
        col_cells = [set(v - 1 for v in col) for col in t.columns()]

        def preserves(p, blocks):
            return all({p(x) for x in b} == b for b in blocks)

        oracle_rows = {p for p in all_perms(size) if preserves(p, row_cells)}
        oracle_cols = {p for p in all_perms(size) if preserves(p, col_cells)}
        assert set(row_group(t)) == oracle_rows
        assert set(column_group(t)) == oracle_cols


def test_symmetrizer_row_pair():
    t = fill_rows(Partition((2,)))
    e = young_symmetrizer(t)
    assert e.terms == {
        Permutation.identity(2): Fraction(1),
        Permutation.transposition(2, 0, 1): Fraction(1),
    }


def test_symmetrizer_column_pair():
    t = fill_rows(Partition((1, 1)))
    e = young_symmetrizer(t)
    assert e.terms == {
        Permutation.identity(2): Fraction(1),
        Permutation.transposition(2, 0, 1): Fraction(-1),
    }


@pytest.mark.parametrize("variant", ["plain", "tilde"])
def test_quasi_idempotence_small(variant):
    for parts in [(2, 1), (2, 2), (3, 1)]:
        t = enumerate_standard_tableaux(Partition(parts))[0]
        e = young_symmetrizer(t, variant)
        square = e * e
        ident = Permutation.identity(t.size)
        c = Fraction(square.terms.get(ident, 0), e.terms[ident])
        assert c != 0
        assert square == e.scale(c)


def reference_product(a, b):
    """The pairwise convolution: one composition per (term, term) pair."""
    out = {}
    for p1, c1 in a.terms.items():
        at = p1.images.__getitem__
        for p2, c2 in b.terms.items():
            prod = tuple(map(at, p2.images))
            out[prod] = out.get(prod, 0) + c1 * c2
    return GroupAlgebraElement(a.degree, {Permutation(im): c for im, c in out.items()})


_COEFFS = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def _elements(draw, degree, count=3):
    out = []
    for _ in range(count):
        perms = draw(st.lists(st.permutations(range(degree)), max_size=10))
        out.append(
            GroupAlgebraElement(degree, {Permutation(tuple(p)): draw(_COEFFS) for p in perms})
        )
    return out


def _exact_types(e):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in e.terms.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(_elements))
def test_product_matches_pairwise_reference(elements):
    a, b, c = elements
    ab = a * b
    assert ab == reference_product(a, b)
    assert _exact_types(ab)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(_elements(k, 2), st.permutations(range(k)))))
def test_product_cancels_to_zero(data):
    """x (1 + s) times (1 - s) y is zero for an involution s: every raw sum cancels."""
    (x, y), order = data
    k = x.degree
    one, s = Permutation.identity(k), Permutation.transposition(k, order[0], order[1])
    left = reference_product(x, GroupAlgebraElement(k, {one: 1, s: 1}))
    right = reference_product(GroupAlgebraElement(k, {one: 1, s: -1}), y)
    assert (left * right).terms == {}
    assert reference_product(left, right).terms == {}


def test_product_integral_coefficients_are_int():
    p, q = Permutation((1, 2, 0)), Permutation.transposition(3, 0, 1)
    half = GroupAlgebraElement(3, {p: Fraction(1, 2), q: Fraction(-3, 2)})
    two = GroupAlgebraElement(3, {q: 2})
    prod = half * two
    assert prod.terms == {p * q: 1, q * q: -3}
    assert all(type(c) is int for c in prod.terms.values())
    e = young_symmetrizer(fill_rows(Partition((2, 1))))
    assert all(type(c) is int for c in (e * e).terms.values())


def _route_tableaux():
    """Every standard tableau up to 5 cells and one per 6-cell shape."""
    rng = random.Random(6)
    for size in range(1, 7):
        for shape in enumerate_partitions(size):
            tableaux = enumerate_standard_tableaux(shape)
            yield from [rng.choice(tableaux)] if size == 6 else tableaux


@pytest.mark.parametrize("variant", ["plain", "tilde"])
def test_product_with_symmetrizer_matches_generic_product(variant):
    """A right factor from young_symmetrizer multiplies block sum by block
    sum; an element with the same terms and no record takes the generic
    product, which is the reference."""
    rng = random.Random(25)
    other_variant = "tilde" if variant == "plain" else "plain"
    for t in _route_tableaux():
        e = young_symmetrizer(t, variant)
        assert e.symmetrizer == (t, variant)
        generic = GroupAlgebraElement(e.degree, e.terms)
        assert generic.symmetrizer is None and e == generic
        perms = list(itertools.permutations(range(t.size)))
        random_left = GroupAlgebraElement(t.size, {
            Permutation(p): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for p in rng.sample(perms, min(len(perms), 8))
        })
        lefts = (e, young_symmetrizer(t, other_variant), GroupAlgebraElement.unit(t.size), random_left)
        for a in lefts:
            got = a * e
            assert got == a * generic, (t, variant)
            assert got.symmetrizer is None
            assert _exact_types(got)


def test_arithmetic_drops_the_symmetrizer_record():
    t = enumerate_standard_tableaux(Partition((2, 1)))[0]
    e = young_symmetrizer(t)
    assert e.symmetrizer == (t, "plain")
    for derived in (e.scale(2), e.scale(1), e + e, e - GroupAlgebraElement.unit(3)):
        assert derived.symmetrizer is None
    # the record routes the product; a scaled copy takes the generic path
    assert e * e.scale(3) == (e * e).scale(3)


def test_product_degree_checks():
    with pytest.raises(ValueError, match="degree mismatch"):
        GroupAlgebraElement.unit(3) * GroupAlgebraElement.unit(4)
    assert GroupAlgebraElement.unit(256) * GroupAlgebraElement.unit(256) == GroupAlgebraElement.unit(256)
    with pytest.raises(ValueError, match="256"):
        GroupAlgebraElement.unit(257) * GroupAlgebraElement.unit(257)


def test_symmetrizer_cap():
    # the shape (4,4,4) expands to 4!^3 * 3!^4 = 17,915,904 terms
    with pytest.raises(CapExceeded):
        young_symmetrizer(fill_rows(Partition((4, 4, 4))))


def test_apply_to_word_examples():
    col2 = fill_rows(Partition((1, 1)))
    e = young_symmetrizer(col2)
    # odd repeat survives antisymmetrization: the cocycle sign cancels eps
    out = apply_to_word(e, (od(1), od(1)))
    assert out == {(od(1), od(1)): Fraction(2)}
    row2 = fill_rows(Partition((2,)))
    e = young_symmetrizer(row2)
    assert apply_to_word(e, (ev(1), ev(1))) == {(ev(1), ev(1)): Fraction(2)}


def test_symmetrizer_image_independence():
    """For fixed t the symmetrized semistandard words are linearly independent."""
    from superinv.tableaux import enumerate_semistandard
    from superinv.linalg import rank_rows

    r = IndexRange(1, 1)
    for parts in [(2,), (1, 1), (2, 1)]:
        t = enumerate_standard_tableaux(Partition(parts))[0]
        e = young_symmetrizer(t)
        words = enumerate_semistandard(t, r)
        images = [apply_to_word(e, w) for w in words]
        basis_words = sorted({w for img in images for w in img})
        pos = {w: i for i, w in enumerate(basis_words)}
        rows = []
        for img in images:
            vec = [Fraction(0)] * len(basis_words)
            for w, c in img.items():
                vec[pos[w]] = c
            rows.append(vec)
        assert rank_rows(rows) == len(words)


def test_semistandard_count_is_module_dimension():
    """Independent oracle: the number of semistandard sequences equals the
    rank of the symmetrizer image on the whole tensor power."""
    from superinv.linalg import rank_rows
    from superinv.alphabet import all_words
    from superinv.tableaux import enumerate_partitions, enumerate_semistandard

    for evens, odds in [(1, 1), (2, 1)]:
        r = IndexRange(evens, odds)
        for size in (1, 2, 3):
            for shape in enumerate_partitions(size):
                t = fill_rows(shape)
                e = young_symmetrizer(t)
                images = [apply_to_word(e, w) for w in all_words(r, size)]
                basis_words = sorted({w for img in images for w in img})
                pos = {w: i for i, w in enumerate(basis_words)}
                rows = []
                for img in images:
                    if not img:
                        continue
                    vec = [Fraction(0)] * len(basis_words)
                    for w, c in img.items():
                        vec[pos[w]] = c
                    rows.append(vec)
                rank = rank_rows(rows) if rows else 0
                assert rank == len(enumerate_semistandard(t, r)), (shape, (evens, odds))
