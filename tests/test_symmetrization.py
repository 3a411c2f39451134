"""The integer-coefficient permutation kernel: exact coefficient types, the
symmetrizer cap, and the tableau symmetrizations that apply the Young
symmetrizer one block at a time, checked against the plain double sum over
the column and row stabilizers and against the expanded symmetrizer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superinv
from superinv import invariants, permutations
from superinv.alphabet import IndexRange, ev, od
from superinv.errors import CapExceeded
from superinv.named_polynomials import PPf_t, P_t, Pf_t, Z_of
from superinv.permutations import (
    GroupAlgebraElement,
    Permutation,
    act_on_word,
    cocycle,
    column_group,
    row_group,
    symmetrize,
    young_symmetrizer,
)
from superinv.polynomials import make_sym_square_algebra, make_uw_algebra
from superinv.tableaux import Partition, enumerate_partitions, enumerate_standard_tableaux
from superinv.tensors import TensorElement, apply_group_algebra, plain_word
from test_named_polynomials import X_of, Y_of

VARIANTS = ("plain", "tilde")
SMALL_TABLEAUX = [
    t
    for size in range(1, 5)
    for shape in enumerate_partitions(size)
    for t in enumerate_standard_tableaux(shape)
]
MIXED = IndexRange(2, 1)


def _words(size):
    """Every word over (2|1): all parity patterns, repeats included."""
    return list(itertools.product(MIXED.indices(), repeat=size))


# -- reference: the double sum over column_group(t) x row_group(t) --------


def _reference_P(algebra, t, I, J, variant):
    out = algebra.zero()
    for tau in column_group(t):
        eps = tau.sign()
        for sigma in row_group(t):
            g = sigma * tau if variant == "plain" else tau * sigma
            sign = eps * cocycle(I, g.inverse())
            out = out + Z_of(algebra, act_on_word(g, I), J).scale(sign)
    return out


def _reference_square(algebra, t, I, product):
    out = algebra.zero()
    for tau in column_group(t):
        eps = tau.sign()
        for sigma in row_group(t):
            g = sigma * tau
            sign = eps * cocycle(I, g.inverse())
            out = out + product(algebra, act_on_word(g, I)).scale(sign)
    return out


# -- coefficient types ------------------------------------------------------


def _coefficient_types(e):
    return {type(c) for c in e.terms.values()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_symmetrizer_products_keep_int_coefficients(variant):
    for t in SMALL_TABLEAUX:
        e = young_symmetrizer(t, variant)
        assert _coefficient_types(e) == {int}
        assert _coefficient_types(e * e) == {int}
        assert _coefficient_types(e.scale(3)) == {int}
        assert _coefficient_types(e.scale(Fraction(4, 2))) == {int}
        half = e.scale(Fraction(1, 2))
        assert _coefficient_types(half) == {Fraction}
        assert _coefficient_types(half.scale(2)) == {int}
        assert half.scale(2) == e


def test_fraction_only_after_a_division():
    one = GroupAlgebraElement.unit(2)
    swap = GroupAlgebraElement(2, {Permutation.transposition(2, 0, 1): Fraction(1, 3)})
    total = one + swap
    assert _coefficient_types(one) == {int}
    assert type(total.terms[Permutation.identity(2)]) is int
    assert type(total.terms[Permutation.transposition(2, 0, 1)]) is Fraction
    # an integral product of fractions collapses back to int
    assert _coefficient_types(swap.scale(3) * swap.scale(3)) == {int}


def test_float_coefficients_are_refused():
    ident = Permutation.identity(2)
    with pytest.raises(TypeError):
        GroupAlgebraElement(2, {ident: 0.5})
    with pytest.raises(TypeError):
        GroupAlgebraElement.unit(2).scale(0.5)
    with pytest.raises(TypeError):
        GroupAlgebraElement.unit(2).scale(2.0)


def test_every_built_permutation_is_validated(monkeypatch):
    with pytest.raises(ValueError):
        Permutation((0, 0))
    e = young_symmetrizer(SMALL_TABLEAUX[-1])
    checked = []
    validate = Permutation.__post_init__

    def counting(self):
        checked.append(self)
        validate(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    square = e * e
    assert len(checked) == len(square.terms) > 0
    checked.clear()
    e = young_symmetrizer(SMALL_TABLEAUX[-1])
    assert len(checked) >= len(e.terms)


# -- the cap ----------------------------------------------------------------


def test_symmetrizer_cap_checked_before_any_group(monkeypatch):
    def forbidden(t):
        raise AssertionError("stabilizer built before the cap check")

    monkeypatch.setattr(permutations, "row_group", forbidden)
    monkeypatch.setattr(permutations, "column_group", forbidden)
    t = enumerate_standard_tableaux(Partition((3, 3)))[0]
    with pytest.raises(CapExceeded) as info:
        young_symmetrizer(t, cap=287)
    assert info.value.size == 6 * 6 * 2 * 2 * 2


def test_cap_exceeded_is_reexported():
    assert superinv.CapExceeded is CapExceeded
    assert invariants.CapExceeded is CapExceeded


# -- equivalence with the double sum ---------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_P_t_matches_double_sum(variant):
    rng = random.Random(5)
    alg = make_uw_algebra(MIXED, MIXED)
    nonzero = 0
    for t in SMALL_TABLEAUX:
        words = _words(t.size)
        for I in words:
            J = rng.choice(words)
            f = P_t(alg, t, I, J, variant)
            assert f == _reference_P(alg, t, I, J, variant), (t, I, J)
            nonzero += bool(f)
    assert nonzero > 200


def test_Pf_t_matches_double_sum():
    alg = make_sym_square_algebra(IndexRange(2, 1))
    even_rows = [t for t in SMALL_TABLEAUX if not any(p % 2 for p in t.shape.parts)]
    assert {t.shape.parts for t in even_rows} == {(2,), (2, 2), (4,)}
    for t in even_rows:
        for I in itertools.product(IndexRange(2, 1).indices(), repeat=t.size):
            assert Pf_t(alg, t, I) == _reference_square(alg, t, I, X_of), (t, I)


def test_PPf_t_matches_double_sum():
    alg = make_sym_square_algebra(IndexRange(2, 1), twisted=True)
    hooks = [t for t in SMALL_TABLEAUX if t.shape.parts in ((2,), (3, 1))]
    assert len(hooks) == 4
    for t in hooks:
        for I in itertools.product(IndexRange(2, 1).indices(), repeat=t.size):
            assert PPf_t(alg, t, I) == _reference_square(alg, t, I, Y_of), (t, I)


def test_apply_group_algebra_matches_apply_to_word():
    dims = MIXED
    head, tail = (ev(1),), (od(1), ev(1))
    for t in SMALL_TABLEAUX:
        for variant in VARIANTS:
            e = young_symmetrizer(t, variant)
            for g in (e, e * e, e.scale(Fraction(1, 3))):
                for I in _words(t.size):
                    expected = g.apply_to_word(I)
                    got = apply_group_algebra(g, TensorElement.from_word(dims, plain_word(I)))
                    assert got.terms == {plain_word(w): c for w, c in expected.items()}
                    padded = TensorElement.from_word(dims, plain_word(head + I + tail))
                    got = apply_group_algebra(g, padded, start=len(head))
                    assert got.terms == {
                        plain_word(head + w + tail): c for w, c in expected.items()
                    }


def test_stabilizers_built_once_per_symmetrization(monkeypatch):
    """Each row or column block's group is built once per (tableau,
    variant), by the first symmetrization; later ones reuse it."""
    built = []
    original = permutations._block_group

    def counting(blocks, degree):
        blocks = [list(b) for b in blocks]
        built.extend(blocks)
        return original(blocks, degree)

    monkeypatch.setattr(permutations, "_block_group", counting)

    def built_once(t, run):
        blocks = permutations.row_blocks(t) + permutations.column_blocks(t)
        permutations._block_plan.cache_clear()
        built.clear()
        run()
        assert sorted(built) == sorted(b for b in blocks if len(b) > 1)
        built.clear()
        run()
        assert built == []

    uw = make_uw_algebra(MIXED, MIXED)
    square = make_sym_square_algebra(IndexRange(2, 1))
    twisted = make_sym_square_algebra(IndexRange(2, 1), twisted=True)
    for t in SMALL_TABLEAUX:
        I = _words(t.size)[-1]
        for variant in VARIANTS:
            built_once(t, lambda: P_t(uw, t, I, I, variant))
        if t.shape.parts in ((2,), (2, 2), (4,)):
            built_once(t, lambda: Pf_t(square, t, (ev(1),) * t.size))
        if t.shape.parts in ((2,), (3, 1)):
            built_once(t, lambda: PPf_t(twisted, t, (ev(1), od(1)) * (t.size // 2)))


# -- the block path against the expanded symmetrizer ------------------------

TABLEAUX_TO_7 = [
    t
    for size in range(1, 8)
    for shape in enumerate_partitions(size)
    for t in enumerate_standard_tableaux(shape)
]
_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool),
)


@st.composite
def _symmetrize_case(draw):
    """A standard tableau of up to 7 cells, a variant, a head and a tail
    of dual slots around the tableau's block, and 1-3 mixed-parity words
    over (1|2) or (2|1), so letters repeat."""
    t = draw(st.sampled_from(TABLEAUX_TO_7))
    dims = draw(st.sampled_from([IndexRange(1, 2), IndexRange(2, 1)]))
    letters = st.sampled_from(dims.indices())
    head, tail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        w = [draw(st.lists(letters, min_size=n, max_size=n)) for n in (head, t.size, tail)]
        terms[tuple(w[0] + w[1] + w[2])] = draw(_COEFFS)
    sig = (True,) * head + (False,) * t.size + (True,) * tail
    return t, draw(st.sampled_from(VARIANTS)), TensorElement(dims, sig, terms), head


@settings(max_examples=60, deadline=None)
@given(_symmetrize_case())
def test_symmetrize_matches_expanded_symmetrizer(case):
    """Same words, coefficients and coefficient types as the expanded
    symmetrizer's action on a tensor's letter words."""
    t, variant, x, start = case
    want = apply_group_algebra(young_symmetrizer(t, variant), x, start).terms
    got = symmetrize(t, variant, x.terms, start)
    assert got == want
    assert [type(c) for c in got.values()] == [type(want[w]) for w in got]


def test_symmetrize_edge_cases():
    col2 = enumerate_standard_tableaux(Partition((1, 1)))[0]
    row2 = enumerate_standard_tableaux(Partition((2,)))[0]
    # a repeated even letter in a column, a repeated odd one in a row
    assert symmetrize(col2, "plain", {(ev(1), ev(1)): 3}) == {}
    assert symmetrize(row2, "tilde", {(ev(2), od(1), od(1)): Fraction(1, 2)}, 1) == {}
    assert symmetrize(row2, "plain", {}) == {}
    # Fractions that sum to an integer come back as int
    got = symmetrize(row2, "plain", {(ev(1), ev(2)): Fraction(1, 2), (ev(2), ev(1)): Fraction(1, 2)})
    assert got == {(ev(1), ev(2)): 1, (ev(2), ev(1)): 1}
    assert {type(c) for c in got.values()} == {int}
    with pytest.raises(ValueError):
        symmetrize(row2, "plain", {(ev(1),): 1})
    with pytest.raises(ValueError):
        symmetrize(row2, "other", {(ev(1), ev(2)): 1})
    # the expanded size is checked before any block: 11! terms
    with pytest.raises(CapExceeded):
        symmetrize(enumerate_standard_tableaux(Partition((1,) * 11))[0], "plain", {})
