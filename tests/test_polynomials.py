import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, ev, od
from superinv.invariants import algebra_for
from superinv.liealgebras import build_family
from superinv.polynomials import (
    AlgebraDescriptor,
    Generator,
    Polynomial,
    field_width,
    make_mixed_algebra,
    make_sym_square_algebra,
    make_uw_algebra,
    monomials_of_degree,
    normalize_product,
    pack,
    packed_product,
    sym_square_index,
    unpack,
)

from reference import reference_product


def bubble_sign_oracle(mono, parities):
    """Sort by adjacent swaps, counting odd-odd transpositions."""
    items = list(mono)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            if items[i] > items[i + 1]:
                if parities[items[i]] and parities[items[i + 1]]:
                    sign = -sign
                items[i], items[i + 1] = items[i + 1], items[i]
                changed = True
    for a, b in zip(items, items[1:]):
        if a == b and parities[a]:
            return None
    return sign, tuple(items)


def test_normalize_odd_swap():
    # two odd generators out of order: one odd transposition
    parities = (1, 1)
    assert normalize_product((1, 0), parities) == (-1, (0, 1))


def test_normalize_odd_square_vanishes():
    assert normalize_product((0, 0), (1,)) is None


def reference_merge(left, right, parities):
    """Merge two normal-form monomials pair by pair, flipping the sign each
    time an odd right letter passes an odd number of odd left letters."""
    merged = []
    sign = 1
    i = j = 0
    odd_left_remaining = sum(1 for g in left if parities[g])
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            if parities[left[i]]:
                odd_left_remaining -= 1
            merged.append(left[i])
            i += 1
        else:
            if parities[right[j]] and odd_left_remaining % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    for a, b in zip(merged, merged[1:]):
        if a == b and parities[a]:
            return None
    return sign, tuple(merged)


def reference_mul(f, g):
    """The product by the pairwise merge, visiting the term pairs in the
    same order as `Polynomial.__mul__`."""
    parities = f.algebra.parities
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            merged = reference_merge(m1, m2, parities)
            if merged is None:
                continue
            sign, key = merged
            out[key] = out.get(key, 0) + c1 * c2 * sign
    return Polynomial(f.algebra, out)


def _algebra(parities):
    gens = [
        Generator("t", ev(i + 1), ev(1), p, f"t{i}") for i, p in enumerate(parities)
    ]
    return AlgebraDescriptor("T", gens)


PARITIES = st.lists(st.integers(0, 1), min_size=1, max_size=6)
COEFFS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=200, deadline=None)
@given(PARITIES, st.data())
def test_normalize_matches_bubble_oracle(parities, data):
    mono = data.draw(st.lists(st.integers(0, len(parities) - 1), max_size=7))
    assert normalize_product(mono, parities) == bubble_sign_oracle(mono, parities)


@st.composite
def _polynomial(draw, algebra):
    n = len(algebra)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        norm = normalize_product(
            draw(st.lists(st.integers(0, n - 1), max_size=4)), algebra.parities
        )
        if norm is not None:
            terms[norm[1]] = draw(COEFFS) * norm[0]
    return Polynomial(algebra, terms)


@settings(max_examples=200, deadline=None)
@given(PARITIES, st.data())
def test_mul_matches_reference_mul(parities, data):
    """The sorted-key product equals the pairwise merge: same terms, same
    term order and same coefficient types (int kept while integral).  One
    draw in two repeats a generator on both sides, odd ones included."""
    algebra = _algebra(parities)
    f = data.draw(_polynomial(algebra))
    g = data.draw(_polynomial(algebra))
    if data.draw(st.booleans()) and f.terms:
        shared = next(iter(f.terms))
        g = g + Polynomial(algebra, {shared: data.draw(COEFFS)})
    got, want = f * g, reference_mul(f, g)
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def _assert_same_terms(got: dict, want: dict) -> None:
    """Same terms, in the same order, with the same coefficient types."""
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


@settings(max_examples=200, deadline=None)
@given(PARITIES, st.data())
def test_packed_product_matches_reference_product(parities, data):
    """The packed product, unpacked, is the tuple-sorting product: same
    terms, term order and coefficient types, at the least width the
    product's degree fits or wider.  Draws mix parities, add the empty
    monomial, and repeat a monomial of one factor in the other, so that
    a repeated odd generator multiplies to zero."""
    algebra = _algebra(parities)
    f, g = data.draw(_polynomial(algebra)), data.draw(_polynomial(algebra))
    if data.draw(st.booleans()):
        f = f + algebra.one().scale(data.draw(COEFFS))
    if data.draw(st.booleans()) and f.terms:
        g = g + Polynomial(algebra, {next(iter(f.terms)): data.draw(COEFFS)})
    width = field_width(f.degree() + g.degree()) + data.draw(st.integers(0, 2))
    n = len(parities)
    left, right = pack(f.terms, width, parities), pack(g.terms, width, parities)
    want = reference_product(f, g).terms
    _assert_same_terms(unpack(packed_product(left, right, n), width, n), want)
    _assert_same_terms((f * g).terms, want)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_packed_product_fills_a_field_without_carry(width):
    """x1^a * x1^b with a + b = 2^w - 1, the largest exponent a w-bit field
    holds, between two odd generators: the sum fills x1's field and spills
    into neither neighbour, whether a factor is the empty monomial or
    not."""
    parities = (1, 0, 1)
    n, top = len(parities), (1 << width) - 1
    assert field_width(top) == width
    algebra = _algebra(parities)
    full = {(1,) * top: 6}
    for a in range(top + 1):
        f, g = Polynomial(algebra, {(1,) * a: 3}), Polynomial(algebra, {(1,) * (top - a): 2})
        left, right = pack(f.terms, width, parities), pack(g.terms, width, parities)
        got = packed_product(left, right, n)
        assert got == {top << width << n: 6}
        _assert_same_terms(unpack(got, width, n), full)
        _assert_same_terms((f * g).terms, reference_product(f, g).terms)


def test_pack_refuses_a_width_too_narrow():
    """A monomial whose degree a field cannot hold raises, at the field's
    largest degree plus one."""
    parities = (0, 1)
    for width in (1, 2, 3):
        top = (1 << width) - 1
        pack({(0,) * top: 1}, width, parities)
        with pytest.raises(ValueError, match="overflows"):
            pack({(0,) * top + (1,): 1}, width, parities)


def test_mul_repeated_odd_generator_vanishes():
    algebra = _algebra((1, 0, 1))
    f = Polynomial(algebra, {(0, 1): 2, (1, 2): Fraction(1, 3)})
    g = Polynomial(algebra, {(0,): -1, (2,): 1})
    # x0 x1 * x0 and x1 x2 * x2 vanish (x0, x2 odd); x0 x1 * x2 = x0 x1 x2,
    # and x1 x2 * x0 = -x0 x1 x2 (x0 passes the odd x2)
    assert (f * g).terms == {(0, 1, 2): 2 * 1 + Fraction(1, 3) * -1 * -1}
    assert (f * g) == reference_mul(f, g)


def make_test_algebra():
    return make_mixed_algebra(IndexRange(1, 1), IndexRange(1, 1), IndexRange(1, 1))


def random_homogeneous(algebra, rng, degree=None):
    d = degree if degree is not None else rng.randint(0, 3)
    out = algebra.zero()
    monos = monomials_of_degree(algebra, d)
    for _ in range(rng.randint(1, 4)):
        out.add_term(rng.choice(monos), rng.randint(-3, 3)) if monos else None
    return out


def test_supercommutativity_random():
    algebra = make_test_algebra()
    rng = random.Random(11)
    checked = 0
    while checked < 500:
        f = random_homogeneous(algebra, rng)
        g = random_homogeneous(algebra, rng)
        pf, pg = f.parity(), g.parity()
        if not f or not g or pf is None or pg is None:
            continue
        sign = (-1) ** (pf * pg)
        assert (f * g - (g * f).scale(sign)).is_zero()
        checked += 1


def test_associativity_distributivity_random():
    algebra = make_test_algebra()
    rng = random.Random(13)
    for _ in range(200):
        f = random_homogeneous(algebra, rng)
        g = random_homogeneous(algebra, rng)
        h = random_homogeneous(algebra, rng)
        assert ((f * g) * h - f * (g * h)).is_zero()
        assert (f * (g + h) - (f * g + f * h)).is_zero()


def test_make_algebra_parities():
    # mixed algebra over (1|1) x (1|0) x (1|0): parity arithmetic per slot
    alg = make_mixed_algebra(IndexRange(1, 1), IndexRange(1, 0), IndexRange(1, 0))
    gens = {g.label: g.parity for g in alg.generators}
    assert gens == {
        "x[1,1]": 0,
        "x[1,1']": 1,
        "x*[1,1]": 0,
        "x*[1',1]": 1,
    }


def test_uw_algebra_single_even():
    alg = make_uw_algebra(IndexRange(1, 0), IndexRange(1, 0))
    assert len(alg) == 1 and alg.generators[0].parity == 0


def test_twisted_square_odd_diagonal():
    # single even letter: the twisted symbol y[1,1] is odd so its square dies
    alg = make_sym_square_algebra(IndexRange(1, 0), twisted=True)
    assert len(alg) == 1
    y = alg.gen(0)
    assert alg.generators[0].parity == 1
    assert (y * y).is_zero()


def test_sym_square_index_symmetry():
    W = IndexRange(1, 2)
    alg = make_sym_square_algebra(W, twisted=False)
    # odd diagonal symbols are omitted entirely
    assert alg.maybe_index("s2w", od(1), od(1)) is None
    sign, idx = sym_square_index(alg, od(2), od(1))
    assert sign == -1 and alg.generators[idx].row == od(1)
    sign, idx = sym_square_index(alg, od(1), ev(1))
    assert sign == 1 and alg.generators[idx].row == ev(1)
    assert sym_square_index(alg, od(1), od(1)) is None


def test_monomials_of_degree_counts():
    # 2 even + 2 odd generators: count multisets with odd multiplicity <= 1
    alg = make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1))
    assert len(alg) == 4
    for d in range(5):
        count = len(monomials_of_degree(alg, d))
        oracle = 0
        for j in range(min(d, 2) + 1):
            even_multi = len(
                list(itertools.combinations_with_replacement(range(2), d - j))
            )
            odd_sets = len(list(itertools.combinations(range(2), j)))
            oracle += even_multi * odd_sets
        assert count == oracle


def test_power_and_parity():
    alg = make_uw_algebra(IndexRange(1, 1), IndexRange(1, 1))
    z_oo = alg.gen(alg.index("zuw", od(1), od(1)))  # even generator
    assert (z_oo * z_oo * z_oo).degree() == 3
    z_eo = alg.gen(alg.index("zuw", ev(1), od(1)))  # odd generator
    assert (z_eo * z_eo).is_zero()
    assert (z_oo + z_eo).parity() is None


def depth_first_walk(algebra, degree, weights=()):
    """The weight-zero walk letter by letter down to the last one, looked up
    by the weight it must cancel: the reference for the pair table."""
    if degree <= 0:
        return [()] if degree == 0 else []
    parities = algebra.parities
    n = len(parities)
    vecs = list(zip(*weights)) if weights else [()] * n
    lo, hi = vecs[:], vecs[:]
    for i in reversed(range(n - 1)):
        lo[i] = tuple(map(min, vecs[i], lo[i + 1]))
        hi[i] = tuple(map(max, vecs[i], hi[i + 1]))
    ends = {}
    for i, vec in enumerate(vecs):
        ends.setdefault(vec, []).append(i)

    def feasible(start, r, acc):
        return start < n and all(
            r * a <= -w <= r * b for w, a, b in zip(acc, lo[start], hi[start])
        )

    out = []

    def walk(start, r, prefix, acc):
        if r == 1:
            last = ends.get(tuple(-w for w in acc), ())
            out.extend(prefix + (j,) for j in last[bisect_left(last, start):])
            return
        for j in range(start, n):
            nxt = j + parities[j]
            step = tuple(map(add, acc, vecs[j]))
            if feasible(nxt, r - 1, step):
                walk(nxt, r - 1, prefix + (j,), step)

    zero = (0,) * len(weights)
    if feasible(0, degree, zero):
        walk(0, degree, (), zero)
    return out


_WALK_DIMS = [("gl", (1, 1)), ("sl", (2, 1)), ("osp", (1, 2)), ("pe", (1, 1)), ("spe", (2, 2))]
_WALK_ALGEBRAS: dict = {}


def _walk_algebra(tag, dims, pqkl):
    if (tag, dims) not in _WALK_ALGEBRAS:
        _WALK_ALGEBRAS[tag, dims] = build_family(tag, IndexRange(*dims))
    return algebra_for(_WALK_ALGEBRAS[tag, dims], *pqkl)


@st.composite
def _weight_rows(draw, n):
    """No rows, one or several; a row may be all zeros, and entries may be."""
    row = st.one_of(
        st.just([0] * n), st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    )
    return draw(st.lists(row, max_size=3))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_WALK_DIMS),
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.integers(0, 7),
    st.data(),
)
def test_pair_table_walk_matches_the_depth_first_walk(tag_dims, pqkl, degree, data):
    """The walk that takes its last two letters from the pair table lists
    the same monomials, in the same order, as the letter-by-letter walk,
    for any integer weight rows."""
    alg = _walk_algebra(*tag_dims, pqkl)
    assume(any(alg.parities))
    weights = data.draw(_weight_rows(len(alg)))
    expected = depth_first_walk(alg, degree, weights)
    assume(len(expected) <= 4000)
    assert monomials_of_degree(alg, degree, weights) == expected
