import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, ev, od
from superinv.liealgebras import (
    AlgebraFamily,
    MatrixElement,
    abs_exponent,
    act_on_polynomial,
    act_through_images,
    action_table,
    annihilates,
    build_family,
    diagonal_weights,
    invariant,
    polynomial_images,
    t1_matrices,
    yminus_expansion,
    yminus_factors,
)
from superinv.invariants import algebra_for
from superinv.linalg import SpanTracker, rank_rows
from superinv.generators import xplus_factors
from superinv.polynomials import (
    Polynomial,
    make_uw_algebra,
    monomials_of_degree,
    normalize_product,
)


def test_family_dimensions():
    expected = {
        ("gl", (1, 1)): 4,
        ("gl", (2, 1)): 9,
        ("sl", (1, 1)): 3,
        ("sl", (2, 1)): 8,
        ("osp", (1, 2)): 5,
        ("osp", (2, 2)): 8,
        ("pe", (1, 1)): 2,
        ("pe", (2, 2)): 8,
        ("spe", (1, 1)): 1,
        ("spe", (2, 2)): 7,
    }
    for (tag, dims), dim in expected.items():
        fam = build_family(tag, IndexRange(*dims))
        assert fam.dimension == dim, (tag, dims)


def test_invalid_dims():
    with pytest.raises(ValueError):
        build_family("osp", IndexRange(1, 1))
    with pytest.raises(ValueError):
        build_family("pe", IndexRange(2, 1))
    with pytest.raises(ValueError):
        build_family("nope", IndexRange(1, 1))


def basis_span(fam) -> SpanTracker:
    tracker = SpanTracker()
    for b in fam.basis:
        tracker.add(b.terms)
    return tracker


def bracket_closed(fam) -> bool:
    """Closure reference: every bracket of two basis elements lies in the
    span of the basis."""
    tracker = basis_span(fam)
    return all(tracker.contains(x.bracket(y).terms) for x in fam.basis for y in fam.basis)


@pytest.mark.parametrize(
    "tag,dims",
    [
        ("gl", (1, 1)),
        ("sl", (1, 1)),
        ("osp", (1, 2)),
        ("pe", (2, 2)),
        ("spe", (2, 2)),
        ("gl", (2, 1)),
        ("pe", (1, 1)),
    ],
)
def test_bracket_closure(tag, dims):
    assert bracket_closed(build_family(tag, IndexRange(*dims)))


def test_supertrace_conditions():
    for tag in ("sl", "spe"):
        dims = IndexRange(1, 1) if tag == "sl" else IndexRange(2, 2)
        fam = build_family(tag, dims)
        assert all(b.supertrace() == 0 for b in fam.basis)


def hand_built_sl_basis(dims: IndexRange) -> list[MatrixElement]:
    """A hand-built sl(V) basis, the reference for the solved one: the
    off-diagonal units, then E[a,a] - (-1)^{p(a)+p(last)} E[last,last] for
    every letter a but the last."""
    letters = dims.indices()
    basis = [MatrixElement.unit(dims, r, c) for r in letters for c in letters if r != c]
    last = letters[-1]
    for a in letters[:-1]:
        sign = -1 if (a.parity + last.parity) % 2 else 1
        tail = MatrixElement.unit(dims, last, last).scale(-sign)
        basis.append(MatrixElement.unit(dims, a, a) + tail)
    return basis


def same_span(xs: list[MatrixElement], ys: list[MatrixElement]) -> bool:
    ranks = [rank_rows(z.terms for z in zs) for zs in (xs, ys, [*xs, *ys])]
    return ranks[0] == ranks[1] == ranks[2]


@pytest.mark.parametrize("dims", [(n, m) for n in range(4) for m in range(4) if n or m])
def test_solved_sl_is_the_supertrace_zero_part_of_gl(dims):
    """sl(V) solved from the supertrace alone: |V|^2 - 1 elements, all of
    supertrace zero, so they span exactly the supertrace-zero matrices of
    gl(V) (a hyperplane there); the same span, and the same diagonal span,
    as the hand-built basis."""
    V = IndexRange(*dims)
    fam = build_family("sl", V)
    assert fam.dimension == V.size**2 - 1
    assert all(b.dims == V and b.supertrace() == 0 for b in fam.basis)
    hand = hand_built_sl_basis(V)
    assert same_span(fam.basis, hand)
    assert same_span(fam.diagonal_basis(), [b for b in hand if b.is_diagonal()])


def test_sl22_generating_subset():
    """The greedy generating subset of the solved sl(2|2): 4 of its 12
    off-diagonal elements."""
    fam = build_family("sl", IndexRange(2, 2))
    assert len([b for b in fam.basis if not b.is_diagonal()]) == 12
    assert len(fam.generators) == 4


@pytest.mark.parametrize("tag", ["pe", "spe"])
@pytest.mark.parametrize("n", [2, 3])
def test_block_factors_lie_in_the_family(tag, n):
    """The lower-block factors E[i',j] - E[j',i] and the raising-block ones
    E[i,j'] + E[j,i'], with which T7.2 builds its constructive elements,
    are elements of pe(n|n) and of spe(n|n)."""
    dims = IndexRange(n, n)
    tracker = basis_span(build_family(tag, dims))
    factors = yminus_factors(dims) + xplus_factors(dims)
    assert len(factors) == n * n
    assert all(tracker.contains(x.terms) for x in factors)


def test_pe_grading_weights():
    """Diagonal elements see the stated weights on the raising and lowering
    block generators."""
    n = 2
    dims = IndexRange(n, n)
    pe = build_family("pe", dims)
    diag = [b for b in pe.basis if b.is_diagonal()]
    # lower factors have weight -(eps_i + eps_j); raising ones +(eps_i + eps_j)
    for fac in yminus_factors(dims):
        for h in diag:
            br = h.bracket(fac)
            (r, c), v = next(iter(fac.terms.items()))
            expected = (
                h.terms.get((r, r), Fraction(0)) - h.terms.get((c, c), Fraction(0))
            )
            assert br.terms == fac.scale(expected).terms
    # the products carry the advertised total weights
    total_minus = {}
    for fac in yminus_factors(dims):
        (r, c), _ = next(iter(sorted(fac.terms.items())))
    # weight of the full lower product: -(n-1) sum eps_i, checked through a
    # diagonal element h = diag(a_i; -a_i)
    h = next(b for b in diag if b.terms)
    evals = []
    for fac in yminus_factors(dims):
        (r, c), _ = next(iter(sorted(fac.terms.items())))
        evals.append(
            h.terms.get((r, r), Fraction(0)) - h.terms.get((c, c), Fraction(0))
        )
    a = [h.terms.get((ev(i), ev(i)), Fraction(0)) for i in range(1, n + 1)]
    assert sum(evals) == -(n - 1) * sum(a)
    evals_plus = []
    for fac in xplus_factors(dims):
        (r, c), _ = next(iter(sorted(fac.terms.items())))
        evals_plus.append(
            h.terms.get((r, r), Fraction(0)) - h.terms.get((c, c), Fraction(0))
        )
    assert sum(evals_plus) == (n + 1) * sum(a)


def test_jacobi_superidentity_random():
    rng = random.Random(17)
    for tag, dims in [
        ("gl", (1, 1)),
        ("sl", (2, 1)),
        ("osp", (1, 2)),
        ("pe", (2, 2)),
        ("spe", (2, 2)),
    ]:
        fam = build_family(tag, IndexRange(*dims))
        for _ in range(60):
            x, y, z = (rng.choice(fam.basis) for _ in range(3))
            sxy = (-1) ** (x.parity * y.parity)
            sxz = (-1) ** (x.parity * z.parity)
            lhs = x.bracket(y.bracket(z))
            rhs = x.bracket(y).bracket(z) + y.bracket(x.bracket(z)).scale(sxy)
            assert lhs.terms == rhs.terms


def test_action_is_representation():
    """Bracket compatibility of the derivation action on polynomials."""
    rng = random.Random(19)
    fam = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(fam, 1, 1, 1, 1)
    monos = monomials_of_degree(alg, 2)
    cases = 0
    while cases < 100:
        x, y = rng.choice(fam.basis), rng.choice(fam.basis)
        f = Polynomial(alg, {rng.choice(monos): Fraction(rng.randint(1, 3))})
        lhs = act_on_polynomial(x.bracket(y), f)
        sign = (-1) ** (x.parity * y.parity)
        rhs = act_on_polynomial(x, act_on_polynomial(y, f)) - act_on_polynomial(
            y, act_on_polynomial(x, f)
        ).scale(sign)
        assert (lhs - rhs).is_zero()
        cases += 1


def test_leibniz_rule_random():
    rng = random.Random(29)
    fam = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(fam, 1, 1, 1, 1)
    monos = monomials_of_degree(alg, 2)
    for _ in range(100):
        x = rng.choice([b for b in fam.basis])
        f = Polynomial(alg, {rng.choice(monos): Fraction(1)})
        g = Polynomial(alg, {rng.choice(monos): Fraction(1)})
        pf = f.parity()
        lhs = act_on_polynomial(x, f * g)
        rhs = act_on_polynomial(x, f) * g + (f * act_on_polynomial(x, g)).scale(
            (-1) ** (x.parity * pf)
        )
        assert (lhs - rhs).is_zero()


def test_weight_action_examples():
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    E11 = MatrixElement.unit(IndexRange(1, 0), ev(1), ev(1))
    x = alg.gen(alg.index("uv", ev(1), ev(1)))
    xs = alg.gen(alg.index("vw", ev(1), ev(1)))
    assert act_on_polynomial(E11, x) == x
    assert act_on_polynomial(E11, xs) == xs.scale(-1)


def test_t1_matrices_count():
    assert len(t1_matrices(2)) == 2
    assert len(t1_matrices(3)) == 8
    for a in t1_matrices(3):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert a[(i, j)] + a[(j, i)] == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_yminus_expansion(n):
    rep = yminus_expansion(n)
    assert rep["term_count"] == 2 ** (n * (n - 1) // 2)
    assert rep["diff_corrected"].is_zero()
    assert not rep["diff_literal"].is_zero()


def test_yminus_base_case_sign():
    # the single product factor is E[1',2] - E[2',1]: the literal base case
    # assigns + to both admissible matrices and misses the minus
    rep = yminus_expansion(2)
    assert len(rep["diff_literal"].terms) == 1
    a_lower = {(1, 2): 0, (2, 1): 1}
    assert abs_exponent(a_lower, 2, "literal") == 0
    assert abs_exponent(a_lower, 2, "corrected") == 1


@pytest.mark.parametrize("n", [1, 0])
def test_abs_exponent_needs_two_letters(n):
    # the recursion's base case is n = 2; below it there is no matrix
    with pytest.raises(ValueError):
        abs_exponent({}, n, "corrected")


def test_action_dims_guard():
    fam = build_family("gl", IndexRange(1, 0))
    alg = algebra_for(fam, 1, 0, 1, 0)
    wrong = MatrixElement.unit(IndexRange(1, 1), ev(1), ev(1))
    with pytest.raises(ValueError):
        act_on_polynomial(wrong, alg.gen(0))
    # the weights are read from the same letters, so they refuse it too
    other = build_family("gl", IndexRange(1, 1))
    with pytest.raises(ValueError):
        diagonal_weights(other, alg)
    with pytest.raises(ValueError):
        invariant(other, [alg.gen(0)])


def test_form_annihilation_explicit():
    """The solved bases annihilate their defining covector tensors under the
    tensor action, not just the linear system they were solved from."""
    from superinv.liealgebras import invariant_form
    from superinv.tensors import TensorElement, act_on_tensor
    from fractions import Fraction

    for tag, dims, form_terms in [
        ("osp", IndexRange(1, 2), None),
        ("osp", IndexRange(2, 2), None),
        ("pe", IndexRange(2, 2), None),
        ("spe", IndexRange(2, 2), None),
    ]:
        fam = build_family(tag, dims)
        acc = {}
        for a, (b, c) in invariant_form(tag, dims).items():
            w = (a, b)
            acc[w] = acc.get(w, Fraction(0)) + c
        form = TensorElement(dims, (True, True), acc)
        for x in fam.basis:
            assert act_on_tensor(x, form).is_zero(), (tag, dims, x)


def reference_act(x, f):
    """The per-term derivation action: each factor is replaced by its image,
    read off the matrix entries (a column for x[r,i], a row with the dual
    sign -(-1)^{p(x)p(i)} for x*[i,s]), and every new word is sorted into
    normal form by insertion sort."""
    algebra = f.algebra
    parities = algebra.parities
    out = algebra.zero()
    for mono, coeff in f.terms.items():
        left_parity = 0
        for pos, gen in enumerate(mono):
            sign = (-1) ** (x.parity * left_parity)
            g = algebra.generator(gen)
            if g.family == "uv":
                u_sign = (-1) ** (x.parity * g.row.parity)
                images = [
                    (algebra.maybe_index("uv", g.row, r), v * u_sign)
                    for (r, c), v in x.terms.items()
                    if c == g.col
                ]
            else:
                dual_sign = -((-1) ** (x.parity * g.row.parity))
                images = [
                    (algebra.maybe_index("vw", c, g.col), v * dual_sign)
                    for (r, c), v in x.terms.items()
                    if r == g.row
                ]
            for idx, v in images:
                if idx is None:
                    continue
                new = mono[:pos] + (idx,) + mono[pos + 1 :]
                norm = normalize_product(new, parities)
                if norm is not None:
                    out.terms[norm[1]] = out.terms.get(norm[1], 0) + coeff * v * sign * norm[0]
            left_parity = (left_parity + parities[gen]) % 2
    return Polynomial(algebra, out.terms)


_ACTION_FAMILIES = [
    ("gl", (1, 1)),
    ("gl", (2, 1)),
    ("sl", (2, 1)),
    ("osp", (1, 2)),
    ("pe", (2, 2)),
    ("spe", (2, 2)),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ACTION_FAMILIES), st.tuples(*[st.integers(0, 2)] * 4), st.data())
def test_action_matches_the_per_term_reference(family_dims, pqkl, data):
    """act_on_polynomial, and the batched packed walk of 1 to 3 elements of
    mixed parity (`action_table`), equal the per-term reference slot by slot
    on random polynomials of degree up to 6, with repeated even factors and
    runs of odd ones, and int and Fraction coefficients; every integral
    coefficient stays an int, and `annihilates` reads the packed images as
    zero exactly when every unpacked one is."""
    tag, dims = family_dims
    fam = build_family(tag, IndexRange(*dims))
    alg = algebra_for(fam, *pqkl)
    parities = sorted({b.parity for b in fam.basis})
    xs = []
    for _ in range(data.draw(st.integers(1, 3))):
        # a combination of the basis elements of one parity, diagonal ones included
        parity = data.draw(st.sampled_from(parities))
        same = [b for b in fam.basis if b.parity == parity]
        x = same[0]
        for b in same[1:]:
            x = x + b.scale(data.draw(st.integers(-2, 2)))
        xs.append(x)
    x = xs[0]
    # an algebra without generators has only the constant monomial
    monos = monomials_of_degree(alg, data.draw(st.integers(0, 6))) or [()]
    coeff = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    terms = data.draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=6))
    f = Polynomial(alg, terms)
    got = act_on_polynomial(x, f)
    assert got == reference_act(x, f)
    assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)
    batched = polynomial_images(action_table(xs, alg), f)
    assert batched == [reference_act(y, f) for y in xs]
    assert all(type(c) is int for g in batched for c in g.terms.values() if c.denominator == 1)
    assert annihilates(AlgebraFamily(tag, fam.dims, xs), [f]) == all(g.is_zero() for g in batched)


def test_action_needs_an_inner_action():
    """Generators without an inner action are refused when a term uses
    them; the zero polynomial acts to zero."""
    alg = make_uw_algebra(IndexRange(1, 0), IndexRange(1, 0))
    x = MatrixElement.unit(IndexRange(1, 0), ev(1), ev(1))
    assert act_on_polynomial(x, alg.zero()).is_zero()
    with pytest.raises(ValueError, match="inner action"):
        act_on_polynomial(x, alg.gen(0))
    with pytest.raises(ValueError, match="inner action"):
        act_through_images(action_table([x, x], alg), alg, alg.gen(0).terms)


def _high_power(alg, factors):
    """The monomial of the given (family, row, col, exponent) factors."""
    mono = []
    for family, row, col, e in factors:
        mono += [alg.index(family, row, col)] * e
    return Polynomial(alg, {tuple(sorted(mono)): 1})


@pytest.mark.parametrize(
    "tag, dims, pqkl, factors",
    [
        # x[1,1]^300 x*[2,1]: degree 301, exponents past one byte
        ("gl", (2, 0), (1, 0, 1, 0), [("uv", ev(1), ev(1), 300), ("vw", ev(2), ev(1), 1)]),
        # even exponents 300 and 256 between odd factors, degree 558
        (
            "gl",
            (1, 1),
            (1, 0, 1, 1),
            [
                ("uv", ev(1), ev(1), 300),
                ("uv", ev(1), od(1), 1),
                ("uv", od(1), ev(1), 1),
                ("vw", ev(1), ev(1), 256),
                ("vw", od(1), ev(1), 1),
            ],
        ),
    ],
)
def test_action_on_exponents_past_one_byte(tag, dims, pqkl, factors):
    """The packed field is as wide as the degree needs: every basis element
    acts on a monomial with exponents of 256 and more as the per-term
    reference does, one at a time and all in one walk."""
    fam = build_family(tag, IndexRange(*dims))
    alg = algebra_for(fam, *pqkl)
    f = _high_power(alg, factors)
    expected = [reference_act(x, f) for x in fam.basis]
    assert any(not g.is_zero() for g in expected)
    assert [act_on_polynomial(x, f) for x in fam.basis] == expected
    assert polynomial_images(action_table(fam.basis, alg), f) == expected
