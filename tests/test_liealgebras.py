import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, ev
from superinv.liealgebras import (
    MatrixElement,
    abs_exponent,
    act_on_polynomial,
    build_family,
    t1_matrices,
    yminus_expansion,
    yminus_factors,
)
from superinv.invariants import algebra_for
from superinv.linalg import SpanTracker
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
    """act_on_polynomial equals the per-term reference on random
    polynomials with int and Fraction coefficients, for even and odd
    elements, and keeps every integral coefficient an int."""
    tag, dims = family_dims
    fam = build_family(tag, IndexRange(*dims))
    alg = algebra_for(fam, *pqkl)
    parity = data.draw(st.sampled_from(sorted({b.parity for b in fam.basis})))
    same = [b for b in fam.basis if b.parity == parity]
    x = same[0]
    for b in same[1:]:
        x = x + b.scale(data.draw(st.integers(-2, 2)))
    # an algebra without generators has only the constant monomial
    monos = monomials_of_degree(alg, data.draw(st.integers(0, 3))) or [()]
    coeff = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    terms = data.draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=6))
    f = Polynomial(alg, terms)
    got = act_on_polynomial(x, f)
    assert got == reference_act(x, f)
    assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)


def test_action_needs_an_inner_action():
    """Generators without an inner action are refused when a term uses
    them; the zero polynomial acts to zero."""
    alg = make_uw_algebra(IndexRange(1, 0), IndexRange(1, 0))
    x = MatrixElement.unit(IndexRange(1, 0), ev(1), ev(1))
    assert act_on_polynomial(x, alg.zero()).is_zero()
    with pytest.raises(ValueError, match="inner action"):
        act_on_polynomial(x, alg.gen(0))
