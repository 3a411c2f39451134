from fractions import Fraction
from functools import cache

import pytest

from superinv import generators, named_polynomials, permutations, tensors
from superinv.alphabet import IndexRange, all_words, ev, od
from superinv.invariants import algebra_for
from superinv.liealgebras import act_on_polynomial, build_family
from superinv.linalg import rank_rows
from superinv.named_polynomials import P_t, Z_combination
from superinv.tableaux import enumerate_semistandard
from superinv.generators import (
    _dual_letters,
    _t2_weights,
    mixed_shadow,
    nonzero_shadows,
    osp_relative_generators,
    scalar_product,
    scalar_products,
    sl_extra_generators,
    sl_extra_literal,
    spe_closed_form_element,
    spe_constructive_element,
    spe_ppf_literal,
    spe_ppf_polynomials,
    t2_tableaux,
)
from superinv.tensors import (
    TensorElement,
    act_on_tensor,
    blocked_odds,
    nabla_construct,
    plain_word,
    repeated_evens,
    split_cols_tableau,
    split_rows_tableau,
)


def t2_filter_oracle(n):
    """Constraint-filter count over all words of the square length; used to
    validate the pairwise enumeration."""
    v_range = IndexRange(n, n)
    count = 0
    for w in all_words(v_range, n * n):
        grid = {}
        ok = True
        pos = 0
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                grid[(i, j)] = w[pos]
                pos += 1
        for i in range(1, n + 1):
            if grid[(i, i)] != od(i):
                ok = False
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if grid[(i, j)] not in (ev(i), od(j)):
                    ok = False
                if grid[(j, i)] != grid[(i, j)].conjugate():
                    ok = False
        if ok:
            count += 1
    return count


def assert_all_annihilated(family, polys):
    for f in polys:
        for x in family.basis:
            assert act_on_polynomial(x, f).is_zero()


def test_gl_scalar_products_count_and_invariance():
    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 1, 1, 1, 1)
    gens = scalar_products("gl", alg)
    assert len(gens) == 4
    assert_all_annihilated(fam, gens)


def test_osp_scalar_products_invariance():
    for dims, wdims in [((1, 2), (2, 1)), ((2, 2), (1, 1))]:
        fam = build_family("osp", IndexRange(*dims))
        alg = algebra_for(fam, wdims[0], wdims[1], 0, 0)
        gens = scalar_products("osp", alg)
        assert_all_annihilated(fam, gens)


def test_osp_odd_selfpair_vanishes():
    fam = build_family("osp", IndexRange(1, 2))
    alg = algebra_for(fam, 0, 1, 0, 0)
    f = scalar_product("osp", alg, od(1), od(1))
    assert f.is_zero()


def test_pe_scalar_products_invariance():
    for n in (1, 2):
        fam = build_family("pe", IndexRange(n, n))
        alg = algebra_for(fam, 2, 1, 0, 0)
        gens = scalar_products("pe", alg)
        assert_all_annihilated(fam, gens)


def test_scalar_products_unknown_family():
    fam = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(fam, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        scalar_products("xx", alg)


def test_sl_extra_generators_invariant_and_new():
    sl = build_family("sl", IndexRange(1, 1))
    alg = algebra_for(sl, 1, 1, 1, 1)
    extra = sl_extra_generators(alg, 1)
    assert len(extra.plus) == 4 and len(extra.minus) == 4
    assert_all_annihilated(sl, extra.plus + extra.minus)
    base = scalar_products("sl", alg)
    squares = [a * b for a in base for b in base]
    with_f = rank_rows(f.terms for f in squares + extra.plus + extra.minus)
    without = rank_rows(f.terms for f in squares)
    assert with_f > without


def test_sl_literal_plus_matches_canonical():
    sl = build_family("sl", IndexRange(1, 1))
    alg = algebra_for(sl, 1, 1, 1, 1)
    canonical = sl_extra_generators(alg, 1)
    literal = sl_extra_literal(alg, 1)
    assert canonical.plus == literal.plus
    # the quoted minus-family signs break invariance: documented divergence
    assert any(
        not act_on_polynomial(x, f).is_zero()
        for f in literal.minus
        for x in sl.basis
    )


def test_osp_relative_generators():
    V = IndexRange(1, 2)
    osp = build_family("osp", V)
    nab = nabla_construct(V)
    alg = algebra_for(osp, 1, 0, 0, 0)
    rel = osp_relative_generators(alg, nab)
    assert len(rel) == 1
    assert_all_annihilated(osp, rel)
    assert rel[0].degree() == 3


def test_t2_enumeration_matches_filter():
    assert len(t2_tableaux(2)) == t2_filter_oracle(2) == 2
    for datum in t2_tableaux(2):
        assert datum.word[0] == od(1)  # diagonal entry of the first column
        assert datum.word[3] == od(2)


def test_t2_structure_n3():
    data = t2_tableaux(3)
    assert len(data) == 8
    for d in data:
        # conjugate mirror pairs
        grid = {}
        pos = 0
        for j in range(1, 4):
            for i in range(1, 4):
                grid[(i, j)] = d.word[pos]
                pos += 1
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert grid[(j, i)] == grid[(i, j)].conjugate()


def test_spe_constructive_invariance():
    spe = build_family("spe", IndexRange(2, 2))
    for kind in ("lower", "raise"):
        el = spe_constructive_element(spe, 1, kind)
        assert el
        assert all(act_on_tensor(x, el).is_zero() for x in spe.basis)


def test_spe_closed_form_conventions():
    V = IndexRange(2, 2)
    spe = build_family("spe", V)
    for kind in ("lower", "raise"):
        for k in (1, 2):
            w = spe_constructive_element(spe, k, kind)
            corrected = spe_closed_form_element(V, k, kind, "corrected")
            wd = next(iter(w.terms))
            ratio = Fraction(w.terms[wd], corrected.terms[wd])
            assert corrected.scale(ratio) == w
    # the printed tail sign diverges beyond the first level
    printed = spe_closed_form_element(V, 2, "lower", "printed")
    w2 = spe_constructive_element(spe, 2, "lower")
    wd = next(iter(w2.terms))
    assert printed.terms.get(wd) is None or printed.scale(
        Fraction(w2.terms[wd], printed.terms[wd])
    ) != w2


def test_spe_ppf_polynomials_invariant():
    spe = build_family("spe", IndexRange(2, 2))
    alg = algebra_for(spe, 2, 2, 0, 0)
    for sign in (1, -1):
        fam = spe_ppf_polynomials(alg, spe, 1, sign)
        assert fam
        assert_all_annihilated(spe, fam)


@cache
def _spe22_constructive(k, kind):
    return spe_constructive_element(build_family("spe", IndexRange(2, 2)), k, kind)


# level -2 pairs the 14,000-word reference tensor against every J
@pytest.mark.parametrize("level", [0, 1, 2, -1, pytest.param(-2, marks=pytest.mark.slow)])
@pytest.mark.parametrize("wdims", [(2, 2), (2, 1), (1, 2), (0, 2), (3, 1)])
def test_spe_ppf_polynomials_match_the_constructive_shadows(level, wdims):
    """Pairing the symmetrized seed and then acting with the route's
    factors gives, J by J, the shadows of the constructive tensor."""
    spe = build_family("spe", IndexRange(2, 2))
    alg = algebra_for(spe, *wdims, 0, 0)
    k = abs(level)
    if level >= 0:
        t, element = split_rows_tableau(2, 2, k), _spe22_constructive(k, "lower")
    else:
        t, element = split_cols_tableau(2, 2, k + 1), _spe22_constructive(k + 1, "raise")
    reference = nonzero_shadows(alg, _dual_letters(element, t.size), t)
    assert spe_ppf_polynomials(alg, spe, k, 1 if level >= 0 else -1) == reference


def test_mixed_shadow_lengths_guard():
    sl = build_family("sl", IndexRange(1, 1))
    alg = algebra_for(sl, 1, 1, 1, 1)
    from superinv.tensors import sl_invariant_element

    el = sl_invariant_element(IndexRange(1, 1), 1, hat=False)
    with pytest.raises(ValueError):
        mixed_shadow(alg, el, (ev(1),), (ev(1), ev(1)))


# -- the literal spe family: one symmetrizer application per level ---------


def _catalog_spe_algebra():
    """The T7.3 catalog defaults: spe(2|2) with w-letters (2|2)."""
    return algebra_for(build_family("spe", IndexRange(2, 2)), 2, 2, 0, 0)


def _reference_literal(algebra, k, sign_k):
    """The quoted sum term by term: one P_t call per (square tableau, J),
    yielded for every semistandard J in enumeration order."""
    n = algebra.v_range.even_count
    if sign_k > 0:
        t, tail, level = split_rows_tableau(n, n, k), blocked_odds(n, k), k - 1
    else:
        t, tail, level = split_rows_tableau(n, n, k + 1), repeated_evens(n, k + 1), 0
    for J in enumerate_semistandard(t, algebra.w_range):
        f = algebra.zero()
        for datum in t2_tableaux(n):
            m_L, eps_exp, mult = _t2_weights(datum, n, level)
            expo = eps_exp + ((k - 1) * m_L if sign_k > 0 else 0)
            term = P_t(algebra, t, datum.word + tail, J, variant="plain", family="vw")
            f = f + term.scale((-1) ** expo * mult)
        yield f


@pytest.mark.parametrize("k", [1, 2])
def test_spe_ppf_literal_matches_per_tableau_sum_every_J(k):
    # at k = 2 the level weights m_1(L) and the sign (-1)^{m(L)} show; at
    # k = 1 both are trivial
    alg = _catalog_spe_algebra()
    expected = [f for f in _reference_literal(alg, k, 1) if f]
    got = spe_ppf_literal(alg, k, 1)
    assert expected and got == expected
    assert all(type(c) is int for f in got for c in f.terms.values())


def test_spe_ppf_literal_matches_per_tableau_sum_at_minus():
    # at n = 2 the level -1 tensor is killed by its (2,2,2,2) symmetrizer:
    # the literal family is empty, and so is the reference on the first J
    alg = _catalog_spe_algebra()
    assert spe_ppf_literal(alg, 1, -1) == []
    reference = _reference_literal(alg, 1, -1)
    assert [next(reference).is_zero() for _ in range(2)] == [True, True]


def test_symmetrized_combination_pairs_like_p_t():
    """The identity behind the one-application form: a combination of P_t
    values is the shadow of the symmetrized combination of dual words."""
    alg = _catalog_spe_algebra()
    V = alg.v_range
    t = split_rows_tableau(2, 2, 2)  # (2,2,2,2), 9,216 symmetrizer terms
    words = [
        (od(1), ev(2), od(2), ev(1), ev(1), od(2), ev(2), od(1)),
        (ev(1), od(1), od(2), ev(2), od(1), ev(2), ev(1), od(2)),
    ]
    coeffs = [3, -2]
    combined = TensorElement(V, (True,) * 8, dict(zip(words, coeffs)))
    symmetrized = tensors.apply_group_algebra(permutations.young_symmetrizer(t), combined)
    Js = [
        (ev(1), ev(1), ev(2), ev(2), od(1), od(1), od(2), od(2)),
        (ev(1), ev(2), od(1), od(1), od(1), od(2), od(2), od(2)),
    ]
    nonzero = 0
    for J in Js:
        expected = alg.zero()
        for I, c in zip(words, coeffs):
            expected = expected + P_t(alg, t, I, J, variant="plain", family="vw").scale(c)
        assert Z_combination(alg, _dual_letters(symmetrized, len(J)), J, "vw") == expected
        nonzero += bool(expected)
    assert nonzero


def test_spe_ppf_literal_symmetrizes_once_per_level(monkeypatch):
    calls = []
    original = permutations.symmetrize

    def counting(t, *args, **kwargs):
        calls.append(t.shape)
        return original(t, *args, **kwargs)

    for module in (permutations, named_polynomials, tensors, generators):
        if hasattr(module, "symmetrize"):
            monkeypatch.setattr(module, "symmetrize", counting)
    alg = _catalog_spe_algebra()
    for sign_k in (1, -1):
        calls.clear()
        spe_ppf_literal(alg, 1, sign_k)
        assert len(calls) == 1


def test_dual_shadow_guards():
    alg = _catalog_spe_algebra()
    V = IndexRange(2, 2)
    covariant = TensorElement.from_word(V, plain_word((ev(1), od(1))))
    with pytest.raises(ValueError):
        _dual_letters(covariant, 2)
    dual = TensorElement(V, (True, True), {(ev(1), od(1)): 1})
    with pytest.raises(ValueError):
        _dual_letters(dual, 1)
    J = (ev(1), ev(2))
    assert Z_combination(alg, _dual_letters(dual, len(J)), J, "vw") == named_polynomials.Z_of(
        alg, (ev(1), od(1)), (ev(1), ev(2)), family="vw"
    )
