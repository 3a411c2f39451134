"""Wider spot checks beyond the acceptance sizes: second parameter sets for
the operator machinery and bigger families for the generation oracle."""

from fractions import Fraction

import pytest

from superinv.alphabet import IndexRange, all_words, ev
from superinv.generators import scalar_products
from superinv.invariants import algebra_for, check_generation
from superinv.liealgebras import MatrixElement, build_family
from superinv.tensors import (
    TensorElement,
    act_on_tensor,
    apply_group_algebra,
    invariant_operator,
    operator_setup,
    plain_word,
    sl_invariant_element,
)
from superinv.permutations import young_symmetrizer


def test_operator_constant_uniform_at_2_1():
    V = IndexRange(2, 1)
    setup = operator_setup(V, 1)
    et = young_symmetrizer(setup.t, "plain")
    constants = set()
    for L in all_words(V, setup.m * (setup.n + 1)):
        w = TensorElement.from_word(V, plain_word(L))
        rhs = invariant_operator(setup, w)
        lhs = invariant_operator(setup, apply_group_algebra(et, w))
        if rhs.is_zero():
            assert lhs.is_zero()
            continue
        wd = next(iter(rhs.terms))
        c = Fraction(lhs.terms.get(wd, 0), rhs.terms[wd])
        assert rhs.scale(c) == lhs
        constants.add(c)
    assert len(constants) == 1


@pytest.mark.parametrize("dims", [(2, 1)])
@pytest.mark.parametrize("hat", [False, True])
def test_sl_elements_at_2_1(dims, hat):
    V = IndexRange(*dims)
    sl = build_family("sl", V)
    el = sl_invariant_element(V, 1, hat)
    assert el
    assert all(act_on_tensor(x, el).is_zero() for x in sl.basis)
    E11 = MatrixElement.unit(V, ev(1), ev(1))
    assert not act_on_tensor(E11, el).is_zero()


def test_gl_generation_2_2():
    fam = build_family("gl", IndexRange(2, 2))
    alg = algebra_for(fam, 1, 1, 1, 1)
    gens = scalar_products("gl", alg)
    for v in check_generation(fam, alg, gens, [1, 2, 3]):
        assert v.equal


def test_osp_generation_2_2():
    fam = build_family("osp", IndexRange(2, 2))
    alg = algebra_for(fam, 1, 1, 0, 0)
    gens = [g for g in scalar_products("osp", alg) if g]
    for v in check_generation(fam, alg, gens, [2, 4]):
        assert v.equal


def test_pe_generation_3_3():
    fam = build_family("pe", IndexRange(3, 3))
    alg = algebra_for(fam, 1, 1, 0, 0)
    gens = [g for g in scalar_products("pe", alg) if g]
    for v in check_generation(fam, alg, gens, [2, 3, 4]):
        assert v.equal


def test_sl_second_level_completeness():
    """Degree six opens a gap that the first extra family cannot close; the
    second level closes it exactly."""
    from superinv.generators import sl_extra_generators

    sl = build_family("sl", IndexRange(1, 1))
    alg = algebra_for(sl, 1, 1, 1, 1)
    gens = scalar_products("sl", alg)
    f1 = sl_extra_generators(alg, 1)
    with_f1 = check_generation(sl, alg, gens + f1.plus + f1.minus, [6])[0]
    assert with_f1.verdict == "strict-subspace"
    assert (with_f1.oracle_dim, with_f1.generated_dim) == (36, 28)
    f2 = sl_extra_generators(alg, 2)
    with_f2 = check_generation(
        sl, alg, gens + f1.plus + f1.minus + f2.plus + f2.minus, [6]
    )[0]
    assert with_f2.equal and with_f2.oracle_dim == 36


def test_spe_generation_tower_degree_eight():
    """Over the all-odd letter space the level tower closes each even
    degree: scalars, the level-zero shadows, then one new level per step."""
    from superinv.generators import scalar_products as sps, spe_ppf_polynomials

    spe = build_family("spe", IndexRange(2, 2))
    alg = algebra_for(spe, 0, 2, 0, 0)
    gens = [g for g in sps("spe", alg) if g]
    for level in (0, 1):
        gens.extend(spe_ppf_polynomials(alg, spe, level, 1))
    v8 = check_generation(spe, alg, gens, [8])[0]
    assert v8.verdict == "strict-subspace"  # level two is genuinely needed
    gens.extend(spe_ppf_polynomials(alg, spe, 2, 1))
    v8b = check_generation(spe, alg, gens, [8])[0]
    assert v8b.equal and v8b.oracle_dim == 1


def test_nabla_at_2_2():
    """The second orthosymplectic size: the row-paired input is essential
    (the plain tensor power dies under the operator here) and the relative
    generators close every degree."""
    from superinv.generators import osp_relative_generators
    from superinv.liealgebras import act_on_polynomial
    from superinv.tensors import nabla_construct

    V = IndexRange(2, 2)
    osp = build_family("osp", V)
    nab = nabla_construct(V)
    assert nab and all(act_on_tensor(x, nab).is_zero() for x in osp.basis)
    E11 = MatrixElement.unit(V, ev(1), ev(1))
    assert not act_on_tensor(E11, nab).is_zero()
    alg = algebra_for(osp, 2, 1, 0, 0)
    rel = osp_relative_generators(alg, nab)
    assert len(rel) == 4
    assert all(act_on_polynomial(x, f).is_zero() for f in rel for x in osp.basis)
    gens = [g for g in scalar_products("osp", alg) if g] + rel
    for v in check_generation(osp, alg, gens, [1, 2, 3, 4, 5, 6]):
        assert v.equal, v.degree
