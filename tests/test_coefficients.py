"""One coefficient rule for every sparse container: `int` while integral,
`Fraction` only after a non-integral scale or division, floats refused."""

from fractions import Fraction

import pytest

from superinv import coefficients, liealgebras, permutations, polynomials, tensors
from superinv.alphabet import IndexRange, ev, od
from superinv.coefficients import SparseElement, exact
from superinv.generators import spe_ppf_polynomials
from superinv.invariants import algebra_for, invariant_space_bruteforce
from superinv.liealgebras import MatrixElement, act_on_polynomial, build_family
from superinv.polynomials import Polynomial, make_mixed_algebra
from superinv.permutations import GroupAlgebraElement, Permutation
from superinv.tensors import TensorElement, act_on_tensor, plain_word, theta_power

V = IndexRange(1, 1)


def _types(terms):
    return {type(c) for c in terms.values()}


CONTAINERS = (Polynomial, TensorElement, GroupAlgebraElement, MatrixElement)
CORE = ("__add__", "__sub__", "scale", "__eq__", "__bool__", "is_zero", "__str__")


def test_one_core_shared_by_the_containers():
    assert not hasattr(permutations, "_exact")
    for module in (permutations, polynomials):
        assert module.exact is coefficients.exact
    # every container constructor normalizes through the one shared rule
    for module in (permutations, polynomials, liealgebras, tensors):
        assert module.normalized is coefficients.normalized
    for cls in CONTAINERS:
        assert issubclass(cls, SparseElement)
        assert not set(CORE) & set(vars(cls)), cls


def _pairs_across_spaces():
    """(element, element of another space) for each container."""
    a, b = make_mixed_algebra(V, V, V), make_mixed_algebra(V, V, V)
    w = plain_word((ev(1), od(1)))
    perm = Permutation.identity
    yield a.gen(0), b.gen(0)
    yield TensorElement.from_word(V, w), TensorElement(V, (True, False), {w: 1})
    yield TensorElement.from_word(V, w), TensorElement.from_word(IndexRange(2, 1), w)
    yield GroupAlgebraElement(2, {perm(2): 1}), GroupAlgebraElement(3, {perm(3): 1})
    yield MatrixElement.unit(V, ev(1), ev(1)), MatrixElement.unit(IndexRange(2, 0), ev(2), ev(2))
    yield MatrixElement.unit(V, ev(1), ev(1)), MatrixElement.unit(V, ev(1), od(1))


@pytest.mark.parametrize(
    "x, y", list(_pairs_across_spaces()),
    ids=["algebra", "signature", "tensor-dims", "degree", "matrix-dims", "parity"],
)
def test_sum_across_spaces_raises(x, y):
    for op in (x.__add__, x.__sub__):
        with pytest.raises(ValueError, match="different spaces"):
            op(y)
    assert x != y and x - x == x.scale(0) and not x.scale(0) and x.scale(0).is_zero()
    assert str(x.scale(0)) == "0" and str(x.scale(-2)).startswith("- 2*")


def test_core_printing():
    alg = make_mixed_algebra(V, V, V)
    assert str(alg.gen(1) - alg.gen(0).scale(Fraction(1, 2))) == "- 1/2*x[1,1] + 1*x[1,1']"
    w = plain_word((ev(1), od(1)))
    assert repr(TensorElement.from_word(V, w, 3)) == "3*e[1]@e[1']"
    swap = Permutation.transposition(2, 0, 1)
    assert str(GroupAlgebraElement(2, {swap: -1})) == "- 1*Perm(1, 0)"
    assert str(MatrixElement.unit(V, ev(1), od(1))) == "1*E[1,1']"


def test_exact():
    assert type(exact(3)) is int
    assert type(exact(Fraction(6, 3))) is int
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (0.5, 2.0, 1j):
        with pytest.raises(TypeError):
            exact(bad)


def test_polynomial_coefficients():
    alg = make_mixed_algebra(V, V, V)
    f = alg.gen(0) + alg.gen(1).scale(3)
    g = f * f + alg.one()
    for p in (f, g, f - g, f.scale(Fraction(4, 2))):
        assert _types(p.terms) == {int}
    half = f.scale(Fraction(1, 2))
    assert _types(half.terms) == {Fraction}
    assert _types(half.scale(2).terms) == {int} and half.scale(2) == f
    assert _types((half * half.scale(4)).terms) == {int}
    h = alg.zero()
    h.add_term((1, 0), Fraction(3, 3))
    assert _types(h.terms) == {int}
    for bad in (
        lambda: Polynomial(alg, {(0,): 0.5}),
        lambda: f.scale(2.0),
        lambda: alg.zero().add_term((0,), 1.0),
    ):
        with pytest.raises(TypeError):
            bad()


def test_tensor_coefficients():
    w = plain_word((ev(1), od(1)))
    t = TensorElement.from_word(V, w, 2)
    assert _types(t.terms) == {int}
    assert _types(theta_power(V, 2, hat=True).terms) == {int}
    assert _types((t + t.scale(-3)).terms) == {int}
    third = t.scale(Fraction(1, 3))
    assert _types(third.terms) == {Fraction}
    assert _types(third.scale(6).terms) == {int}
    x = MatrixElement.unit(V, ev(1), od(1))
    assert _types(act_on_tensor(x, theta_power(V, 2)).terms) <= {int}
    for bad in (
        lambda: TensorElement.from_word(V, w, 0.5),
        lambda: TensorElement(V, (False, False), {w: 1.0}),
        lambda: t.scale(2.0),
    ):
        with pytest.raises(TypeError):
            bad()


def test_matrix_coefficients():
    x = MatrixElement.unit(V, ev(1), ev(1))
    assert _types(x.terms) == {int}
    for fam in (build_family("spe", IndexRange(2, 2)), build_family("osp", IndexRange(1, 2))):
        for b in fam.basis:
            assert _types(b.terms) == {int}
            assert _types(b.bracket(fam.basis[0]).terms) <= {int}
    half = x.scale(Fraction(1, 2))
    assert _types(half.terms) == {Fraction}
    assert _types((half + half).terms) == {int}
    for bad in (
        lambda: MatrixElement(V, {(ev(1), ev(1)): 0.5}, 0),
        lambda: x.scale(2.0),
    ):
        with pytest.raises(TypeError):
            bad()


def test_claim_paths_stay_integral():
    fam = build_family("spe", IndexRange(2, 2))
    alg = algebra_for(fam, 0, 2, 0, 0)
    shadows = spe_ppf_polynomials(alg, fam, 1, 1)
    assert shadows
    for f in shadows:
        assert _types(f.terms) == {int}
        for x in fam.basis:
            assert _types(act_on_polynomial(x, f).terms) <= {int}
    # the oracle's nullspace basis is normalised to a free coordinate of 1
    space = invariant_space_bruteforce(
        build_family("gl", V), algebra_for(build_family("gl", V), 1, 1, 1, 1), 2
    )
    for f in space.basis:
        assert all(type(c) is int or c.denominator != 1 for c in f.terms.values())
