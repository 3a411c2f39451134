import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.alphabet import IndexRange, all_words, ev, od
from superinv.liealgebras import MatrixElement, build_family, invariant_form
from superinv.permutations import (
    GroupAlgebraElement,
    Permutation,
    cocycle_sign,
    symmetrize,
    young_symmetrizer,
)
from superinv.tableaux import Partition, enumerate_standard_tableaux, fill_rows
from superinv.tensors import (
    TensorElement,
    act_on_tensor,
    apply_group_algebra,
    contraction_D,
    invariant_operator,
    marked_tableau_operator,
    nabla_closed_form_report,
    nabla_construct,
    nabla_support_words,
    operator_setup,
    pair_dual_against,
    plain_word,
    repeated_evens,
    sl_invariant_element,
    slot_permute,
    split_cols_tableau,
    symmetrize_element,
    tensor_invariant_space,
    theta,
    theta_power,
    theta_tilde_2,
)

V11 = IndexRange(1, 1)


def test_theta_small():
    th = theta(IndexRange(1, 0))
    assert th.signature == (False, True)
    assert th.terms == {(ev(1), ev(1)): Fraction(1)}


def test_theta_hat_signs():
    th = theta(V11, hat=True)
    assert th.signature == (True, False)
    assert th.terms == {
        (ev(1), ev(1)): Fraction(1),
        (od(1), od(1)): Fraction(-1),
    }


@pytest.mark.parametrize("hat", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_theta_power_matches_shuffle(hat, k):
    """Oracle: tensor the rank-one element k times and reshuffle the slots
    into block order with explicit Koszul signs."""
    base = theta(V11, hat)
    prod = base
    for _ in range(k - 1):
        prod = prod.tensor(base)
    # interleaved slots (a1 b1 a2 b2 ...) -> blocks (a1 a2 ... b1 b2 ...)
    images = [0] * (2 * k)
    for i in range(k):
        images[2 * i] = i
        images[2 * i + 1] = k + i
    shuffled = slot_permute(prod, Permutation(tuple(images)))
    assert shuffled == theta_power(V11, k, hat)


def test_slot_permute_zero_element_moves_its_signature():
    """The permuted signature comes from the permutation, not from a moved
    word, so a zero element lands in the same space as a nonzero one."""
    swap = Permutation((1, 0))
    zero = TensorElement(V11, (False, True))
    moved = slot_permute(zero, swap)
    assert moved.is_zero() and moved.signature == (True, False)
    assert slot_permute(theta(V11), swap) + moved == slot_permute(theta(V11), swap)


def test_theta_powers_invariant():
    for dims in [(1, 1), (2, 1), (2, 2)]:
        gl = build_family("gl", IndexRange(*dims))
        for k in (1, 2, 3):
            for hat in (False, True):
                el = theta_power(IndexRange(*dims), k, hat)
                assert all(act_on_tensor(x, el).is_zero() for x in gl.basis)


def test_gl_weight_action():
    one = IndexRange(1, 0)
    E11 = MatrixElement.unit(one, ev(1), ev(1))
    w = TensorElement.from_word(one, plain_word((ev(1), ev(1))))
    assert act_on_tensor(E11, w) == w.scale(2)


def test_action_bracket_compatibility():
    rng = random.Random(7)
    gl = build_family("gl", V11)
    words = list(all_words(V11, 3))
    for _ in range(100):
        x, y = rng.choice(gl.basis), rng.choice(gl.basis)
        w = TensorElement(V11, (False, False, True), {rng.choice(words): 1})
        sign = (-1) ** (x.parity * y.parity)
        lhs = act_on_tensor(x.bracket(y), w)
        rhs = act_on_tensor(x, act_on_tensor(y, w)) - act_on_tensor(
            y, act_on_tensor(x, w)
        ).scale(sign)
        assert (lhs - rhs).is_zero()


def reference_act_on_tensor(x, element):
    """The per-slot derivation action read off the matrix entries: a vector
    slot c goes to the sum of x[r,c] e_r, a covector slot r to
    -(-1)^{p(x)p(r)} times the sum of x[r,c] e_c*, each with the sign
    (-1)^{p(x) p(slots before it)}."""
    out = {}
    for w, coeff in element.terms.items():
        for pos, (letter, dual) in enumerate(zip(w, element.signature)):
            sign = (-1) ** (x.parity * sum(i.parity for i in w[:pos]))
            for (r, c), v in x.terms.items():
                if dual and r == letter:
                    target, v = c, v * -((-1) ** (x.parity * r.parity))
                elif not dual and c == letter:
                    target = r
                else:
                    continue
                nw = w[:pos] + (target,) + w[pos + 1 :]
                out[nw] = out.get(nw, 0) + coeff * v * sign
    return TensorElement(element.dims, element.signature, out)


_TENSOR_FAMILIES = [
    ("gl", (1, 1)),
    ("gl", (2, 1)),
    ("gl", (1, 2)),
    ("osp", (1, 2)),
    ("pe", (1, 1)),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_TENSOR_FAMILIES), st.lists(st.booleans(), min_size=1, max_size=4), st.data())
def test_act_on_tensor_matches_the_per_slot_reference(family_dims, signature, data):
    """act_on_tensor equals the per-slot reference for every basis element,
    odd ones included, on random mixed-signature elements with int and
    Fraction coefficients, and keeps every integral coefficient an int."""
    tag, dims = family_dims
    V = IndexRange(*dims)
    letters = st.sampled_from(V.indices())
    words = st.lists(letters, min_size=len(signature), max_size=len(signature)).map(tuple)
    coeff = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    element = TensorElement(V, tuple(signature), data.draw(st.dictionaries(words, coeff, max_size=5)))
    for x in build_family(tag, V).basis:
        got = act_on_tensor(x, element)
        assert got == reference_act_on_tensor(x, element), (tag, dims, x)
        assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)


def test_pair_dual_against():
    # sign is the mutual odd/odd pair count of the word
    assert pair_dual_against((od(1), od(2)), (od(1), od(2))) == -1
    assert pair_dual_against((ev(1), od(1)), (ev(1), od(1))) == 1
    assert pair_dual_against((od(1),), (ev(1),)) == 0


def test_word_length_must_match_the_signature():
    """A tensor word is a letter word; the signature marks its dual
    positions, so every word must have the signature's length."""
    for signature, w in [((False, True), (ev(1),)), ((True,), (ev(1), od(1))), ((), (od(1),))]:
        with pytest.raises(ValueError, match="signature"):
            TensorElement(V11, signature, {w: 1})
    assert TensorElement(V11, (False, True), {(ev(1), od(1)): 1})


def test_group_algebra_keeps_each_slot_on_its_dual_flag():
    """A permutation of a block that mixes vector and covector slots may
    not move a slot to the other flag."""
    swap = GroupAlgebraElement(2, {Permutation.transposition(2, 0, 1): 1})
    mixed = theta(V11)
    with pytest.raises(ValueError, match="dual flags"):
        apply_group_algebra(swap, mixed)
    both = TensorElement(V11, (False, True, True), {(ev(1), ev(1), od(1)): 1})
    assert apply_group_algebra(swap, both, 1).terms == {(ev(1), od(1), ev(1)): 1}


def operator_from_element(element, cov, contra):
    """Turn an element of V^{x cov} x V*^{x contra} into the operator
    V^{x contra} -> V^{x cov} by full evaluation of the dual block (no
    caller in the package)."""
    assert element.signature == (False,) * cov + (True,) * contra

    def op(arg):
        assert arg.signature == (False,) * contra
        out = {}
        for w, c in element.terms.items():
            head, tail = w[:cov], w[cov:]
            for u, cu in arg.terms.items():
                val = pair_dual_against(tail, u)
                if val:
                    out[head] = out.get(head, 0) + c * cu * val
        return TensorElement(element.dims, (False,) * cov, out)

    return op


def test_identity_resolution():
    """The block form of the canonical pairing element acts as the identity
    operator, validating the evaluation convention."""
    for k in (1, 2):
        el = theta_power(V11, k)
        op = operator_from_element(el, k, k)
        for L in all_words(V11, k):
            w = TensorElement.from_word(V11, plain_word(L))
            assert op(w) == w


def test_contraction_examples():
    w = TensorElement.from_word(V11, plain_word((ev(1), od(1))))
    out = contraction_D((od(1),), w)
    assert out.signature == (False,)
    assert out.terms == {(ev(1),): Fraction(1)}
    w2 = TensorElement.from_word(V11, plain_word((od(1), ev(1))))
    assert contraction_D((od(1),), w2).is_zero()
    # head parity sign: odd head times odd contraction word
    w3 = TensorElement.from_word(V11, plain_word((od(1), od(1))))
    assert contraction_D((od(1),), w3).terms == {(od(1),): Fraction(-1)}


def test_contraction_linearity():
    rng = random.Random(9)
    words = [plain_word(L) for L in all_words(V11, 3)]
    for _ in range(100):
        a = TensorElement.from_word(V11, rng.choice(words), rng.randint(1, 5))
        b = TensorElement.from_word(V11, rng.choice(words), rng.randint(-5, -1))
        J = (rng.choice(V11.indices()),)
        lhs = contraction_D(J, a + b)
        rhs = contraction_D(J, a) + contraction_D(J, b)
        assert lhs == rhs


def test_sl_elements_at_1_1():
    sl = build_family("sl", V11)
    E11 = MatrixElement.unit(V11, ev(1), ev(1))
    for hat in (True, False):
        el = sl_invariant_element(V11, 1, hat)
        assert el
        assert all(act_on_tensor(x, el).is_zero() for x in sl.basis)
        assert not act_on_tensor(E11, el).is_zero()


def test_symmetrizer_pair_identity():
    """Two symmetrizers on adjacent blocks of slots, as the sl elements use
    them: a one-cell tableau acts as the identity, and the block path
    equals the expanded symmetrizers applied in turn."""
    sig = (False, False, True)
    w = TensorElement(V11, sig, {
        (ev(1), od(1), ev(1)): 2,
        (od(1), od(1), od(1)): Fraction(-1, 3),
    })
    one, row2 = fill_rows(Partition((1,))), fill_rows(Partition((2,)))
    assert symmetrize(one, "tilde", w.terms, 2) == w.terms
    got = symmetrize(one, "tilde", symmetrize(row2, "plain", w.terms), 2)
    left = apply_group_algebra(young_symmetrizer(row2), w, 0)
    want = apply_group_algebra(young_symmetrizer(one, "tilde"), left, 2)
    assert got == want.terms and got


def reference_apply(g, element, start=0):
    """The word action one word at a time, with a cocycle per (term, word)."""
    k = g.degree
    out = {}
    for inv, gc in g.inverse_terms():
        for w, coeff in element.terms.items():
            block = w[start : start + k]
            parities = [i.parity for i in block]
            nw = w[:start] + tuple(block[x] for x in inv) + w[start + k :]
            out[nw] = out.get(nw, 0) + coeff * gc * cocycle_sign(parities, inv)
    return TensorElement(element.dims, element.signature, out)


@pytest.mark.parametrize("head,k", [(0, 3), (1, 3), (2, 2), (1, 4)])
def test_apply_group_algebra_matches_per_word_reference(head, k):
    """Mixed-parity words, blocks at start 0 and start > 0 (after `head`
    dual slots): same terms in the same order as the per-word loop."""
    rng = random.Random(head * 10 + k)
    V = IndexRange(1, 2)
    letters = V.indices()
    terms = {}
    for _ in range(12):
        w = tuple(rng.choices(letters, k=head) + rng.choices(letters, k=k + 1))
        terms[w] = rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
    element = TensorElement(V, (True,) * head + (False,) * (k + 1), terms)
    extra = GroupAlgebraElement(
        k, {Permutation(tuple(rng.sample(range(k), k))): Fraction(rng.randint(-3, 3), 2) for _ in range(5)}
    )
    for shape in [(k,), (1,) * k, (k - 1, 1)]:
        e = young_symmetrizer(enumerate_standard_tableaux(Partition(shape))[-1])
        for g in (e, e + extra):
            got = apply_group_algebra(g, element, head)
            want = reference_apply(g, element, head)
            assert got.terms and list(got.terms.items()) == list(want.terms.items())
            assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def test_operator_eigen_constant():
    """Symmetrizing the input first only rescales the output, with one
    constant across all words."""
    setup = operator_setup(V11, 1)
    et = young_symmetrizer(setup.t, "plain")
    constants = set()
    for L in all_words(V11, 2):
        w = TensorElement.from_word(V11, plain_word(L))
        lhs = invariant_operator(setup, apply_group_algebra(et, w))
        rhs = invariant_operator(setup, w)
        if rhs.is_zero():
            assert lhs.is_zero()
            continue
        wd = next(iter(rhs.terms))
        c = Fraction(lhs.terms.get(wd, 0), rhs.terms[wd])
        assert rhs.scale(c) == lhs
        constants.add(c)
    assert len(constants) == 1 and constants.pop() != 0


def test_operator_annihilates_uncontractable():
    setup = operator_setup(V11, 1)
    # trailing block cannot produce the required odd letter
    w = TensorElement.from_word(V11, plain_word((ev(1), ev(1))))
    et = young_symmetrizer(setup.t, "plain")
    assert invariant_operator(setup, apply_group_algebra(et, w)).is_zero()


def test_marked_tableau_vs_operator():
    """The closed form realizes the operator on every word, with a
    content-dependent sign deviation that the comparison exposes."""
    setup = operator_setup(V11, 1)
    et = young_symmetrizer(setup.t, "plain")
    ratios = {}
    for L in all_words(V11, 2):
        direct = invariant_operator(
            setup, apply_group_algebra(et, TensorElement.from_word(V11, plain_word(L)))
        )
        marked = marked_tableau_operator(setup, L)
        if direct.is_zero() and marked.is_zero():
            continue
        assert direct.is_zero() == marked.is_zero()
        wd = next(iter(direct.terms))
        c = marked.terms.get(wd)
        assert c is not None and marked.scale(Fraction(direct.terms[wd], c)) == direct
        ratios[L] = Fraction(direct.terms[wd], c)
    assert ratios  # the closed form does realize the operator family
    magnitudes = {abs(r) for r in ratios.values()}
    assert len(magnitudes) == 1  # up to sign it is one constant
    assert len(set(ratios.values())) == 2  # the sign deviation is real


def test_tilde_index_and_form():
    V = IndexRange(1, 2)
    form = invariant_form("osp", V)
    assert form[ev(1)][0] == ev(1)
    assert form[od(1)][0] == od(2)
    osp = build_family("osp", V)
    tt = theta_tilde_2(V)
    assert all(act_on_tensor(x, tt).is_zero() for x in osp.basis)


def test_form_sign_printed_convention_fails():
    """The form's case split as printed carries the opposite odd signs:
    every term whose first letter is odd is flipped."""
    V = IndexRange(1, 2)
    osp = build_family("osp", V)
    terms = {w: -c if w[0].parity else c for w, c in theta_tilde_2(V).terms.items()}
    tt = TensorElement(V, (False, False), terms)
    assert not all(act_on_tensor(x, tt).is_zero() for x in osp.basis)


def test_nabla_at_1_2():
    V = IndexRange(1, 2)
    osp = build_family("osp", V)
    nab = nabla_construct(V)
    assert nab
    assert all(act_on_tensor(x, nab).is_zero() for x in osp.basis)
    E11 = MatrixElement.unit(V, ev(1), ev(1))
    assert not act_on_tensor(E11, nab).is_zero()


def test_nabla_closed_form_report():
    from superinv.linalg import rank_rows

    report = nabla_closed_form_report(IndexRange(1, 2))
    assert report["in_span"] is True
    assert report["support_size"] == 3
    assert report["single_global_ratio"] is False  # documented divergence
    # the support rank, read off the fit's kernel, is the rank of the
    # e_s-images of the support words
    for n, m in [(1, 2), (2, 2)]:
        dims = IndexRange(n, m)
        s, head = split_cols_tableau(n, m, 1), repeated_evens(n, 1)
        images = [
            symmetrize_element(s, "plain", TensorElement.from_word(dims, head + I)).terms
            for I in nabla_support_words(dims)
        ]
        assert nabla_closed_form_report(dims)["support_rank"] == rank_rows(images), (n, m)


def test_tensor_invariants_need_balance():
    """No invariants in unbalanced mixed powers; balanced ones carry the
    canonical elements."""
    for dims in [(1, 1), (2, 1), (2, 2)]:
        gl = build_family("gl", IndexRange(*dims))
        for p, q in [(1, 0), (0, 1), (2, 1), (1, 2), (2, 0), (3, 1), (0, 4)]:
            if p + q > 4:
                continue
            sig = (False,) * p + (True,) * q
            assert tensor_invariant_space(gl.basis, IndexRange(*dims), sig) == [], (dims, p, q)
    assert len(tensor_invariant_space(build_family("gl", V11).basis, V11, (False, True))) == 1


def test_tensor_invariants_theta_orbit_spans():
    """The symmetric-group orbit of the canonical power spans the full
    invariant space of the balanced square."""
    from superinv.linalg import rank_rows

    gl = build_family("gl", V11)
    sig = (False, False, True, True)
    inv = tensor_invariant_space(gl.basis, V11, sig)
    el = theta_power(V11, 2)
    orbit = []
    for pa in itertools.permutations(range(2)):
        for pb in itertools.permutations(range(2)):
            images = list(pa) + [2 + x for x in pb]
            orbit.append(slot_permute(el, Permutation(tuple(images))))
    words = sorted({w for e in orbit + inv for w in e.terms})
    pos = {w: i for i, w in enumerate(words)}

    def vec(e):
        out = [Fraction(0)] * len(words)
        for w, c in e.terms.items():
            out[pos[w]] = c
        return out

    assert rank_rows([vec(e) for e in orbit]) == len(inv)


def test_hom_dimension_bound():
    """Projected invariant spaces between two symmetrized blocks are at most
    one-dimensional at these sizes."""
    from superinv.linalg import intersect_dims
    from superinv.tableaux import enumerate_partitions, fill_rows

    gl = build_family("gl", V11)
    sl = build_family("sl", V11)
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            sig = (False,) * p + (True,) * q
            inv = tensor_invariant_space(sl.basis, V11, sig)
            if not inv:
                continue
            for lam in enumerate_partitions(p):
                for mu in enumerate_partitions(q):
                    e_lam = young_symmetrizer(fill_rows(lam))
                    e_mu = young_symmetrizer(fill_rows(mu))
                    projected = []
                    for L in all_words(V11, p + q):
                        w = TensorElement(V11, sig, {L: 1})
                        projected.append(
                            apply_group_algebra(
                                e_mu, apply_group_algebra(e_lam, w, 0), p
                            )
                        )
                    dim = intersect_dims(
                        [e.terms for e in projected], [e.terms for e in inv]
                    )
                    assert dim <= 1


def test_marked_tableau_corrected_convention():
    """With the head-parity sign included the closed form matches the
    operator with one global constant, at two parameter sets."""
    for dims in [(1, 1), (2, 1)]:
        V = IndexRange(*dims)
        setup = operator_setup(V, 1)
        et = young_symmetrizer(setup.t, "plain")
        ratios = set()
        for L in all_words(V, setup.m * (setup.n + 1)):
            direct = invariant_operator(
                setup,
                apply_group_algebra(et, TensorElement.from_word(V, plain_word(L))),
            )
            marked = marked_tableau_operator(setup, L, "corrected")
            if direct.is_zero() and marked.is_zero():
                continue
            assert direct.is_zero() == marked.is_zero()
            wd = next(iter(direct.terms))
            c = marked.terms[wd]
            assert marked.scale(Fraction(direct.terms[wd], c)) == direct
            ratios.add(Fraction(direct.terms[wd], c))
        assert len(ratios) == 1
