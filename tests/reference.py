"""Reference implementations the tests check the package against.

None of these is reached by a run of `superinv`: each is a plain, direct
form of something the package computes another way, kept here so that the
tests have one home for their references."""

from typing import Sequence

from superinv.alphabet import IndexRange, Word, all_words
from superinv.coefficients import Coeff
from superinv.liealgebras import MatrixElement, act_on_words, slot_weights, weighs_zero
from superinv.linalg import joint_kernel
from superinv.permutations import GroupAlgebraElement, Permutation, cocycle_sign, inverse_images
from superinv.tableaux import YoungTableau
from superinv.tensors import TensorElement, act_on_tensor


def act_on_word(sigma: Permutation, word: Word) -> Word:
    """(sigma I)_a = I_{sigma^{-1}(a)}: the letter at position a moves to
    position sigma(a)."""
    if sigma.degree != len(word):
        raise ValueError("length mismatch")
    return tuple(map(word.__getitem__, inverse_images(sigma.images)))


def apply_to_word(g: GroupAlgebraElement, word: Word) -> dict[Word, Coeff]:
    """Action on tensor words: sigma . v_I = c(I, sigma^{-1}) v_{sigma I},
    extended linearly with like-term collection."""
    if len(word) != g.degree:
        raise ValueError("length mismatch")
    parities = [x.parity for x in word]
    at = word.__getitem__
    out: dict[Word, Coeff] = {}
    for inv, coeff in g.inverse_terms():
        target = tuple(map(at, inv))
        out[target] = out.get(target, 0) + coeff * cocycle_sign(parities, inv)
    return {w: c for w, c in out.items() if c}


def is_standard(t: YoungTableau) -> bool:
    """Entries increase along every row and down every column."""
    for r, row in enumerate(t.rows):
        for c, val in enumerate(row):
            if c + 1 < len(row) and row[c + 1] <= val:
                return False
            if r + 1 < len(t.rows) and c < len(t.rows[r + 1]) and t.rows[r + 1][c] <= val:
                return False
    return True


def relabel(t: YoungTableau, images: Sequence[int]) -> YoungTableau:
    """Apply a permutation to the entries: number a becomes images[a-1]+1
    (0-indexed permutation of 0..size-1)."""
    return YoungTableau(t.shape, tuple(tuple(images[v - 1] + 1 for v in row) for row in t.rows))


def cross_parity_count(left: Word, right: Word) -> int:
    """Exponent sum p(left_a) * p(right_b) over pairs with a > b.

    This is the sign exponent attached to an interleaving where the a-th
    left letter passes the first a-1 right letters.
    """
    total = 0
    odd_right_before = 0
    for a in range(len(left)):
        if a > 0 and right[a - 1].parity:
            odd_right_before += 1
        if left[a].parity:
            total += odd_right_before
    return total


def tensor_invariant_space(
    basis_elements: Sequence[MatrixElement],
    dims: IndexRange,
    signature: tuple[bool, ...],
) -> list[TensorElement]:
    """Exact basis of the joint kernel of the action of the given elements
    on the full word space: weight-filter by the diagonal elements
    (`weighs_zero`), then the joint kernel of the off-diagonal ones.
    Every given element acts, with no generating subset."""
    weights = [slot_weights(x) for x in basis_elements if x.is_diagonal()]
    words = [L for L in all_words(dims, len(signature)) if weighs_zero(weights, signature, L)]
    actions = [(x.slot_images(), x.parity) for x in basis_elements if not x.is_diagonal()]
    kernel = joint_kernel(words, lambda w: [act_on_words(*a, signature, {w: 1}) for a in actions])
    out = [TensorElement(dims, signature, terms) for terms in kernel]
    if not all(act_on_tensor(x, t).is_zero() for t in out for x in basis_elements):
        raise AssertionError("tensor oracle produced a non-invariant")
    return out
