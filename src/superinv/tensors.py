"""Mixed tensor spaces, the canonical invariant elements, block symmetrizer
actions, contraction operators, and the constructive invariant operator.

A tensor word is a letter word, and the element's `signature` marks the
dual positions; elements are sparse exact combinations of words of the
signature's length.  A matrix acts on them through its letter-image
tables, one per dual flag, as a derivation across the slots
(`liealgebras.act_on_words`).  The inverse-form element and the relative
invariant's closed form read the form table `liealgebras.invariant_form`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .alphabet import (
    EVEN,
    IndexRange,
    SuperIndex,
    Word,
    all_words,
    ev,
    mutual_parity_count,
    od,
    parity_of_word,
)
from .coefficients import Coeff, SparseElement, normalized
from .liealgebras import MatrixElement, act_on_words, invariant_form, slot_weights, weighs_zero
from .linalg import joint_kernel
from .permutations import (
    GroupAlgebraElement,
    Permutation,
    act_on_block,
    inverse_images,
    symmetrize,
)
from .tableaux import Partition, YoungTableau

def plain_word(indices: Sequence[SuperIndex]) -> Word:
    return tuple(indices)


class TensorElement(SparseElement):
    """Sparse exact element of a fixed mixed tensor space.

    Coefficients are `int` while they are integral, `Fraction` only after a
    real division, never `float` (see `superinv.coefficients`); the
    constructor normalises them and drops zeros.
    """

    __slots__ = ("dims", "signature", "terms")

    def __init__(
        self,
        dims: IndexRange,
        signature: tuple[bool, ...],
        terms: dict[Word, Coeff] | None = None,
    ):
        self.dims = dims
        self.signature = signature
        self.terms: dict[Word, Coeff] = {}
        if terms:
            if any(len(w) != len(signature) for w in terms):
                raise ValueError("word length does not match the signature")
            self.terms = normalized(terms)

    @classmethod
    def _from_raw(
        cls, dims: IndexRange, signature: tuple[bool, ...], terms: dict[Word, Coeff]
    ) -> "TensorElement":
        """Wrap a raw accumulation dict whose words are known to have the
        signature's length: coefficients are normalised, no word is
        re-checked."""
        out = cls.__new__(cls)
        out.dims = dims
        out.signature = signature
        out.terms = normalized(terms)
        return out

    @staticmethod
    def from_word(dims: IndexRange, w: Word, coeff=1) -> "TensorElement":
        """The covariant element coeff * v_w."""
        return TensorElement(dims, (False,) * len(w), {w: coeff})

    def _space(self) -> tuple:
        return (self.dims, self.signature)

    def _wrap(self, terms: dict) -> "TensorElement":
        return TensorElement._from_raw(self.dims, self.signature, terms)

    def _label(self, w: Word) -> str:
        return "@".join(f"e*[{i}]" if d else f"e[{i}]" for i, d in zip(w, self.signature))

    def tensor(self, other: "TensorElement") -> "TensorElement":
        if other.dims != self.dims:
            raise ValueError("space mismatch")
        out: dict[Word, Coeff] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        return TensorElement(self.dims, self.signature + other.signature, out)


# ---------------------------------------------------------------------------
# canonical invariant elements


def theta(dims: IndexRange, hat: bool = False) -> TensorElement:
    """The canonical pairing element: sum of e_i x e_i* (plain), or the
    signed transpose sum of (-1)^{p(i)} e_i* x e_i (hat)."""
    terms = {(i, i): (-1) ** i.parity if hat else 1 for i in dims}
    return TensorElement(dims, (True, False) if hat else (False, True), terms)


def theta_power(dims: IndexRange, k: int, hat: bool = False) -> TensorElement:
    """k-th tensor power reshuffled into block form: the covariant letters
    of each factor grouped together, with the Koszul signs of the shuffle.

    Closed form: sum over words L of length k of
    (-1)^{alpha(L,L) (+ p(L) for the hat variant)} v_L x v*_L (plain puts
    the plain block first, hat puts the dual block first).
    """
    sig = (True,) * k + (False,) * k if hat else (False,) * k + (True,) * k
    terms: dict[Word, Coeff] = {}
    for L in all_words(dims, k):
        expo = mutual_parity_count(L) + (parity_of_word(L) if hat else 0)
        terms[L + L] = (-1) ** expo
    return TensorElement(dims, sig, terms)


def slot_permute(element: TensorElement, perm: Permutation) -> TensorElement:
    """Move slot at old position a to new position perm(a), with the Koszul
    sign of the reordering (per word)."""
    if perm.degree != len(element.signature):
        raise ValueError("length mismatch")
    inv = inverse_images(perm.images)
    terms = act_on_block([([(inv, 1)], {})], element.terms, 0, perm.degree)
    signature = tuple(map(element.signature.__getitem__, inv))
    return TensorElement._from_raw(element.dims, signature, terms)


# ---------------------------------------------------------------------------
# actions


def act_on_tensor(x: MatrixElement, element: TensorElement) -> TensorElement:
    """Derivation action across slots; dual slots get the negative
    sign-twisted transpose action."""
    if x.dims != element.dims:
        raise ValueError("dimension mismatch")
    acc = act_on_words(x.slot_images(), x.parity, element.signature, element.terms)
    return TensorElement._from_raw(element.dims, element.signature, acc)


def apply_group_algebra(
    g: GroupAlgebraElement, element: TensorElement, start: int = 0
) -> TensorElement:
    """Let a group-algebra element permute a contiguous block of slots via
    the cocycle-weighted word action; no permutation may move a slot to a
    position of the other dual flag."""
    k = g.degree
    block, perms = element.signature[start : start + k], list(g.inverse_terms())
    if len(block) != k:
        raise ValueError("length mismatch")
    crossed = (block[a] != block[b] for inv, _ in perms for a, b in enumerate(inv))
    if len(set(block)) > 1 and any(crossed):
        raise ValueError("a permutation moves a slot across dual flags")
    terms = act_on_block([(perms, {})], element.terms, start, k)
    return TensorElement(element.dims, element.signature, terms)


def symmetrize_element(
    t: YoungTableau, variant: str, element: TensorElement, start: int = 0
) -> TensorElement:
    """The Young symmetrizer of t on the slots from `start`, block by block."""
    terms = symmetrize(t, variant, element.terms, start)
    return TensorElement._from_raw(element.dims, element.signature, terms)


# ---------------------------------------------------------------------------
# evaluation pairing and contraction


def pair_dual_against(dual: Word, target: Word) -> int:
    """Evaluation of v*_L on v_M with the Koszul interleaving sign; the
    letters pair slotwise."""
    if len(dual) != len(target):
        raise ValueError("length mismatch")
    if tuple(dual) != tuple(target):
        return 0
    return (-1) ** mutual_parity_count(dual)


def contraction_D(Jk: Word, element: TensorElement) -> TensorElement:
    """Pair the trailing block of a purely covariant element against v*_Jk:
    (v1 x v2) goes to (-1)^{p(Jk) p(v1)} v1 * (v*_Jk applied to v2)."""
    k = len(Jk)
    if any(d for d in element.signature):
        raise ValueError("element must be purely covariant")
    if len(element.signature) < k:
        raise ValueError("word too short for the contraction")
    pj = parity_of_word(Jk)
    out: dict[Word, Coeff] = {}
    for w, coeff in element.terms.items():
        head, tail = w[:-k] if k else w, w[len(w) - k :] if k else ()
        val = pair_dual_against(Jk, tail)
        if not val:
            continue
        sign = (-1) ** (pj * parity_of_word(head))
        out[head] = out.get(head, 0) + coeff * val * sign
    return TensorElement(element.dims, (False,) * (len(element.signature) - k), out)


# ---------------------------------------------------------------------------
# the standard split tableaux and repeated sequences


def split_rows_tableau(n: int, m: int, k: int) -> YoungTableau:
    """m columns, n+k rows; the top n rows are numbered column-wise first,
    then the bottom k rows, again column-wise."""
    parts = Partition((m,) * (n + k))
    grid = [[0] * m for _ in range(n + k)]
    for j in range(m):
        for i in range(n):
            grid[i][j] = j * n + i + 1
    for j in range(m):
        for i in range(k):
            grid[n + i][j] = n * m + j * k + i + 1
    return YoungTableau(parts, tuple(tuple(r) for r in grid))


def split_cols_tableau(n: int, m: int, k: int) -> YoungTableau:
    """n rows, k+m columns, numbered column by column: cell (i, j) holds
    j*n + i + 1."""
    rows = tuple(tuple(j * n + i + 1 for j in range(k + m)) for i in range(n))
    return YoungTableau(Partition((k + m,) * n), rows)


def repeated_evens(n: int, k: int) -> Word:
    """k-fold repetition of the run 1, 2, ..., n."""
    return tuple(ev(i) for _ in range(k) for i in range(1, n + 1))


def blocked_odds(m: int, k: int) -> Word:
    """k copies of 1', then k copies of 2', ..., k copies of m'."""
    return tuple(od(j) for j in range(1, m + 1) for _ in range(k))


# ---------------------------------------------------------------------------
# section-3 style invariant elements and the operator they induce


def sl_invariant_element(dims: IndexRange, k: int, hat: bool) -> TensorElement:
    """The symmetrized canonical elements: with `hat` the word is
    v*_{I_k} x theta-hat-power x v_{J_k}; without it the word is
    v_{I_k} x theta-power x v*_{J_k}.  Block symmetrizers: the row-split
    tableau on the theta block plus the repeated-run block, the column-split
    tableau on the other side."""
    n, m = dims.even_count, dims.odd_count
    t = split_rows_tableau(n, m, k)
    s = split_cols_tableau(n, m, k)
    head, tail = repeated_evens(n, k), blocked_odds(m, k)
    theta_k = theta_power(dims, n * m, hat)
    terms = {head + w + tail: c for w, c in theta_k.terms.items()}
    sig = (hat,) * len(head) + theta_k.signature + (not hat,) * len(tail)
    left = symmetrize_element(s, "plain", TensorElement(dims, sig, terms))
    return symmetrize_element(t, "tilde", left, start=s.size)


@dataclass
class OperatorSetup:
    """Data of the invariant operator built from the split tableaux."""

    dims: IndexRange
    n: int
    m: int
    k: int
    t: YoungTableau
    s: YoungTableau
    Ik: Word
    Jk: Word


def operator_setup(dims: IndexRange, k: int) -> OperatorSetup:
    n, m = dims.even_count, dims.odd_count
    return OperatorSetup(
        dims,
        n,
        m,
        k,
        split_rows_tableau(n, m, k),
        split_cols_tableau(n, m, k),
        repeated_evens(n, k),
        blocked_odds(m, k),
    )


def invariant_operator(setup: OperatorSetup, w: TensorElement) -> TensorElement:
    """The invariant operator applied to a purely covariant element of
    degree m(n+k): symmetrize by the full row-split tableau, contract the
    trailing block, prefix the repeated run, then symmetrize by the
    column-split tableau."""
    n, m, k = setup.n, setup.m, setup.k
    if len(w.signature) != m * (n + k) or any(w.signature):
        raise ValueError("argument must be covariant of degree m(n+k)")
    inner = symmetrize_element(setup.t, "plain", w)
    contracted = contraction_D(setup.Jk, inner)
    prefixed = TensorElement.from_word(setup.dims, setup.Ik).tensor(contracted)
    return symmetrize_element(setup.s, "plain", prefixed)


# ---------------------------------------------------------------------------
# marked tableau formula (k = 1)


def marked_tableau_operator(
    setup: OperatorSetup, L: Word, convention: str = "printed"
) -> TensorElement:
    """Closed-form image of a basis word under the invariant operator in the
    single-extra-row case, via marked tableaux: in each column mark an odd
    letter, all marked letters distinct; strike the marked letters out and
    shift their columns down.

    Sign bookkeeping as stated ("printed"): eps(L) from the parities of
    even-numbered columns and their last letters, q(L) from the column tails
    under the marked cells, and the sign of the marked letter arrangement.
    That data misses the contraction's head-parity sign; the "corrected"
    convention inserts (-1)^{p(J_1) p(word minus marks)}, after which the
    formula matches the operator with one global constant.
    """
    if convention not in ("printed", "corrected"):
        raise ValueError("convention must be 'printed' or 'corrected'")
    n, m, k = setup.n, setup.m, setup.k
    if k != 1:
        raise ValueError("marked tableau formula needs k = 1")
    t = setup.t
    # letter at cell (r, c)
    grid = [[L[t.rows[r][c] - 1] for c in range(m)] for r in range(n + 1)]
    columns = [[grid[r][c] for r in range(n + 1)] for c in range(m)]

    # eps(L): parities of even-numbered columns (1-indexed: 2nd, 4th, ...)
    # plus parities of their last letters
    eps_exp = 0
    for c in range(1, m, 2):
        eps_exp += sum(x.parity for x in columns[c]) + columns[c][-1].parity
    eps_L = (-1) ** eps_exp
    pJ = parity_of_word(setup.Jk)

    terms: dict[Word, Coeff] = {}
    odd_positions = [
        [r for r in range(n + 1) if columns[c][r].parity] for c in range(m)
    ]
    for marks in itertools.product(*odd_positions):
        letters = tuple(columns[c][marks[c]] for c in range(m))
        if len(set(letters)) != m:
            continue
        if sorted(letters) != [od(j) for j in range(1, m + 1)]:
            continue
        # sign of the arrangement of the marked letters
        inv = sum(
            1
            for a in range(m)
            for b in range(a + 1, m)
            if letters[a] > letters[b]
        )
        eps_l = (-1) ** inv
        q = 0
        for c in range(m):
            below = columns[c][marks[c] + 1 :]
            q += sum(x.parity for x in below) + len(below)
        # read the reduced tableau column-wise, matching the top-block order
        reduced: list[SuperIndex] = []
        for c in range(m):
            reduced.extend(columns[c][r] for r in range(n + 1) if r != marks[c])
        coeff = eps_l * (-1) ** q
        if convention == "corrected":
            coeff *= (-1) ** (pJ * parity_of_word(tuple(reduced)))
        w = setup.Ik + tuple(reduced)
        terms[w] = terms.get(w, 0) + coeff
    out = TensorElement(setup.dims, (False,) * (n * (m + 1)), terms)
    return symmetrize_element(setup.s, "plain", out).scale(eps_L)


# ---------------------------------------------------------------------------
# the orthosymplectic constructive invariant


def theta_tilde_2(dims: IndexRange) -> TensorElement:
    """The inverse-form element: the orthosymplectic form table
    (`invariant_form`) read as plain words, the sum of c e_a x e_b over its
    pairs.

    The odd coefficients are the ones actually annihilated by the family
    that preserves the form covector; the quoted case split carries the
    opposite odd signs and fails invariance (see the errata comparison in
    the claim runners).
    """
    form = invariant_form("osp", dims)
    terms = {(a, b): c for a, (b, c) in sorted(form.items())}
    return TensorElement(dims, (False, False), terms)


def theta_tilde_power(dims: IndexRange, k: int = 1) -> TensorElement:
    """Tensor power of the inverse-form element arranged so that each row of
    the row-split tableau consists of adjacent partner pairs (the slot
    reshuffle is invisible when the top block has a single row)."""
    n, m = dims.even_count, dims.odd_count
    t = split_rows_tableau(n, m, k)
    power = ((n + k) * m) // 2
    tt = theta_tilde_2(dims)
    acc = TensorElement.from_word(dims, ())
    for _ in range(power):
        acc = acc.tensor(tt)
    images = [0] * (2 * power)
    pos = 0
    for r in range(n + k):
        for a in range(0, m, 2):
            images[pos] = t.rows[r][a] - 1
            images[pos + 1] = t.rows[r][a + 1] - 1
            pos += 2
    return slot_permute(acc, Permutation(tuple(images)))


def nabla_construct(dims: IndexRange) -> TensorElement:
    """Constructive relative invariant: the invariant operator applied to
    the row-paired power of the inverse-form element."""
    n, m = dims.even_count, dims.odd_count
    if n == 0:
        raise ValueError("need at least one even dimension")
    if m % 2:
        raise ValueError("odd dimension must be even")
    setup = operator_setup(dims, 1)
    return invariant_operator(setup, theta_tilde_power(dims, 1))


# ---------------------------------------------------------------------------
# closed-form support family for the constructive invariant


def nabla_support_words(dims: IndexRange) -> list[Word]:
    """Candidate words: length-nm sequences read as an n x m grid down the
    columns, with every row but the last made of adjacent partner pairs
    (x, x~), and the last row's non-partner letters forming a set of
    pairwise distinct odd letters closed under the partner map."""
    n, m = dims.even_count, dims.odd_count
    letters = dims.indices()
    partner = {a: b for a, (b, _) in invariant_form("osp", dims).items()}
    out = []
    for I in itertools.product(letters, repeat=n * m):
        grid = [[I[j * n + i] for j in range(m)] for i in range(n)]
        ok = True
        for i in range(n - 1):
            for a in range(0, m, 2):
                if grid[i][a + 1] != partner[grid[i][a]]:
                    ok = False
        if not ok:
            continue
        last = grid[n - 1]
        loose: list[SuperIndex] = []
        for a in range(0, m, 2):
            x, y = last[a], last[a + 1]
            if y != partner[x]:
                loose.extend((x, y))
        if any(x.parity == EVEN for x in loose):
            continue
        if len(set(loose)) != len(loose):
            continue
        if {partner[x] for x in loose} != set(loose):
            continue
        out.append(tuple(I))
    return out


def nabla_closed_form_coeff(dims: IndexRange, I: Word) -> int:
    """Predicted coefficient d(I) K(I), reading the undefined lower summation
    bound as zero and the undefined exclusion set as empty."""
    from math import factorial

    n, m = dims.even_count, dims.odd_count
    r = m // 2
    grid = [[I[j * n + i] for j in range(m)] for i in range(n)]
    partner = {a: b for a, (b, _) in invariant_form("osp", dims).items()}
    d = 1
    for j in range(0, m, 2):
        col = tuple(grid[i][j] for i in range(n))
        d *= (-1) ** mutual_parity_count(col)
    last = grid[n - 1]
    counts: dict[frozenset, int] = {}
    for a in range(0, m, 2):
        x, y = last[a], last[a + 1]
        if y == partner[x] and x.parity:
            key = frozenset((x, y))
            counts[key] = counts.get(key, 0) + 1
    mults = sorted(counts.values())
    nu = len(mults)
    N = sum(mults)

    def elementary_symmetric(q: int) -> int:
        total = 0
        for combo in itertools.combinations(mults, q):
            prod = 1
            for x in combo:
                prod *= x
            total += prod
        return total

    K = 0
    for q in range(0, nu + 1):
        K += (N + 1) ** r * 2 ** (r - q) * factorial(r - q) * N**q * elementary_symmetric(q)
    return d * K


def nabla_closed_form_report(dims: IndexRange) -> dict:
    """Fit the constructive invariant over the closed-form support family
    and compare the fitted coefficients with the predicted ones."""
    n, m = dims.even_count, dims.odd_count
    nabla = nabla_construct(dims)
    support = nabla_support_words(dims)
    s = split_cols_tableau(n, m, 1)
    I1 = repeated_evens(n, 1)
    # the kernel of x -> sum_j x_j e_s(I1 + I_j) - x_last nabla; nabla's
    # column is last, so it is free, and one kernel vector holds it, exactly
    # when nabla lies in the span of the images
    last = len(support)
    columns = [
        symmetrize_element(s, "plain", TensorElement.from_word(dims, I1 + I)).terms
        for I in support
    ]
    columns.append(nabla.scale(-1).terms)
    kernel = joint_kernel(range(last + 1), [lambda j: columns[j]])
    solutions = [v for v in kernel if last in v]
    report: dict = {
        "support_size": len(support),
        "support_rank": last - len(kernel) + len(solutions),
        "in_span": bool(solutions),
    }
    if solutions:
        v = solutions[0]
        fitted = [v.get(j, 0) / v[last] for j in range(last)]
        predictions = [nabla_closed_form_coeff(dims, I) for I in support]
        ratios = []
        for f, p in zip(fitted, predictions):
            ratios.append(None if p == 0 else f / p)
        nontrivial = [r for r in ratios if r is not None]
        matches = bool(nontrivial) and all(r == nontrivial[0] for r in nontrivial)
        report.update(
            {
                "support": ["".join(str(x) for x in I) for I in support],
                "fitted": [str(f) for f in fitted],
                "predicted": [str(p) for p in predictions],
                "single_global_ratio": matches,
            }
        )
    return report


# ---------------------------------------------------------------------------
# brute-force tensor invariants


def tensor_invariant_space(
    basis_elements: Sequence[MatrixElement],
    dims: IndexRange,
    signature: tuple[bool, ...],
) -> list[TensorElement]:
    """Exact basis of the joint kernel of the action of the given elements
    on the full word space: weight-filter by the diagonal elements
    (`weighs_zero`), then the joint kernel of the off-diagonal ones.
    Every given element acts, with no generating subset, so the tests use
    it as a full-basis reference."""
    weights = [slot_weights(x) for x in basis_elements if x.is_diagonal()]
    words = [L for L in all_words(dims, len(signature)) if weighs_zero(weights, signature, L)]
    maps = [
        lambda w, t=x.slot_images(), p=x.parity: act_on_words(t, p, signature, {w: 1})
        for x in basis_elements
        if not x.is_diagonal()
    ]
    out = []
    for terms in joint_kernel(words, maps):
        elt = TensorElement(dims, signature, terms)
        for x in basis_elements:
            assert act_on_tensor(x, elt).is_zero()
        out.append(elt)
    return out
