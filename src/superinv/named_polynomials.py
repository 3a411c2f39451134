"""The named polynomial families: signed products Z(I,J), their tableau
symmetrizations P_t / P~_t, even Pfaffians, and periplectic Pfaffians."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .alphabet import SuperIndex, Word, cross_parity_count
from .coefficients import Coeff
from .permutations import cocycle_sign, young_symmetrizer
from .polynomials import (
    AlgebraDescriptor,
    Monomial,
    Polynomial,
    normalize_product,
    sym_square_index,
)
from .tableaux import Partition, YoungTableau

# a signed normal-form monomial, or None for a product that vanishes
Term = Optional[tuple[int, Monomial]]


def _pair_family(algebra: AlgebraDescriptor) -> str:
    """Pick the two-index generator family a Z-product should use."""
    families = {g.family for g in algebra.generators}
    for fam in ("zuw", "uv", "vw"):
        if fam in families:
            return fam
    raise ValueError("algebra has no bilinear generator family")


def _term_polynomial(algebra: AlgebraDescriptor, term: Term) -> Polynomial:
    return Polynomial(algebra, {} if term is None else {term[1]: term[0]})


def _z_term(algebra: AlgebraDescriptor, I: Word, J: Word, fam: str) -> Term:
    """Z(I, J) on raw data: the sign (-1)^{sum of p(i_a)p(j_b) over a > b}
    times the Koszul sign of sorting, and the sorted monomial."""
    mono = []
    for i, j in zip(I, J):
        idx = algebra.maybe_index(fam, i, j)
        if idx is None:
            raise KeyError(f"no generator {fam}[{i},{j}]")
        mono.append(idx)
    norm = normalize_product(mono, algebra.parities)
    if norm is None:
        return None
    return norm[0] * (-1) ** cross_parity_count(I, J), norm[1]


def Z_of(
    algebra: AlgebraDescriptor,
    I: Sequence[SuperIndex],
    J: Sequence[SuperIndex],
    family: Optional[str] = None,
) -> Polynomial:
    """Signed product of generators paired along the two sequences:
    (-1)^{sum of p(i_a)p(j_b) over a > b} times the product of z[i_a, j_a]."""
    if len(I) != len(J):
        raise ValueError("sequences must have equal length")
    fam = family or _pair_family(algebra)
    return _term_polynomial(algebra, _z_term(algebra, tuple(I), tuple(J), fam))


def Z_combination(
    algebra: AlgebraDescriptor,
    weighted: Iterable[tuple[Coeff, Word]],
    J: Sequence[SuperIndex],
    family: str,
) -> Polynomial:
    """The sum of c * Z(I, J) over the (c, I) pairs, accumulated in one
    dict and wrapped once.  Every I must have the length of J."""
    J = tuple(J)
    acc: dict[Monomial, Coeff] = {}
    get = acc.get
    for c, I in weighted:
        term = _z_term(algebra, I, J, family)
        if term is not None:
            sign, mono = term
            acc[mono] = get(mono, 0) + c * sign
    return Polynomial(algebra, acc)


def P_t(
    algebra: AlgebraDescriptor,
    t: YoungTableau,
    I: Sequence[SuperIndex],
    J: Sequence[SuperIndex],
    variant: str = "plain",
    family: Optional[str] = None,
) -> Polynomial:
    """Tableau-symmetrized bilinear product: the sum over the row and column
    stabilizers of eps(tau) c(I, (g)^{-1}) Z(g I, J) with g = sigma tau for
    the plain variant and g = tau sigma for the tilde variant."""
    if not (len(I) == len(J) == t.size):
        raise ValueError("sequence lengths must equal the tableau size")
    fam = family or _pair_family(algebra)
    return Z_combination(algebra, _symmetrized_words(t, I, variant), J, fam)


def _symmetrized_words(
    t: YoungTableau, I: Sequence[SuperIndex], variant: str = "plain"
) -> Iterator[tuple[int, Word]]:
    """(eps(tau) c(I, g^{-1}), g I) for every term g of the expanded
    symmetrizer of t.  The row and column stabilizers meet only in the
    identity, so every (sigma, tau) pair is one term with coefficient
    eps(tau), and this is the double sum over the two stabilizers."""
    I = tuple(I)
    parities = [i.parity for i in I]
    at = I.__getitem__
    for inv, eps in young_symmetrizer(t, variant).inverse_terms():
        yield eps * cocycle_sign(parities, inv), tuple(map(at, inv))


def _square_term(algebra: AlgebraDescriptor, I: Sequence[SuperIndex], shifted: bool) -> Term:
    """X (or, `shifted`, Y) on raw data: the product of symmetric-square
    symbols over consecutive pairs of the sequence as a signed monomial;
    None when a vanishing diagonal symbol appears or an odd symbol
    repeats."""
    if len(I) % 2:
        raise ValueError("sequence must have even length")
    sign = 1
    if shifted:
        k = len(I) // 2
        beta = 0
        for a in range(1, k + 1):
            beta += (k - a) * (I[2 * a - 2].parity + I[2 * a - 1].parity)
        sign = (-1) ** beta
    mono = []
    for a in range(0, len(I), 2):
        res = sym_square_index(algebra, I[a], I[a + 1])
        if res is None:
            return None
        s, idx = res
        sign *= s
        mono.append(idx)
    norm = normalize_product(mono, algebra.parities)
    if norm is None:
        return None
    return sign * norm[0], norm[1]


def X_of(algebra: AlgebraDescriptor, I: Sequence[SuperIndex]) -> Polynomial:
    """Product of symmetric-square symbols over consecutive pairs of the
    sequence; zero when a vanishing diagonal symbol appears."""
    return _term_polynomial(algebra, _square_term(algebra, I, shifted=False))


def Y_of(algebra: AlgebraDescriptor, I: Sequence[SuperIndex]) -> Polynomial:
    """Parity-shifted analog of X with the decalage sign
    (-1)^{sum (k - a) (p(i_{2a-1}) + p(i_{2a}))}."""
    return _term_polynomial(algebra, _square_term(algebra, I, shifted=True))


def _square_symmetrized(
    algebra: AlgebraDescriptor,
    t: YoungTableau,
    I: Sequence[SuperIndex],
    shifted: bool,
) -> Polynomial:
    acc: dict[Monomial, Coeff] = {}
    get = acc.get
    for sign, moved in _symmetrized_words(t, I):
        term = _square_term(algebra, moved, shifted)
        if term is not None:
            acc[term[1]] = get(term[1], 0) + sign * term[0]
    return Polynomial(algebra, acc)


def Pf_t(
    algebra: AlgebraDescriptor, t: YoungTableau, I: Sequence[SuperIndex]
) -> Polynomial:
    """Even Pfaffian: tableau-symmetrized product of symmetric-square
    symbols.  Requires all row lengths even."""
    if any(length % 2 for length in t.shape.parts):
        raise ValueError("all row lengths must be even")
    if len(I) != t.size:
        raise ValueError("sequence length must equal tableau size")
    return _square_symmetrized(algebra, t, I, shifted=False)


def frobenius_hook_shape(alphas: Sequence[int]) -> Partition:
    """Shape with arm lengths alphas and leg lengths alphas-1 along the
    diagonal (strictly decreasing positive alphas)."""
    alphas = list(alphas)
    if not alphas or alphas[-1] < 1:
        raise ValueError("arm lengths must be positive")
    for a, b in zip(alphas, alphas[1:]):
        if b >= a:
            raise ValueError("arm lengths must strictly decrease")
    cells = set()
    for i, alpha in enumerate(alphas):
        cells.add((i, i))
        for a in range(1, alpha + 1):
            cells.add((i, i + a))  # arm
        for b in range(1, alpha):
            cells.add((i + b, i))  # leg
    nrows = max(r for r, _ in cells) + 1
    parts = tuple(sum(1 for (r, _) in cells if r == rr) for rr in range(nrows))
    return Partition(parts)


def ppf_tableau(alphas: Sequence[int]) -> YoungTableau:
    """Hook-adapted numbering: odd numbers run down each column from the
    diagonal cell, even numbers run right along each row from the diagonal.
    Consecutive pairs (2a-1, 2a) then couple a leg cell to an arm cell of
    the same hook."""
    shape = frobenius_hook_shape(alphas)
    grid = [[0] * length for length in shape.parts]
    p = len(alphas)
    odd_next = 1
    for c in range(p):
        r = c
        while r < len(shape.parts) and c < shape.parts[r]:
            grid[r][c] = odd_next
            odd_next += 2
            r += 1
    even_next = 2
    for r in range(p):
        for c in range(r + 1, shape.parts[r]):
            grid[r][c] = even_next
            even_next += 2
    return YoungTableau(shape, tuple(tuple(row) for row in grid))


def hook_arm_lengths(shape: Partition) -> list[int]:
    """Arm lengths along the diagonal when the shape has legs one shorter
    than arms; raises otherwise."""
    conj = shape.conjugate()
    p = sum(1 for i in range(len(shape.parts)) if shape.part(i + 1) >= i + 1)
    alphas = []
    for i in range(1, p + 1):
        arm = shape.part(i) - i
        leg = conj.part(i) - i
        if arm < 1 or leg != arm - 1:
            raise ValueError("shape does not have legs one shorter than arms")
        alphas.append(arm)
    if frobenius_hook_shape(alphas) != shape:
        raise ValueError("shape does not have legs one shorter than arms")
    return alphas


def PPf_t(
    algebra: AlgebraDescriptor, t: YoungTableau, I: Sequence[SuperIndex]
) -> Polynomial:
    """Periplectic Pfaffian: tableau-symmetrized product of parity-shifted
    symmetric-square symbols over the hook numbering."""
    hook_arm_lengths(t.shape)
    if len(I) != t.size:
        raise ValueError("sequence length must equal tableau size")
    return _square_symmetrized(algebra, t, I, shifted=True)
