"""The named polynomial families: signed products Z(I,J), their tableau
symmetrizations P_t / P~_t, even Pfaffians, and periplectic Pfaffians; each
symmetrization moves its sequence one tableau block at a time
(`permutations.symmetrize`) and pairs each distinct moved word once."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .alphabet import SuperIndex, Word
from .coefficients import Coeff
from .permutations import symmetrize
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
    return Z_combination(algebra, [(tuple(I), 1)], J, family or _pair_family(algebra))


def Z_combination(
    algebra: AlgebraDescriptor,
    weighted: Iterable[tuple[Word, Coeff]],
    J: Sequence[SuperIndex],
    family: str,
) -> Polynomial:
    """The sum of c * Z(I, J) over the (I, c) pairs, accumulated in one
    dict and wrapped once.  Every I must have the length of J.

    Position a of J gets one table, letter i -> the index of the generator
    family[i, J[a]], and one set, the odd letters that pass an odd number
    of odd J letters before a: the sign (-1)^{sum of p(i_a)p(j_b) over
    a > b} is -1 exactly when an odd number of I's letters fall in their
    position's set.  A letter with no generator raises KeyError."""
    columns: dict[SuperIndex, dict[SuperIndex, int]] = {}
    for idx, g in enumerate(algebra.generators):
        if g.family == family:
            columns.setdefault(g.col, {})[g.row] = idx
    tables, crossing = [], []
    odd_before = 0
    for j in J:
        table = columns.get(j, {})
        tables.append(table)
        crossing.append(frozenset(i for i in table if i.parity & odd_before))
        odd_before ^= j.parity
    parities = algebra.parities
    acc: dict[Monomial, Coeff] = {}
    get = acc.get
    for I, c in weighted:
        try:
            mono = list(map(dict.__getitem__, tables, I))
        except KeyError:
            i, j = next((i, j) for i, j, table in zip(I, J, tables) if i not in table)
            raise KeyError(f"no generator {family}[{i},{j}]") from None
        norm = normalize_product(mono, parities)
        if norm is not None:
            sign, key = norm
            if sum(map(frozenset.__contains__, crossing, I)) & 1:
                sign = -sign
            acc[key] = get(key, 0) + c * sign
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
    return next(P_t_rows(algebra, t, [I], [J], variant, family))[0]


def P_t_rows(
    algebra: AlgebraDescriptor,
    t: YoungTableau,
    Is: Iterable[Sequence[SuperIndex]],
    Js: Sequence[Sequence[SuperIndex]],
    variant: str = "plain",
    family: Optional[str] = None,
) -> Iterator[list[Polynomial]]:
    """One row per I, in order: P_t(I, J) for every J of `Js`.  Each I is
    symmetrized once and its moved words are paired against every J."""
    fam = family or _pair_family(algebra)
    for I in Is:
        moved = symmetrize(t, variant, {tuple(I): 1}).items()
        yield [Z_combination(algebra, moved, J, fam) for J in Js]


def _square_term(algebra: AlgebraDescriptor, I: Sequence[SuperIndex], shifted: bool) -> Term:
    """X (or, `shifted`, the parity-shifted Y with the decalage sign
    (-1)^{sum (k - a) (p(i_{2a-1}) + p(i_{2a}))}) on raw data: the product
    of symmetric-square symbols over consecutive pairs of the sequence as a
    signed monomial; None when a vanishing diagonal symbol appears or an
    odd symbol repeats."""
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


def _square_symmetrized(
    algebra: AlgebraDescriptor,
    t: YoungTableau,
    I: Sequence[SuperIndex],
    shifted: bool,
) -> Polynomial:
    acc: dict[Monomial, Coeff] = {}
    get = acc.get
    for moved, c in symmetrize(t, "plain", {tuple(I): 1}).items():
        term = _square_term(algebra, moved, shifted)
        if term is not None:
            acc[term[1]] = get(term[1], 0) + c * term[0]
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
