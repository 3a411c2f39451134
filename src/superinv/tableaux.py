"""Partitions, Young tableaux and semistandard fillings over the super-alphabet."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .alphabet import EVEN, ODD, IndexRange, SuperIndex, Word


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        for p in self.parts:
            if p <= 0:
                raise ValueError("parts must be positive")
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p > c) for c in range(cols)))

    def cells(self) -> Iterator[tuple[int, int]]:
        """0-indexed (row, col) pairs, row-major."""
        for r, length in enumerate(self.parts):
            for c in range(length):
                yield (r, c)

    def part(self, i: int) -> int:
        """i-th part, 1-indexed, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def fits_hook(self, even: int, odd: int) -> bool:
        """Whether the shape has a semistandard filling over `even` even and
        `odd` odd letters: it fits that hook, so part even+1 is at most odd."""
        return self.part(even + 1) <= odd

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def enumerate_partitions(size: int, max_rows: Optional[int] = None) -> list[Partition]:
    """All partitions of `size` with at most `max_rows` rows, largest-first
    order."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    rows = size if max_rows is None else max_rows
    out: list[Partition] = []

    def rec(remaining: int, bound: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if len(prefix) >= rows:
            return
        for part in range(min(remaining, bound), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(size, size, [])
    return out


@dataclass(frozen=True)
class YoungTableau:
    """A partition shape with a bijective numbering by 1..size."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(len(r) for r in self.rows) != self.shape.parts:
            raise ValueError("rows do not match shape")
        seen = sorted(itertools.chain.from_iterable(self.rows))
        if seen != list(range(1, self.shape.size + 1)):
            raise ValueError("entries must be a bijection onto 1..size")

    @property
    def size(self) -> int:
        return self.shape.size

    def cells(self) -> Iterator[tuple[int, int]]:
        return self.shape.cells()

    def position_of(self) -> dict[int, tuple[int, int]]:
        """Map cell number -> (row, col)."""
        return {self.rows[r][c]: (r, c) for r, c in self.cells()}

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.rows if c < len(row))

    def columns(self) -> list[tuple[int, ...]]:
        ncols = self.shape.parts[0] if self.shape.parts else 0
        return [self.column(c) for c in range(ncols)]

    def __str__(self) -> str:
        return " / ".join(",".join(map(str, row)) for row in self.rows)


def fill_rows(shape: Partition) -> YoungTableau:
    """Number the cells consecutively along rows."""
    rows = []
    n = 1
    for length in shape.parts:
        rows.append(tuple(range(n, n + length)))
        n += length
    return YoungTableau(shape, tuple(rows))


def _hook_product(shape: Partition) -> int:
    conj = shape.conjugate().parts
    return math.prod(shape.parts[r] - c + conj[c] - r - 1 for r, c in shape.cells())


def count_standard_tableaux(shape: Partition) -> int:
    """f^lambda, the number of standard tableaux of the shape, by the
    hook-length formula: n! over the product of the hook lengths."""
    return math.factorial(shape.size) // _hook_product(shape)


def enumerate_standard_tableaux(shape: Partition) -> list[YoungTableau]:
    """All standard numberings, in the order produced by growing the tableau
    cell by cell (deterministic)."""
    if shape.size == 0:
        raise ValueError("shape must be nonempty")
    parts = shape.parts
    out: list[YoungTableau] = []
    grid = [[0] * length for length in parts]
    # cells filled in each row; a cell (r, c) is addable when row r is
    # shorter than its part and than the row above
    lengths = [0] * len(parts)

    def rec(n: int):
        if n > shape.size:
            out.append(YoungTableau(shape, tuple(map(tuple, grid))))
            return
        for r, length in enumerate(parts):
            c = lengths[r]
            if c < length and (r == 0 or lengths[r - 1] > c):
                grid[r][c] = n
                lengths[r] += 1
                rec(n + 1)
                lengths[r] -= 1

    rec(1)
    return out


def _check_filling(
    grid: list[list[Optional[SuperIndex]]], r: int, c: int, val: SuperIndex
) -> bool:
    """Semistandard constraints against the already-filled left and upper
    neighbours: weak increase both ways, odd strict in rows, even strict in
    columns."""
    if c > 0:
        left = grid[r][c - 1]
        if left is not None:
            if val < left:
                return False
            if val == left and val.parity == ODD:
                return False
    if r > 0 and c < len(grid[r - 1]):
        up = grid[r - 1][c]
        if up is not None:
            if val < up:
                return False
            if val == up and val.parity == EVEN:
                return False
    return True


def is_semistandard(t: YoungTableau, word: Sequence[SuperIndex]) -> bool:
    """Place letter alpha in the cell numbered alpha and test the
    semistandard conditions."""
    if len(word) != t.size:
        raise ValueError("sequence length must equal tableau size")
    grid: list[list[Optional[SuperIndex]]] = [[None] * len(row) for row in t.rows]
    for num, (r, c) in t.position_of().items():
        grid[r][c] = word[num - 1]
    for r, row in enumerate(grid):
        for c, val in enumerate(row):
            if val is None:
                raise AssertionError("the tableau's numbering misses a cell")
            if not _check_filling(grid, r, c, val):
                return False
    return True


def enumerate_semistandard(t: YoungTableau, index_range: IndexRange) -> list[Word]:
    """All t-semistandard sequences over the range.

    Fillings are generated cell by cell in row-major order; each filling is
    read off through t's numbering to give the sequence.
    """
    parts = t.shape.parts
    letters = index_range.indices()
    grid: list[list[Optional[SuperIndex]]] = [[None] * length for length in parts]
    cells = list(t.shape.cells())
    pos = t.position_of()
    out: list[Word] = []

    def rec(k: int):
        if k == len(cells):
            word = [None] * t.size
            for num, (r, c) in pos.items():
                word[num - 1] = grid[r][c]
            out.append(tuple(word))
            return
        r, c = cells[k]
        for val in letters:
            if _check_filling(grid, r, c, val):
                grid[r][c] = val
                rec(k + 1)
                grid[r][c] = None

    rec(0)
    return out


def _determinant(matrix: list[list[int]]) -> int:
    """An integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


def _inner_shapes(parts: Sequence[int], rows: int, strip: int, bound: int) -> list[tuple]:
    """The shapes mu inside `parts`, below `bound` in their first row, with
    at most `rows` rows and at most `strip` cells of each row outside mu,
    in decreasing lexicographic order.  Each shape is built once, at its
    leaf."""
    out: list[tuple] = []

    def grow(at: int, rows: int, bound: int, prefix: tuple) -> None:
        if not rows or at == len(parts):
            # the parts do not increase, so the first one left is the longest
            if at == len(parts) or parts[at] <= strip:
                out.append(prefix)
            return
        for first in range(min(parts[at], bound), max(parts[at] - strip, 0) - 1, -1):
            grow(at + 1, rows - 1 if first else 0, first, prefix + (first,) if first else prefix)

    grow(0, rows, bound, ())
    return out


def count_semistandard(shape: Partition, index_range: IndexRange) -> int:
    """Number of semistandard fillings of the shape; independent of the
    numbering used to read them off.  Nothing is enumerated.

    The m even letters fill a shape mu inside the shape, counted by the
    hook-content formula: the product over the cells of (m + c)/h, with
    content c = column - row and hook length h.  The n odd letters fill the
    skew shape outside mu, strict along rows and weak down columns, so they
    fill the conjugate skew shape semistandardly, counted by Jacobi-Trudi:
    det[C(n, lambda_i - mu_j - i + j)] over the rows, or, when the shape
    has more rows than columns, det[C(n + k - 1, k)] with
    k = lambda'_i - mu'_j - i + j over the columns.  The count sums the
    products over mu; a range of one parity has a single mu."""
    if shape.size == 0:
        return 1
    even, odd = index_range.even_count, index_range.odd_count
    outer, conj = shape.parts, shape.conjugate().parts
    by_rows = len(outer) <= len(conj)
    if by_rows:
        lam, entry = outer, lambda k: math.comb(odd, k) if k >= 0 else 0
    else:
        lam, entry = conj, lambda k: math.comb(odd + k - 1, k) if k > 0 else int(k == 0)
    total = 0
    for inner in _inner_shapes(outer, even, odd, outer[0]):
        mu = Partition(inner)
        nu = inner if by_rows else mu.conjugate().parts
        nu += (0,) * (len(lam) - len(nu))
        skew = [[entry(lam[i] - nu[j] - i + j) for j in range(len(lam))] for i in range(len(lam))]
        evens = math.prod(even + c - r for r, c in mu.cells()) // _hook_product(mu)
        total += evens * _determinant(skew)
    return total
