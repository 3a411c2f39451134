"""Partitions, Young tableaux and semistandard fillings over the super-alphabet."""

from __future__ import annotations

import itertools
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

    def is_standard(self) -> bool:
        for r, row in enumerate(self.rows):
            for c, val in enumerate(row):
                if c + 1 < len(row) and row[c + 1] <= val:
                    return False
                if r + 1 < len(self.rows) and c < len(self.rows[r + 1]) and self.rows[r + 1][c] <= val:
                    return False
        return True

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.rows if c < len(row))

    def columns(self) -> list[tuple[int, ...]]:
        ncols = self.shape.parts[0] if self.shape.parts else 0
        return [self.column(c) for c in range(ncols)]

    def relabel(self, images: Sequence[int]) -> "YoungTableau":
        """Apply a permutation to the entries: number a becomes images[a-1]+1
        (0-indexed permutation of 0..size-1)."""
        return YoungTableau(
            self.shape,
            tuple(tuple(images[v - 1] + 1 for v in row) for row in self.rows),
        )

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


def enumerate_standard_tableaux(shape: Partition) -> list[YoungTableau]:
    """All standard numberings, in the order produced by growing the tableau
    cell by cell (deterministic)."""
    if shape.size == 0:
        raise ValueError("shape must be nonempty")
    parts = shape.parts
    out: list[YoungTableau] = []
    filled: dict[tuple[int, int], int] = {}

    def corners() -> list[tuple[int, int]]:
        spots = []
        for r, length in enumerate(parts):
            c = sum(1 for (rr, _) in filled if rr == r)
            if c < length and (r == 0 or sum(1 for (rr, _) in filled if rr == r - 1) > c):
                spots.append((r, c))
        return spots

    def rec(n: int):
        if n > shape.size:
            grid = [[0] * length for length in parts]
            for (r, c), v in filled.items():
                grid[r][c] = v
            out.append(YoungTableau(shape, tuple(tuple(row) for row in grid)))
            return
        for r, c in corners():
            filled[(r, c)] = n
            rec(n + 1)
            del filled[(r, c)]

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
            assert val is not None
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


def count_semistandard(shape: Partition, index_range: IndexRange) -> int:
    """Number of semistandard fillings of the shape; independent of the
    numbering used to read them off."""
    if shape.size == 0:
        return 1
    return len(enumerate_semistandard(fill_rows(shape), index_range))
