"""Ordered super-alphabet: indices split into an even and an odd copy of the
positive integers, with every even index smaller than every odd one."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

EVEN = 0
ODD = 1


class SuperIndex(NamedTuple):
    """A letter of the super-alphabet: a positive integer with a parity.

    Tuple order is (parity, value), so the natural tuple comparison realises
    the alphabet order: even letters first, then odd, each copy by value.
    """

    parity: int
    value: int

    def __str__(self) -> str:
        return f"{self.value}'" if self.parity else f"{self.value}"

    def conjugate(self) -> "SuperIndex":
        """Same value in the opposite copy."""
        return SuperIndex(1 - self.parity, self.value)


def ev(value: int) -> SuperIndex:
    return SuperIndex(EVEN, value)


def od(value: int) -> SuperIndex:
    return SuperIndex(ODD, value)


class IndexRange(NamedTuple):
    """The alphabet fragment {1..even_count} + {1'..odd_count}."""

    even_count: int
    odd_count: int

    @property
    def size(self) -> int:
        return self.even_count + self.odd_count

    def __iter__(self) -> Iterator[SuperIndex]:
        for v in range(1, self.even_count + 1):
            yield SuperIndex(EVEN, v)
        for v in range(1, self.odd_count + 1):
            yield SuperIndex(ODD, v)

    def __contains__(self, idx: object) -> bool:
        if not isinstance(idx, SuperIndex):
            return False
        bound = self.odd_count if idx.parity else self.even_count
        return 1 <= idx.value <= bound

    def indices(self) -> tuple[SuperIndex, ...]:
        return tuple(self)


Word = tuple[SuperIndex, ...]


def parity_of_word(items: Iterable[SuperIndex]) -> int:
    """Total parity of a sequence of letters."""
    p = 0
    for idx in items:
        p ^= idx.parity
    return p


def sort_is_odd(values: Sequence) -> bool:
    """Whether the permutation that sorts `values`, distinct and comparable,
    is odd: the parity of its inversion count, the one sort sign behind
    permutation signs, cocycles and Koszul signs."""
    odd = False
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            if a > b:
                odd = not odd
    return odd


def mutual_parity_count(items: Iterable[SuperIndex]) -> int:
    """Number of unordered odd/odd pairs: the exponent usually written
    as a sum of p(i_a)p(i_b) over a < b."""
    odd_seen = 0
    total = 0
    for idx in items:
        if idx.parity:
            total += odd_seen
            odd_seen += 1
    return total


def all_words(index_range: IndexRange, length: int) -> Iterator[Word]:
    """All length-`length` words over the range, in alphabet order."""
    yield from itertools.product(index_range.indices(), repeat=length)
