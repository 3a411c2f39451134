"""Permutations, the sign cocycle on super-words, the one cocycle-weighted
loop that lets permutations act on blocks of word dicts (`act_on_block`),
and Young symmetrizers, expanded (`young_symmetrizer`) or applied to words
block by block (`symmetrize`).

Composition convention: (sigma * tau)(x) = sigma(tau(x)).  All formulas
that permute words are validated against the cocycle identity
c(I, sigma tau) = c(sigma^{-1} I, tau) c(I, sigma).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .alphabet import SuperIndex, Word
from .coefficients import Coeff, SparseElement, exact, normalized
from .errors import CapExceeded
from .tableaux import YoungTableau

SYMMETRIZER_TERM_CAP = 5_000_000
# group-algebra products compose images through bytes.translate's 256-entry table
GROUP_ALGEBRA_MAX_DEGREE = 256


@dataclass(frozen=True, slots=True)
class Permutation:
    """Permutation of {0..k-1}, stored as the image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation")

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(tuple(range(k)))

    @staticmethod
    def transposition(k: int, a: int, b: int) -> "Permutation":
        images = list(range(k))
        images[a], images[b] = images[b], images[a]
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        return Permutation(inverse_images(self.images))

    def sign(self) -> int:
        inv = 0
        im = self.images
        for a in range(len(im)):
            for b in range(a + 1, len(im)):
                if im[a] > im[b]:
                    inv += 1
        return -1 if inv % 2 else 1

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def inverse_images(images: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for x, y in enumerate(images):
        inv[y] = x
    return tuple(inv)


def cocycle_sign(parities: Sequence[int], images: Sequence[int]) -> int:
    """cocycle() on raw data: `parities[x]` is the parity of the word's
    letter at position x and `images` is the image tuple of sigma."""
    odd = [y for y in images if parities[y]]
    count = 0
    for a, y in enumerate(odd):
        for z in odd[a + 1 :]:
            if y > z:
                count += 1
    return -1 if count % 2 else 1


def act_on_word(sigma: Permutation, word: Word) -> Word:
    """(sigma I)_a = I_{sigma^{-1}(a)}: the letter at position a moves to
    position sigma(a)."""
    if sigma.degree != len(word):
        raise ValueError("length mismatch")
    return tuple(map(word.__getitem__, inverse_images(sigma.images)))


def cocycle(word: Sequence[SuperIndex], sigma: Permutation) -> int:
    """Sign relating the reordered supercommutative product to the original:
    the parity of the number of odd/odd inversions of sigma with respect to
    the word's parities."""
    if sigma.degree != len(word):
        raise ValueError("length mismatch")
    return cocycle_sign([x.parity for x in word], sigma.images)


class GroupAlgebraElement(SparseElement):
    """Sparse rational combination of permutations of a fixed degree.

    Coefficients are exact: `int` while they are integral, `Fraction` only
    after a real division (such as `scale(Fraction(1, c))`), never `float`.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Permutation, Coeff] | None = None):
        self.degree = degree
        if terms and any(perm.degree != degree for perm in terms):
            raise ValueError("degree mismatch")
        self.terms: dict[Permutation, Coeff] = normalized(terms) if terms else {}

    @classmethod
    def _adopt(
        cls, degree: int, terms: dict[Permutation, Coeff]
    ) -> "GroupAlgebraElement":
        """Wrap a dict of nonzero exact coefficients without copying it."""
        out = cls.__new__(cls)
        out.degree = degree
        out.terms = terms
        return out

    @staticmethod
    def unit(degree: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(degree, {Permutation.identity(degree): 1})

    def __len__(self) -> int:
        return len(self.terms)

    def _space(self) -> tuple:
        return (self.degree,)

    def _wrap(self, terms: dict) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.degree, terms)

    _label = staticmethod(repr)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        # Images are byte strings: p1 * p2 is p2's string translated through a
        # table of p1's images, and Counter tallies the products in C, so
        # Python steps run per (left term, right coefficient), never per pair.
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        k = self.degree
        if k > GROUP_ALGEBRA_MAX_DEGREE:
            raise ValueError(
                f"group-algebra products need degree <= {GROUP_ALGEBRA_MAX_DEGREE}, got {k}"
            )
        right: dict[Coeff, list[bytes]] = {}
        for p2, c2 in other.terms.items():
            right.setdefault(c2, []).append(bytes(p2.images))
        pad = bytes(GROUP_ALGEBRA_MAX_DEGREE - k)
        tallies: defaultdict[Coeff, Counter] = defaultdict(Counter)
        for p1, c1 in self.terms.items():
            table = bytes(p1.images) + pad
            for c2, ims in right.items():
                tallies[c1 * c2].update(map(bytes.translate, ims, itertools.repeat(table)))
        out: dict[bytes, Coeff] = {}
        get = out.get
        for c, tally in tallies.items():
            for im, n in tally.items():
                out[im] = get(im, 0) + c * n
        return GroupAlgebraElement._adopt(
            k, {Permutation(tuple(im)): exact(c) for im, c in out.items() if c}
        )

    def inverse_terms(self) -> Iterator[tuple[tuple[int, ...], Coeff]]:
        """(image tuple of sigma^{-1}, coefficient) for every term sigma: the
        one inverse that both the cocycle and the moved word need."""
        return ((inverse_images(p.images), c) for p, c in self.terms.items())

    def apply_to_word(self, word: Word) -> dict[Word, Coeff]:
        """Action on tensor words: sigma . v_I = c(I, sigma^{-1}) v_{sigma I},
        extended linearly with like-term collection."""
        if len(word) != self.degree:
            raise ValueError("length mismatch")
        parities = [x.parity for x in word]
        at = word.__getitem__
        out: dict[Word, Coeff] = {}
        for inv, coeff in self.inverse_terms():
            target = tuple(map(at, inv))
            out[target] = out.get(target, 0) + coeff * cocycle_sign(parities, inv)
        return {w: c for w, c in out.items() if c}


def _block_group(blocks: Iterable[Sequence[int]], degree: int) -> list[Permutation]:
    """Direct product of symmetric groups on disjoint position blocks."""
    blocks = [list(b) for b in blocks if len(b) > 0]
    perms: list[Permutation] = []
    pools = [list(itertools.permutations(b)) for b in blocks]
    for choice in itertools.product(*pools):
        images = list(range(degree))
        for block, arranged in zip(blocks, choice):
            for src, dst in zip(block, arranged):
                images[src] = dst
        perms.append(Permutation(tuple(images)))
    perms.sort()
    return perms


def row_blocks(t: YoungTableau) -> list[list[int]]:
    """0-indexed position blocks of the rows."""
    return [[v - 1 for v in row] for row in t.rows]


def column_blocks(t: YoungTableau) -> list[list[int]]:
    return [[v - 1 for v in col] for col in t.columns()]


def row_group(t: YoungTableau) -> list[Permutation]:
    return _block_group(row_blocks(t), t.size)


def column_group(t: YoungTableau) -> list[Permutation]:
    return _block_group(column_blocks(t), t.size)


def symmetrizer_term_count(t: YoungTableau) -> int:
    """Terms of the expanded symmetrizer: the orders of the row and column
    stabilizers, multiplied, since the two groups meet only in the identity."""
    return math.prod(
        math.factorial(len(b)) for b in row_blocks(t) + column_blocks(t)
    )


def check_symmetrizer_cap(t: YoungTableau, cap: int = SYMMETRIZER_TERM_CAP) -> None:
    """Raise CapExceeded when the expanded symmetrizer of t exceeds `cap`."""
    size = symmetrizer_term_count(t)
    if size > cap:
        raise CapExceeded("symmetrizer terms", size, cap)


def young_symmetrizer(
    t: YoungTableau, variant: str = "plain", cap: int = SYMMETRIZER_TERM_CAP
) -> GroupAlgebraElement:
    """Fully expanded symmetrizer: sum of eps(tau) sigma tau over the row and
    column stabilizers ("plain"), or with the factors reversed ("tilde").
    The term count is checked against `cap` before any group is built."""
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    check_symmetrizer_cap(t, cap)
    rows = [sigma.images for sigma in row_group(t)]
    terms: dict[tuple[int, ...], int] = {}
    for tau in column_group(t):
        eps = tau.sign()
        col = tau.images
        for row in rows:
            if variant == "plain":
                prod = tuple(map(row.__getitem__, col))
            else:
                prod = tuple(map(col.__getitem__, row))
            terms[prod] = terms.get(prod, 0) + eps
    return GroupAlgebraElement._adopt(
        t.size, {Permutation(im): c for im, c in terms.items() if c}
    )


@functools.lru_cache(maxsize=16)
def _block_plan(t: YoungTableau, variant: str) -> tuple:
    """The symmetrizer of t as commuting block sums in the order they act:
    columns then rows ("plain"), or rows then columns ("tilde"), each an
    `act_on_block` step over all of t's positions (a column block
    interleaves with positions it fixes) with coefficient eps(pi)."""
    cols = [(_block_group([b], t.size), True) for b in column_blocks(t) if len(b) > 1]
    rows = [(_block_group([b], t.size), False) for b in row_blocks(t) if len(b) > 1]
    return tuple(
        ([(inverse_images(p.images), p.sign() if signed else 1) for p in group], {})
        for group, signed in (cols + rows if variant == "plain" else rows + cols)
    )


def act_on_block(plan: Iterable[tuple[list, dict]], terms: dict, start: int, size: int) -> dict:
    """Let each step of `plan` act in turn, by the cocycle-weighted word
    action sigma . v_I = c(I, sigma^{-1}) v_{sigma I}, on positions
    start .. start+size of a raw {word: coeff} dict of letter words; a
    tensor's word is a letter word too, the element's `signature` marks the
    dual positions.  A step is its (image tuple of pi^{-1}, coefficient)
    list and a dict of those coefficients with the cocycle folded in, per
    parity pattern of the block; an entry is a pure function of its key, so
    concurrent callers may both fill it.  Each step walks its permutations
    outside and the words inside, merging like words and dropping zeros."""
    end, first = start + size, operator.itemgetter(0)
    if any(len(w) < end for w in terms):
        raise ValueError("length mismatch")
    for perms, by_pattern in plan:
        if not terms:
            break
        words = []
        for w, c in terms.items():
            block = w[start:end]
            # a letter is (parity, value)
            pattern = tuple(map(first, block))
            signed = by_pattern.get(pattern)
            if signed is None:
                signed = by_pattern[pattern] = [
                    coeff * cocycle_sign(pattern, inv) for inv, coeff in perms
                ]
            words.append((w[:start], block.__getitem__, w[end:], c, signed))
        out: dict = {}
        get = out.get
        for j, (inv, _) in enumerate(perms):
            for head, at, tail, c, signed in words:
                nw = head + tuple(map(at, inv)) + tail
                out[nw] = get(nw, 0) + c * signed[j]
        terms = {w: c for w, c in out.items() if c}
    return terms


def symmetrize(t: YoungTableau, variant: str, terms: dict, start: int = 0) -> dict:
    """apply_group_algebra(young_symmetrizer(t, variant), x) on a raw
    {word: coeff} dict, t acting on the positions from `start` (see
    `act_on_block`).  The word action is a representation, so the block
    sums act one at a time; the expanded size is checked first."""
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    check_symmetrizer_cap(t)
    return normalized(act_on_block(_block_plan(t, variant), terms, start, t.size))
