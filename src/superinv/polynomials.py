"""Free supercommutative polynomial algebras with declared generator parities.

Monomials are sorted tuples of generator indices into an algebra descriptor;
the Koszul sign produced by sorting is absorbed into the coefficient, and odd
generators square to zero.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb
from operator import add
from typing import Optional, Sequence

from .alphabet import IndexRange, SuperIndex, sort_is_odd
from .coefficients import Coeff, SparseElement, exact, normalized

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Generator:
    """A single algebra generator: a symbol family tag, its index pair, and
    the parity it carries inside the algebra."""

    family: str
    row: SuperIndex
    col: SuperIndex
    parity: int
    label: str

    def __str__(self) -> str:
        return self.label


class AlgebraDescriptor:
    """Ordered list of generators plus lookup tables.

    The generator order (by family tag, then row, then column) fixes the
    monomial normal form.  The letter ranges the generators were built from
    (inner `v_range`, outer `u_range` and `w_range`) and the symmetric-square
    generator `family` are recorded where the construction has them, and are
    None otherwise.
    """

    def __init__(
        self,
        name: str,
        generators: Sequence[Generator],
        *,
        v_range: Optional[IndexRange] = None,
        u_range: Optional[IndexRange] = None,
        w_range: Optional[IndexRange] = None,
        family: Optional[str] = None,
    ):
        self.name = name
        self.generators = tuple(generators)
        self.v_range = v_range
        self.u_range = u_range
        self.w_range = w_range
        self.family = family
        self.parities = tuple(g.parity for g in self.generators)
        self._lookup: dict[tuple[str, SuperIndex, SuperIndex], int] = {
            (g.family, g.row, g.col): i for i, g in enumerate(self.generators)
        }

    def __len__(self) -> int:
        return len(self.generators)

    def index(self, family: str, row: SuperIndex, col: SuperIndex) -> int:
        return self._lookup[(family, row, col)]

    def maybe_index(self, family: str, row: SuperIndex, col: SuperIndex) -> Optional[int]:
        return self._lookup.get((family, row, col))

    def generator(self, i: int) -> Generator:
        return self.generators[i]

    def zero(self) -> "Polynomial":
        return Polynomial(self)

    def one(self) -> "Polynomial":
        return Polynomial(self, {(): 1})

    def gen(self, i: int) -> "Polynomial":
        return Polynomial(self, {(i,): 1})

    def monomial_str(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        for idx, group in itertools.groupby(mono):
            n = len(list(group))
            lbl = self.generators[idx].label
            parts.append(lbl if n == 1 else f"{lbl}^{n}")
        return "*".join(parts)


def normalize_product(mono: Sequence[int], parities: Sequence[int]) -> Optional[tuple[int, Monomial]]:
    """Sort a generator-index word into normal form.

    Returns (sign, sorted tuple), the sign being the parity of the
    inversions among the odd letters, or None when an odd generator
    repeats.
    """
    odd = [g for g in mono if parities[g]]
    if len(odd) < 2:
        return 1, tuple(sorted(mono))
    if len(set(odd)) < len(odd):
        return None
    return -1 if sort_is_odd(odd) else 1, tuple(sorted(mono))


def _odd_crossings(left: list[int], right: list[int]) -> int:
    """The number of pairs (a in left, b in right) with a > b, for sorted
    lists of distinct odd letters; -1 when the lists share a letter."""
    n = 0
    for b in right:
        k = bisect_right(left, b)
        if k and left[k - 1] == b:
            return -1
        n += len(left) - k
    return n


class Polynomial(SparseElement):
    """Sparse exact element of a free supercommutative algebra.

    Coefficients are `int` while they are integral, `Fraction` only after a
    real division, never `float` (see `superinv.coefficients`).  The
    constructor normalises the given coefficients and drops zeros, so a raw
    accumulation dict may be wrapped as it is.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraDescriptor, terms: dict[Monomial, Coeff] | None = None):
        self.algebra = algebra
        self.terms: dict[Monomial, Coeff] = normalized(terms) if terms else {}

    def _space(self) -> tuple:
        return (self.algebra,)

    def _wrap(self, terms: dict) -> "Polynomial":
        return Polynomial(self.algebra, terms)

    def _label(self, mono: Monomial) -> str:
        return self.algebra.monomial_str(mono)

    def add_term(self, mono: Sequence[int], coeff) -> None:
        """In-place accumulation of a not-necessarily-sorted product."""
        norm = normalize_product(mono, self.algebra.parities)
        if norm is None:
            return
        sign, key = norm
        s = exact(self.terms.get(key, 0) + coeff * sign)
        if s:
            self.terms[key] = s
        else:
            self.terms.pop(key, None)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """The product on normal-form monomials: each key is the sorted
        concatenation, and the Koszul sign counts the odd pairs (a from the
        left, b from the right, a > b), found by bisection in the left
        factor's odd letters.  A repeated odd letter gives zero."""
        if other.algebra is not self.algebra:
            raise ValueError("mixed algebras")
        parities = self.algebra.parities
        right = [(m, c, [g for g in m if parities[g]]) for m, c in other.terms.items()]
        out: dict[Monomial, Coeff] = {}
        get = out.get
        for m1, c1 in self.terms.items():
            odd1 = [g for g in m1 if parities[g]]
            for m2, c2, odd2 in right:
                c = c1 * c2
                if odd1 and odd2:
                    crossings = _odd_crossings(odd1, odd2)
                    if crossings < 0:
                        continue
                    if crossings & 1:
                        c = -c
                key = tuple(sorted(m1 + m2))
                out[key] = get(key, 0) + c
        return Polynomial(self.algebra, out)

    def parity(self) -> Optional[int]:
        """Parity when homogeneous, None otherwise."""
        seen = set()
        for mono in self.terms:
            seen.add(sum(self.algebra.parities[g] for g in mono) % 2)
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 else None

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def is_homogeneous_degree(self, d: int) -> bool:
        return all(len(m) == d for m in self.terms)


# ---------------------------------------------------------------------------
# standard algebra constructions


def _pair_label(symbol: str, row: SuperIndex, col: SuperIndex) -> str:
    return f"{symbol}[{row},{col}]"


def make_mixed_algebra(
    v_range: IndexRange, u_range: IndexRange, w_range: IndexRange
) -> AlgebraDescriptor:
    """The big polynomial algebra with generators u_r x e_i ("uv" family,
    written x[r,i]) and e_i^* x w_s ("vw" family, written x*[i,s])."""
    gens: list[Generator] = []
    for r in u_range:
        for i in v_range:
            gens.append(
                Generator("uv", r, i, (r.parity + i.parity) % 2, _pair_label("x", r, i))
            )
    for i in v_range:
        for s in w_range:
            gens.append(
                Generator("vw", i, s, (i.parity + s.parity) % 2, _pair_label("x*", i, s))
            )
    return AlgebraDescriptor(
        f"A[{u_range}|{v_range}|{w_range}]",
        gens,
        v_range=v_range,
        u_range=u_range,
        w_range=w_range,
    )


def make_uw_algebra(u_range: IndexRange, w_range: IndexRange) -> AlgebraDescriptor:
    """Symmetric algebra on U x W, generators z[r,s]."""
    gens = [
        Generator("zuw", r, s, (r.parity + s.parity) % 2, _pair_label("z", r, s))
        for r in u_range
        for s in w_range
    ]
    return AlgebraDescriptor(
        f"S(U@W)[{u_range}|{w_range}]", gens, u_range=u_range, w_range=w_range
    )


def make_sym_square_algebra(w_range: IndexRange, twisted: bool = False) -> AlgebraDescriptor:
    """Symmetric algebra on the symmetric square of W.

    Generators q[s,t] (s <= t) with parity p(s)+p(t); odd diagonal symbols
    vanish identically and are omitted.  With `twisted` the generators pick
    up the parity shift (family "e2w", written y[s,t]), giving the exterior
    algebra on the symmetric square.
    """
    fam = "e2w" if twisted else "s2w"
    symbol = "y" if twisted else "q"
    shift = 1 if twisted else 0
    gens = []
    letters = w_range.indices()
    for a in range(len(letters)):
        for b in range(a, len(letters)):
            s, t = letters[a], letters[b]
            if a == b and s.parity:
                continue  # odd diagonal of the symmetric square is zero
            gens.append(
                Generator(fam, s, t, (s.parity + t.parity + shift) % 2, _pair_label(symbol, s, t))
            )
    return AlgebraDescriptor(
        f"{'E' if twisted else 'S'}(S2W)[{w_range}]", gens, w_range=w_range, family=fam
    )


def sym_square_index(
    algebra: AlgebraDescriptor, s: SuperIndex, t: SuperIndex
) -> Optional[tuple[int, int]]:
    """Canonical generator for the symmetric-square symbol with indices
    (s, t): returns (sign, generator index) or None when the symbol is zero.

    The sign implements q[s,t] = (-1)^{p(s)p(t)} q[t,s]; it is insensitive to
    the parity twist, which only changes the symbol's algebra parity.
    """
    fam = algebra.family
    if s <= t:
        idx = algebra.maybe_index(fam, s, t)
        return None if idx is None else (1, idx)
    idx = algebra.maybe_index(fam, t, s)
    if idx is None:
        return None
    return ((-1) ** (s.parity * t.parity), idx)


def count_monomials_of_degree(algebra: AlgebraDescriptor, degree: int) -> int:
    """len(monomials_of_degree(algebra, degree)), with no weights, in closed
    form: j distinct odd generators times a multiset of degree - j even
    ones."""
    odd = sum(algebra.parities)
    even = len(algebra.parities) - odd
    return sum(
        comb(odd, j) * (comb(even + degree - j - 1, degree - j) if degree > j else 1)
        for j in range(min(degree, odd) + 1)
    )


def monomials_of_degree(
    algebra: AlgebraDescriptor, degree: int, weights: Sequence[Sequence] = ()
) -> list[Monomial]:
    """The normal-form monomials of the given total degree, in increasing
    (lexicographic) order.

    Each of `weights` gives one weight per generator, a monomial's weight
    being the sum over its factors; with weights, only the monomials of
    weight zero under all of them are returned.  The walk appends generator
    indices in nondecreasing order, odd ones at most once, and carries the
    running weight.  It cuts a branch only when the r letters still to come,
    taken from the current index on, cannot bring some coordinate back to
    zero: r times the suffix minimum and maximum of that coordinate bound
    what they can add.  The last two letters are one lookup, by the weight
    they must cancel, in a table of every admissible pair built once per
    call (meet in the middle: Horowitz-Sahni, J. ACM 21, 1974).
    """
    if degree <= 0:
        return [()] if degree == 0 else []
    parities = algebra.parities
    n = len(parities)
    vecs = list(zip(*weights)) if weights else [()] * n
    if degree == 1:
        return [(i,) for i, vec in enumerate(vecs) if not any(vec)]
    # per coordinate, the least and greatest weight from each index on
    lo, hi = vecs[:], vecs[:]
    for i in reversed(range(n - 1)):
        lo[i] = tuple(map(min, vecs[i], lo[i + 1]))
        hi[i] = tuple(map(max, vecs[i], hi[i + 1]))
    # the last two letters must cancel the running weight exactly
    ends: dict[tuple, tuple[list[int], list[Monomial]]] = {}
    for i in range(n):
        for j in range(i + parities[i], n):
            firsts, pairs = ends.setdefault(tuple(map(add, vecs[i], vecs[j])), ([], []))
            firsts.append(i)
            pairs.append((i, j))

    def feasible(start: int, r: int, acc: tuple) -> bool:
        return start < n and all(
            r * a <= -w <= r * b for w, a, b in zip(acc, lo[start], hi[start])
        )

    out: list[Monomial] = []

    def walk(start: int, r: int, prefix: Monomial, acc: tuple) -> None:
        if r == 2:
            firsts, pairs = ends.get(tuple(-w for w in acc), ((), ()))
            out.extend(prefix + pair for pair in pairs[bisect_left(firsts, start):])
            return
        for j in range(start, n):
            nxt = j + parities[j]
            step = tuple(map(add, acc, vecs[j]))
            if feasible(nxt, r - 1, step):
                walk(nxt, r - 1, prefix + (j,), step)

    zero = (0,) * len(weights)
    if feasible(0, degree, zero):
        walk(0, degree, (), zero)
    return out
