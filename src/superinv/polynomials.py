"""Free supercommutative polynomial algebras with declared generator parities.

Monomials are sorted tuples of generator indices into an algebra descriptor;
the Koszul sign produced by sorting is absorbed into the coefficient, and odd
generators square to zero.  Products and the derivation walk pack them
into integers (`pack`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
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


def field_width(degree: int) -> int:
    """Bits per exponent field when no exponent exceeds `degree`."""
    return degree.bit_length() or 1


def pack(terms: dict, width: int, parities: Sequence[int]) -> dict:
    """The terms keyed by product keys: the exponent of generator g in the
    field at bit n + g*width, above an n-bit mask of the odd factors, so a
    product's key is the sum.  A degree too high for `width` raises."""
    n, out = len(parities), {}
    for mono, c in terms.items():
        if len(mono) >> width:
            raise ValueError(f"degree {len(mono)} overflows {width}-bit exponent fields")
        fields = odd = 0
        for g in mono:
            fields += 1 << width * g
            odd |= parities[g] << g
        out[fields << n | odd] = c
    return out


@lru_cache(maxsize=1 << 14)
def unpacked(fields: int, width: int) -> Monomial:
    """The sorted generator tuple of exponent fields packed at `width`: field
    by field over at most four generators, else as two cached halves."""
    if not fields:
        return ()
    top, low = (fields.bit_length() - 1) // width, ((fields & -fields).bit_length() - 1) // width
    if top - low < 4:
        full = (1 << width) - 1
        return tuple(g for g in range(low, top + 1) for _ in range(fields >> width * g & full))
    high = -1 << width * ((low + top + 1) // 2)
    return unpacked(fields & ~high, width) + unpacked(fields & high, width)


def unpack(terms: dict, width: int, n: int) -> dict[Monomial, Coeff]:
    """Terms keyed by product keys over n generators keyed by tuples, in order."""
    high = -1 << width * (n // 2)
    return {
        unpacked((f := k >> n) & ~high, width) + unpacked(f & high, width): c
        for k, c in terms.items()
    }


def packed_product(left: dict, right: dict, n: int) -> dict:
    """The nonzero terms, made exact, of the product of two term dicts
    packed over n generators at a width its degree fits, in pair order.  A
    pair's key is the sum of keys, zero when the odd masks o1, o2 meet; its
    sign is the parity of the odd pairs a > b (a in o1, b in o2), that is of
    o1 & the xor over b in o2 of the bits above b."""
    low = (1 << n) - 1
    rows = []
    for key, c in right.items():
        odd, above = key & low, 0
        while odd:
            bit = odd & -odd
            above ^= -(bit << 1)
            odd ^= bit
        rows.append((key, c, key & low, above & low))
    out: dict[int, Coeff] = {}
    get = out.get
    for k1, c1 in left.items():
        for k2, c2, odd, above in rows:
            if not k1 & odd:
                key = k1 + k2
                out[key] = get(key, 0) + (-c1 * c2 if (k1 & above).bit_count() & 1 else c1 * c2)
    return normalized(out)


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
        """The product through packed monomials (`packed_product`)."""
        if other.algebra is not self.algebra:
            raise ValueError("mixed algebras")
        parities, n = self.algebra.parities, len(self.algebra)
        width = field_width(self.degree() + other.degree())
        left, right = (pack(f.terms, width, parities) for f in (self, other))
        return Polynomial(self.algebra, unpack(packed_product(left, right, n), width, n))

    def parity(self) -> Optional[int]:
        """Parity when homogeneous, None otherwise."""
        seen = set()
        for mono in self.terms:
            seen.add(sum(self.algebra.parities[g] for g in mono) % 2)
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 else None

    def degree(self) -> int:
        return max(map(len, self.terms), default=0)

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
