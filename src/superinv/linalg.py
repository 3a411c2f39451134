"""Exact rational linear algebra: fraction-free elimination, ranks,
nullspaces, joint kernels and span membership.

Dense matrices are lists of rows.  `SpanTracker` and `joint_kernel` work on
sparse vectors: dicts from any hashable coordinate to an entry.  Entries are
ints or Fractions; elimination runs on primitive integer rows (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import CapExceeded


def _primitive(values: Sequence) -> list[int]:
    """The values times the one positive rational that makes them coprime
    integers: denominators cleared, content divided out."""
    den = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (den // x.denominator) for x in values]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _primitive_terms(v: dict) -> dict:
    return dict(zip(v, _primitive(list(v.values()))))


def bareiss_echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gaussian elimination (Bareiss).

    Returns the echelon matrix over the integers together with the list of
    pivot columns.  Pivoting is deterministic: first nonzero entry scanning
    rows in order.
    """
    m = [_primitive(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank_rows(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(bareiss_echelon(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {x : M x = 0}, one vector per free column.

    Vectors are normalised so the free coordinate equals 1; deterministic
    (free columns in increasing order).
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    ncols = len(rows[0]) if ncols is None else ncols
    ech, pivots = bareiss_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        # back substitution over the pivot rows
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if vec[j]:
                    s += Fraction(ech[i][j]) * vec[j]
            vec[pc] = -s / ech[i][pc]
        basis.append(vec)
    return basis


def joint_kernel(
    keys: Iterable[tuple],
    weights: Sequence[Mapping[Hashable, object]],
    maps: Sequence[Callable[[tuple], Mapping]],
    entry_cap: int | None = None,
) -> list[dict]:
    """Basis of the vectors on `keys` that every map sends to zero.

    A key is a tuple of factors.  Each of `weights` is a diagonal map given
    by its weight on each factor, a key's weight being the sum over its
    factors; only keys of weight zero under all of them can appear in the
    kernel, so the rest are dropped first.  Each of `maps` sends a key to its
    sparse image.  The basis is `nullspace` of the stacked images on the kept
    keys, as one dict per free key.  CapExceeded is raised, before any dense
    row is built, when the stacked matrix would exceed `entry_cap` entries.
    """
    kept = [k for k in keys if all(sum(w.get(f, 0) for f in k) == 0 for w in weights)]
    if not kept:
        return []
    rows: list[dict] = []
    for f in maps:
        images: dict = {}
        for i, k in enumerate(kept):
            for u, c in f(k).items():
                images.setdefault(u, {})[i] = c
        rows.extend(images.values())
    ncols = len(kept)
    if entry_cap is not None and len(rows) * ncols > entry_cap:
        raise CapExceeded("action matrix", len(rows) * ncols, entry_cap)
    dense = [[row.get(i, 0) for i in range(ncols)] for row in rows]
    return [{kept[i]: x for i, x in enumerate(vec) if x} for vec in nullspace(dense, ncols)]


def _cancel(v: dict, row: dict, p) -> None:
    """v becomes a*v - b*row, in place, with the least a > 0 that makes the
    integer combination clear coordinate p."""
    a, b = row[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for k in v:
            v[k] *= a
    for k, x in row.items():
        y = v.get(k, 0) - b * x
        if y:
            v[k] = y
        else:
            del v[k]


class SpanTracker:
    """Incremental row space: add vectors, query membership and rank.

    A vector is a dict from hashable coordinates to exact numbers; a
    sequence is read as a dict keyed by position.  Stored rows are primitive
    integer rows keyed by their pivot coordinate, reduced fraction-free, and
    a row's pivot appears in no other stored row.  Rank, membership and
    which added vectors grow the span do not depend on the pivots chosen.
    """

    def __init__(self) -> None:
        self.rows: dict[Hashable, dict[Hashable, int]] = {}

    def _reduce(self, vec: Mapping | Sequence) -> dict:
        items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
        v = _primitive_terms({k: x for k, x in items if x})
        for p in [k for k in v if k in self.rows]:
            _cancel(v, self.rows[p], p)
        return v

    def contains(self, vec: Mapping | Sequence) -> bool:
        return not self._reduce(vec)

    def add(self, vec: Mapping | Sequence) -> bool:
        """Insert the vector; returns True when it enlarges the span."""
        v = self._reduce(vec)
        if not v:
            return False
        v = _primitive_terms(v)
        p = next(iter(v))
        for q, row in self.rows.items():
            if p in row:
                _cancel(row, v, p)
                self.rows[q] = _primitive_terms(row)
        self.rows[p] = v
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def intersect_dims(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence], ncols: int) -> int:
    """Dimension of the intersection of two spans."""
    ra = rank_rows(list(basis_a)) if basis_a else 0
    rb = rank_rows(list(basis_b)) if basis_b else 0
    if ra == 0 or rb == 0:
        return 0
    rab = rank_rows(list(basis_a) + list(basis_b))
    return ra + rb - rab
