"""Exact rational linear algebra: one fraction-free elimination behind
ranks, nullspaces, joint kernels and span membership.

Vectors are sparse, as dicts from coordinates to ints or Fractions.
`SpanTracker` keeps their span as a reduced row echelon form of integer
rows, eliminated fraction-free (Bareiss, Math. Comp. 22, 1968): each row is
renormalised by its gcd, and denominators are cleared only when a row
arrives holding a Fraction.  Ranks and nullspaces are read off that form,
with no dense matrix and no floating point.

This module is the only place that turns images into equation rows, and
each job has one entry point: a kernel comes from `joint_kernel`, a
one-shot rank from `rank_rows`, and `SpanTracker` is used directly only
where rows stream in or membership is tested incrementally.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import CapExceeded


def _primitive(values: Sequence) -> list[int]:
    """The values times the one positive rational that makes them coprime
    integers: denominators cleared, content divided out."""
    den = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (den // x.denominator) for x in values]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _primitive_terms(v: dict) -> dict:
    """The dict's values made coprime integers, as `_primitive` makes them.
    An integer row is divided by its gcd, and is returned itself when that
    is 1, so callers pass a dict they own or only read; a row that holds a
    Fraction (which `gcd` refuses) has its denominators cleared first."""
    try:
        g = gcd(*v.values())
    except TypeError:
        return dict(zip(v, _primitive(list(v.values()))))
    return {k: x // g for k, x in v.items()} if g > 1 else v


def bareiss_echelon(rows: Sequence[Mapping | Sequence]) -> dict[Hashable, dict[Hashable, int]]:
    """The reduced row echelon form of the rows' span, fraction-free: one
    primitive integer row per pivot, in increasing pivot order."""
    tracker = SpanTracker()
    for row in rows:
        tracker.add(row)
    return dict(sorted(tracker.rows.items()))


def rank_rows(rows: Iterable[Mapping | Sequence]) -> int:
    return len(bareiss_echelon(list(rows)))


def nullspace(rows: Sequence[Mapping | Sequence], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel {x : M x = 0} on columns 0..ncols-1, one
    sparse vector per free column f: x_f = 1, the other free coordinates 0,
    and x_p = -row[f] / row[p] for each pivot row.  Free columns come in
    increasing order, and each vector's keys too."""
    ech = bareiss_echelon(rows)
    basis: dict[int, dict[int, Fraction]] = {f: {} for f in range(ncols) if f not in ech}
    for p, row in ech.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = Fraction(-x, row[p])
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    return list(basis.values())


def joint_kernel(
    keys: Iterable[Hashable],
    images: Callable[[Hashable], Sequence[Mapping]],
    entry_cap: int | None = None,
) -> list[dict]:
    """Basis of the vectors on `keys` that every condition sends to zero.

    `images(key)` returns the key's sparse image under each condition, in
    one fixed order, so a batched action builds them all in one walk.  The
    images are stacked condition by condition with zero entries dropped, so
    a coordinate becomes an equation row only where some key reaches it;
    the basis is `nullspace` of that matrix, one dict per free key, in key
    order.  CapExceeded is raised, before any elimination, when the matrix
    would exceed `entry_cap` entries.  Any finite keys work: weight-zero
    monomials or words, the matrix units of a parity block, support indices.
    """
    kept = list(keys)
    conditions: dict = {}
    for i, k in enumerate(kept):
        for j, image in enumerate(images(k)):
            for u, c in image.items():
                if c:
                    conditions.setdefault(j, {}).setdefault(u, {})[i] = c
    rows = [row for j in sorted(conditions) for row in conditions[j].values()]
    if entry_cap is not None and len(rows) * len(kept) > entry_cap:
        raise CapExceeded("action matrix", len(rows) * len(kept), entry_cap)
    return [{kept[i]: x for i, x in vec.items()} for vec in nullspace(rows, len(kept))]


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

    A vector is a dict from hashable, mutually comparable coordinates to
    exact numbers; a sequence is read as a dict keyed by position.  Stored
    rows are primitive integer rows keyed by their pivot, which is the row's
    least coordinate and appears in no other stored row: the rows are the
    reduced row echelon form of the span, each up to a nonzero scale.
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
        p = min(v)
        for q, row in self.rows.items():
            if p in row:
                _cancel(row, v, p)
                self.rows[q] = _primitive_terms(row)
        self.rows[p] = v
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

