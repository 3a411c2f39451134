"""The one coefficient rule and the one arithmetic core (`SparseElement`)
shared by the sparse containers (Polynomial, TensorElement,
GroupAlgebraElement, MatrixElement): a coefficient is an `int` while it is
integral and a `Fraction` only after a real division; floats and other
inexact numbers are refused."""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

Coeff = int | Fraction


def exact(c) -> Coeff:
    """An exact coefficient: int when integral, Fraction otherwise.  Floats
    and other inexact numbers raise TypeError."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient must be int or Fraction, not {type(c).__name__}")
    return int(c) if c.denominator == 1 else Fraction(c)


def normalized(terms: dict) -> dict:
    """The nonzero entries of a raw coefficient dict, each made exact."""
    out = {}
    for key, c in terms.items():
        c = exact(c)
        if c:
            out[key] = c
    return out


def add_scaled(acc: dict, terms: dict, c: Coeff = 1) -> None:
    """acc += c * terms on raw coefficient dicts, in place.  Zero sums are
    left in `acc`; the container constructor that wraps it drops them."""
    get = acc.get
    for key, v in terms.items():
        acc[key] = get(key, 0) + v * c


class SparseElement:
    """The arithmetic the sparse containers share, over a `terms` dict of
    nonzero exact coefficients.  A container supplies three things: its
    space key `_space()` (elements add and compare only within one space),
    `_wrap(terms)` (an element of the same space around a raw dict, through
    the container's own constructor), and `_label(key)` (how a key prints)."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other._space() == self._space()
            and other.terms == self.terms
        )

    def _summed(self, other: "SparseElement", c: Coeff):
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(f"cannot add {type(self).__name__}s of different spaces")
        out = dict(self.terms)
        add_scaled(out, other.terms, c)
        return self._wrap(out)

    def __add__(self, other):
        return self._summed(other, 1)

    def __sub__(self, other):
        return self._summed(other, -1)

    def scale(self, c):
        c = exact(c)
        return self._wrap({key: v * c for key, v in self.terms.items()} if c else {})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        s = " ".join(
            f"{'+' if c > 0 else '-'} {abs(c)}*{self._label(key)}"
            for key, c in sorted(self.terms.items())
        )
        return s[2:] if s.startswith("+ ") else s

    __repr__ = __str__
