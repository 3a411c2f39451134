"""The one coefficient rule shared by the sparse containers (Polynomial,
TensorElement, GroupAlgebraElement, MatrixElement): a coefficient is an
`int` while it is integral and a `Fraction` only after a real division;
floats and other inexact numbers are refused."""

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
