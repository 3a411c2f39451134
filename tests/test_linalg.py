import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superinv.errors import CapExceeded
from superinv.linalg import (
    SpanTracker,
    bareiss_echelon,
    intersect_dims,
    joint_kernel,
    nullspace,
    rank_rows,
)


def test_rank_simple():
    assert rank_rows([[1, 2], [2, 4]]) == 1
    assert rank_rows([[1, 0], [0, 1]]) == 2
    assert rank_rows([[0, 0]]) == 0


def test_rank_fractions():
    assert rank_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1


def test_nullspace_solves():
    rng = random.Random(41)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(m, ncols=ncols)
        # every kernel vector is killed by every row
        for vec in basis:
            for row in m:
                assert sum(row[j] * x for j, x in vec.items()) == 0
        assert len(basis) == ncols - sympy.Matrix(m).rank()


def test_nullspace_empty_matrix():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3


def test_nullspace_deterministic_under_row_shuffle_dimension():
    rng = random.Random(43)
    m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
    d1 = len(nullspace(m, ncols=5))
    rows = m[:]
    rng.shuffle(rows)
    d2 = len(nullspace(rows, ncols=5))
    assert d1 == d2


def test_bareiss_integer_entries():
    m = [[2, 4, 6], [1, 3, 5], [7, 8, 9]]
    ech = bareiss_echelon(m)
    for row in ech.values():
        for x in row.values():
            assert isinstance(x, int)
    assert len(ech) == sympy.Matrix(m).rank()


def test_span_tracker():
    t = SpanTracker()
    assert t.add([1, 0, 0])
    assert not t.add([2, 0, 0])
    assert t.add([0, Fraction(1, 2), 1])
    assert t.contains([3, Fraction(3, 2), 3])
    assert not t.contains([0, 0, 1])
    assert t.rank == 2


def test_intersect_dims():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    assert intersect_dims(a, b) == 1
    assert intersect_dims(a, []) == 0


# small rationals, zero a third of the time so zero rows and sparse rows occur
_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 5))
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=6)), draw(row)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_span_tracker_matches_bareiss_and_sympy(data):
    rows, probe = data
    tracker = SpanTracker()
    grew = [tracker.add(r) for r in rows]
    # the greedy in-order basis: row i grows the span exactly when it raises the rank
    ranks = [0] + [sympy.Matrix(rows[: i + 1]).rank() for i in range(len(rows))]
    assert grew == [ranks[i + 1] > ranks[i] for i in range(len(rows))]
    assert tracker.rank == rank_rows(rows) == ranks[-1]
    assert tracker.contains(probe) == (sympy.Matrix(rows + [probe]).rank() == ranks[-1])
    # sparse keys other than positions give the same answers
    keyed = SpanTracker()
    for r in rows:
        keyed.add({("c", j): x for j, x in enumerate(r)})
    assert keyed.rank == tracker.rank
    assert keyed.contains({("c", j): x for j, x in enumerate(probe)}) == tracker.contains(probe)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_nullspace_matches_sympy(data):
    rows, _ = data
    ncols = len(rows[0])
    ours = [[v.get(j, 0) for j in range(ncols)] for v in nullspace(rows, ncols)]
    theirs = [[Fraction(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(rows).nullspace()]
    assert ours == theirs


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_bareiss_echelon_is_reduced_and_primitive(data):
    rows, _ = data
    ncols = len(rows[0])
    ech = bareiss_echelon(rows)
    assert list(ech) == sorted(ech)
    for p, row in ech.items():
        assert all(type(x) is int for x in row.values())
        assert gcd(*row.values()) == 1
        assert min(row) == p
        assert all(p not in other for q, other in ech.items() if q != p)
    # the rows span the same space as the input
    dense = [[row.get(j, 0) for j in range(ncols)] for row in ech.values()]
    assert len(ech) == sympy.Matrix(rows).rank() == sympy.Matrix(rows + dense).rank()


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_joint_kernel_without_weights_matches_nullspace(data):
    rows, _ = data
    ncols = len(rows[0])
    keys = [(j,) for j in range(ncols)]
    half = len(rows) // 2
    maps = [
        lambda k, part=part: {i: r[k[0]] for i, r in enumerate(part) if r[k[0]]}
        for part in (rows[:half], rows[half:])
    ]
    expected = [{keys[j]: x for j, x in v.items()} for v in nullspace(rows, ncols)]
    assert joint_kernel(keys, maps) == expected


def test_joint_kernel_entry_cap():
    # two kept keys, one image row: 2 entries
    with pytest.raises(CapExceeded):
        joint_kernel([(0,), (1,)], [lambda k: {"u": 1}], entry_cap=1)
    assert len(joint_kernel([(0,), (1,)], [lambda k: {"u": 1}], entry_cap=2)) == 1
    # an explicit zero entry makes no row, so it adds nothing to the count
    assert len(joint_kernel([(0,), (1,)], [lambda k: {"u": 1, "z": 0}], entry_cap=2)) == 1
