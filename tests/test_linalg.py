import random
from fractions import Fraction

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
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
        assert len(basis) == ncols - rank_rows(m)


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
    ech, pivots = bareiss_echelon(m)
    for row in ech:
        for x in row:
            assert isinstance(x, int)
    assert len(pivots) == rank_rows(m)


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
    assert intersect_dims(a, b, 3) == 1
    assert intersect_dims(a, [], 3) == 0


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
    assert grew == [rank_rows(rows[: i + 1]) > rank_rows(rows[:i]) for i in range(len(rows))]
    assert tracker.rank == rank_rows(rows) == sympy.Matrix(rows).rank()
    assert tracker.contains(probe) == (rank_rows(rows + [probe]) == rank_rows(rows))
    # sparse keys other than positions give the same answers
    keyed = SpanTracker()
    for r in rows:
        keyed.add({("c", j): x for j, x in enumerate(r)})
    assert keyed.rank == tracker.rank
    assert keyed.contains({("c", j): x for j, x in enumerate(probe)}) == tracker.contains(probe)


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
    expected = [{keys[j]: x for j, x in enumerate(v) if x} for v in nullspace(rows, ncols)]
    assert joint_kernel(keys, [], maps) == expected


def test_joint_kernel_entry_cap():
    # two kept keys, one image row: 2 entries
    with pytest.raises(CapExceeded):
        joint_kernel([(0,), (1,)], [], [lambda k: {"u": 1}], entry_cap=1)
    assert len(joint_kernel([(0,), (1,)], [], [lambda k: {"u": 1}], entry_cap=2)) == 1
