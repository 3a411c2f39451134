import itertools
import math

import pytest

from superinv.alphabet import IndexRange, ev, od
from superinv.tableaux import (
    Partition,
    YoungTableau,
    _inner_shapes,
    count_semistandard,
    count_standard_tableaux,
    enumerate_partitions,
    enumerate_semistandard,
    enumerate_standard_tableaux,
    fill_rows,
    is_semistandard,
)
from reference import is_standard


def brute_force_partitions(size):
    """Oracle: filter weakly decreasing tuples out of all compositions."""
    if size == 0:
        return [()]
    found = set()
    for ncuts in range(size):
        for cuts in itertools.combinations(range(1, size), ncuts):
            pieces = []
            prev = 0
            for cut in cuts + (size,):
                pieces.append(cut - prev)
                prev = cut
            if all(a >= b for a, b in zip(pieces, pieces[1:])):
                found.add(tuple(pieces))
    return sorted(found, reverse=True)


def test_partitions_empty():
    assert enumerate_partitions(0) == [Partition(())]


def test_partitions_of_three():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_bounded_rows():
    assert [p.parts for p in enumerate_partitions(4, max_rows=2)] == [(4,), (3, 1), (2, 2)]


@pytest.mark.parametrize("size", range(7))
def test_partitions_against_bruteforce(size):
    assert [p.parts for p in enumerate_partitions(size)] == brute_force_partitions(size)


def test_conjugate():
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition((2, 2)).conjugate().parts == (2, 2)


def brute_force_standard(shape):
    """Oracle: all bijective fillings, filtered for growth along rows/columns."""
    size = shape.size
    out = []
    for perm in itertools.permutations(range(1, size + 1)):
        rows = []
        k = 0
        for length in shape.parts:
            rows.append(tuple(perm[k : k + length]))
            k += length
        t = YoungTableau(shape, tuple(rows))
        if is_standard(t):
            out.append(t)
    return out


def test_standard_single_column():
    ts = enumerate_standard_tableaux(Partition((1, 1)))
    assert len(ts) == 1
    assert ts[0].rows == ((1,), (2,))


def test_standard_counts():
    assert len(enumerate_standard_tableaux(Partition((2, 1)))) == 2
    assert len(enumerate_standard_tableaux(Partition((2, 2)))) == 2


def test_standard_against_bruteforce_all_shapes_up_to_six():
    for size in range(1, 7):
        for shape in enumerate_partitions(size):
            mine = enumerate_standard_tableaux(shape)
            oracle = brute_force_standard(shape)
            assert len(mine) == len(oracle) == count_standard_tableaux(shape), shape
            assert {t.rows for t in mine} == {t.rows for t in oracle}
            assert all(is_standard(t) for t in mine)


def rescanning_standard_tableaux(shape):
    """The enumeration that finds each row's fill count by rescanning every
    filled cell at every step: the same recursion, in O(cells^3)."""
    parts = shape.parts
    out = []
    filled = {}

    def corners():
        spots = []
        for r, length in enumerate(parts):
            c = sum(1 for (rr, _) in filled if rr == r)
            if c < length and (r == 0 or sum(1 for (rr, _) in filled if rr == r - 1) > c):
                spots.append((r, c))
        return spots

    def rec(n):
        if n > shape.size:
            grid = [[0] * length for length in parts]
            for (r, c), v in filled.items():
                grid[r][c] = v
            out.append(YoungTableau(shape, tuple(tuple(row) for row in grid)))
            return
        for r, c in corners():
            filled[(r, c)] = n
            rec(n + 1)
            del filled[(r, c)]

    rec(1)
    return out


def test_standard_tableaux_in_the_rescanning_order_up_to_seven_cells():
    """Per-row fill counts give the same tableaux in the same order."""
    for size in range(1, 8):
        for shape in enumerate_partitions(size):
            assert enumerate_standard_tableaux(shape) == rescanning_standard_tableaux(shape)


def recursive_inner_shapes(parts, rows, strip, bound):
    """The inner-shape generator that builds each shape on the way back up,
    one level at a time: the reference for the leaf-built list."""
    if not rows or not parts:
        if all(p <= strip for p in parts):
            yield ()
        return
    for first in range(min(parts[0], bound), max(parts[0] - strip, 0) - 1, -1):
        for rest in recursive_inner_shapes(parts[1:], rows - 1 if first else 0, strip, first):
            yield (first, *rest) if first else ()


def test_inner_shapes_match_the_recursive_generator_up_to_eight_cells():
    for size in range(9):
        for shape in enumerate_partitions(size):
            parts = shape.parts
            for rows, strip in itertools.product(range(5), repeat=2):
                for bound in {parts[0] if parts else 0, max(size - 1, 0)}:
                    assert _inner_shapes(parts, rows, strip, bound) == list(
                        recursive_inner_shapes(parts, rows, strip, bound)
                    )


def fill_columns(shape):
    """Number the cells consecutively down columns, left to right (no caller
    in the package)."""
    grid = [[0] * length for length in shape.parts]
    n = 1
    for c, height in enumerate(shape.conjugate().parts):
        for r in range(height):
            grid[r][c] = n
            n += 1
    return YoungTableau(shape, tuple(tuple(row) for row in grid))


def test_fillings():
    t = fill_rows(Partition((3, 2)))
    assert t.rows == ((1, 2, 3), (4, 5))
    t = fill_columns(Partition((3, 2)))
    assert t.rows == ((1, 3, 5), (2, 4))


def test_semistandard_row_pair():
    row2 = fill_rows(Partition((2,)))
    assert is_semistandard(row2, (ev(1), ev(1)))
    assert not is_semistandard(row2, (od(1), od(1)))


def test_semistandard_column_pair():
    col2 = fill_rows(Partition((1, 1)))
    assert not is_semistandard(col2, (ev(1), ev(1)))
    assert is_semistandard(col2, (od(1), od(1)))


def test_enumerate_semistandard_row_of_k():
    r = IndexRange(1, 1)
    for k in range(1, 5):
        t = fill_rows(Partition((k,)))
        words = enumerate_semistandard(t, r)
        assert len(words) == 2  # all 1s, or all 1s ending with a single 1'
        assert all(is_semistandard(t, w) for w in words)


def test_enumerate_semistandard_column_small_range():
    t = fill_rows(Partition((1, 1)))
    assert enumerate_semistandard(t, IndexRange(1, 0)) == []


def test_enumerate_semistandard_single_cell():
    t = fill_rows(Partition((1,)))
    assert len(enumerate_semistandard(t, IndexRange(2, 3))) == 5


def test_semistandard_matches_filter_oracle():
    from superinv.alphabet import all_words

    r = IndexRange(1, 1)
    for parts in [(2,), (1, 1), (2, 1), (2, 2)]:
        t = fill_rows(Partition(parts))
        mine = set(enumerate_semistandard(t, r))
        oracle = {w for w in all_words(r, t.size) if is_semistandard(t, w)}
        assert mine == oracle


def test_semistandard_count_filling_independent():
    r = IndexRange(2, 1)
    shape = Partition((2, 1))
    counts = {
        len(enumerate_semistandard(t, r)) for t in enumerate_standard_tableaux(shape)
    }
    assert len(counts) == 1
    assert counts.pop() == count_semistandard(shape, r)


def test_emptiness_criterion():
    # fillings exist over (n|m) exactly when the shape fits the hook: the
    # (n+1)-th part is at most m
    for parts in [(2,), (1, 1), (2, 2), (3, 2), (2, 2, 2), (1, 1, 1)]:
        shape = Partition(parts)
        for n, m in [(1, 0), (1, 1), (2, 1), (0, 2), (2, 0)]:
            empty = count_semistandard(shape, IndexRange(n, m)) == 0
            assert empty == (shape.part(n + 1) > m)
            assert shape.fits_hook(n, m) == (not empty)


def test_pure_range_counts_match_enumeration_up_to_six_cells():
    """Over even letters alone the count is the hook-content formula, over
    odd letters alone the formula for the conjugate shape; both agree with
    the enumeration for every shape up to six cells, including the ranges
    the shape does not fit."""
    for size in range(1, 7):
        for shape in enumerate_partitions(size):
            t = fill_rows(shape)
            for k in range(4):
                for r in (IndexRange(k, 0), IndexRange(0, k)):
                    assert count_semistandard(shape, r) == len(enumerate_semistandard(t, r)), (
                        shape,
                        r,
                    )


def test_one_row_of_forty_over_ten_even_letters_is_a_binomial():
    """A row of 40 over ten even letters is a multiset: C(49, 9) fillings,
    counted without enumerating them."""
    assert count_semistandard(Partition((40,)), IndexRange(10, 0)) == 2_054_455_634
    assert count_semistandard(Partition((1,) * 40), IndexRange(0, 10)) == 2_054_455_634


def test_mixed_range_counts_match_enumeration():
    """Over even and odd letters the count sums, over the shapes mu the even
    letters fill, the hook-content count of mu times the Jacobi-Trudi count
    of the odd letters outside it; it agrees with the enumeration for every
    shape up to six cells over at most two letters of each parity (shapes
    with more rows than columns take the conjugate determinant), and on
    (20) and (12,2) over (3|3)."""
    for size in range(1, 7):
        for shape in enumerate_partitions(size):
            t = fill_rows(shape)
            for r in itertools.starmap(IndexRange, itertools.product(range(3), repeat=2)):
                assert count_semistandard(shape, r) == len(enumerate_semistandard(t, r)), (shape, r)
    for parts, count in [((20,), 1_602), ((12, 2), 6_336)]:
        shape = Partition(parts)
        assert count_semistandard(shape, IndexRange(3, 3)) == count
        assert len(enumerate_semistandard(fill_rows(shape), IndexRange(3, 3))) == count


def test_mixed_range_counts_are_not_enumerated(monkeypatch):
    """A row of 40 over (5|5): j odd letters, each at most once, and 40 - j
    even ones, sum_j C(5, j) C(44 - j, 4) fillings; a column of 500 over
    (5|5): k even letters, each at most once, and 500 - k odd ones, counted
    through the conjugate determinant.  Nothing is enumerated."""
    import superinv.tableaux as tableaux_module

    def fail(*args):
        raise AssertionError("enumerate_semistandard must not run")

    monkeypatch.setattr(tableaux_module, "enumerate_semistandard", fail)
    row = sum(math.comb(5, j) * math.comb(44 - j, 4) for j in range(6))
    assert row == 3_424_002
    assert count_semistandard(Partition((40,)), IndexRange(5, 5)) == row
    column = sum(math.comb(5, k) * math.comb(504 - k, 4) for k in range(6))
    assert count_semistandard(Partition((1,) * 500), IndexRange(5, 5)) == column
