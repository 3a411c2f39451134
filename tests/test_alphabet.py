from hypothesis import given
from hypothesis import strategies as st

from superinv.alphabet import (
    IndexRange,
    SuperIndex,
    all_words,
    ev,
    mutual_parity_count,
    od,
    parity_of_word,
    sort_is_odd,
)
from reference import cross_parity_count


def test_order_even_below_odd():
    assert ev(5) < od(1)
    assert ev(1) < ev(2)
    assert od(1) < od(2)
    assert not od(1) < ev(9)


def test_equality_needs_parity():
    assert ev(3) != od(3)
    assert ev(3) == SuperIndex(0, 3)


def test_index_range_enumeration():
    r = IndexRange(2, 1)
    assert r.indices() == (ev(1), ev(2), od(1))
    assert r.size == 3
    assert od(1) in r
    assert od(2) not in r


def test_parity_of_word():
    assert parity_of_word([ev(1), od(1)]) == 1
    assert parity_of_word([od(1), od(2)]) == 0


def test_mutual_parity_count_matches_bruteforce():
    words = list(all_words(IndexRange(1, 2), 4))
    for w in words[:50]:
        brute = sum(
            w[a].parity * w[b].parity for a in range(4) for b in range(a + 1, 4)
        )
        assert mutual_parity_count(w) == brute


def test_cross_parity_count_matches_bruteforce():
    r = IndexRange(1, 1)
    for left in all_words(r, 3):
        for right in all_words(r, 3):
            brute = sum(
                left[a].parity * right[b].parity
                for a in range(3)
                for b in range(3)
                if a > b
            )
            assert cross_parity_count(left, right) == brute


def test_all_words_count():
    assert len(list(all_words(IndexRange(1, 1), 3))) == 8


def bubble_swaps(values) -> int:
    """Adjacent swaps a bubble sort makes to sort `values`."""
    items, swaps = list(values), 0
    for end in range(len(items) - 1, 0, -1):
        for i in range(end):
            if items[i] > items[i + 1]:
                items[i], items[i + 1] = items[i + 1], items[i]
                swaps += 1
    return swaps


@given(st.lists(st.integers(-20, 20), max_size=8, unique=True))
def test_sort_is_odd_is_the_bubble_sort_parity_on_ints(values):
    assert sort_is_odd(values) == (bubble_swaps(values) % 2 == 1)
    assert sort_is_odd(tuple(values)) == sort_is_odd(values)


@given(
    st.lists(
        st.builds(SuperIndex, st.integers(0, 1), st.integers(1, 5)), max_size=8, unique=True
    )
)
def test_sort_is_odd_is_the_bubble_sort_parity_on_letters(letters):
    assert sort_is_odd(letters) == (bubble_swaps(letters) % 2 == 1)
