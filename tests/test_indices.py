from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmebound.errors import InvalidInputError
from gmebound.indices import (
    IndexPair,
    MultiIndex,
    cut_labels,
    cut_masks,
    digit_strings,
    place_values,
    rank_digits,
    rank_positions,
)


def test_multiindex_string_roundtrip():
    eta = MultiIndex.from_string("0211", 3)
    assert eta.digits == (0, 2, 1, 1)
    assert str(eta) == "0211"
    assert eta.n == 4 and eta.d == 3


def test_multiindex_rank_roundtrip():
    eta = MultiIndex.from_string("102", 3)
    assert eta.rank == 1 * 9 + 0 * 3 + 2
    assert MultiIndex.from_rank(eta.rank, 3, 3) == eta


@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_rank_bijection(d, n, data):
    digits = tuple(data.draw(st.integers(0, d - 1)) for _ in range(n))
    eta = MultiIndex(digits, d)
    assert MultiIndex.from_rank(eta.rank, n, d) == eta


def test_multiindex_rejects_digit_out_of_range():
    with pytest.raises(InvalidInputError):
        MultiIndex.from_string("021", 2)
    with pytest.raises(InvalidInputError):
        MultiIndex.from_string("01", 2, n=3)


def test_indexpair_canonical_order():
    a = MultiIndex.from_string("10", 2)
    b = MultiIndex.from_string("01", 2)
    pair = IndexPair.of(a, b)
    assert str(pair.first) == "01" and str(pair.second) == "10"
    assert pair == IndexPair.of(b, a)


def test_indexpair_rejects_equal_strings():
    a = MultiIndex.from_string("01", 2)
    with pytest.raises(InvalidInputError):
        IndexPair.of(a, a)


@pytest.mark.parametrize("n", range(2, 11))
def test_cut_masks_follow_size_then_lexicographic_order(n):
    """Row g of cut_masks marks the parties of the g-th canonical cut."""
    want = [
        (1,) + extra for size in range(1, n) for extra in combinations(range(2, n + 1), size - 1)
    ]
    masks = cut_masks(n)
    assert masks.shape == (2 ** (n - 1) - 1, n)
    assert [tuple(int(p) for p in np.flatnonzero(row) + 1) for row in masks] == want


@given(st.integers(2, 3), st.integers(1, 5), st.data())
def test_place_values_give_the_rank(d, n, data):
    digits = tuple(data.draw(st.integers(0, d - 1)) for _ in range(n))
    assert int(np.array(digits) @ place_values(n, d)) == MultiIndex(digits, d).rank
    assert rank_digits(np.array([MultiIndex(digits, d).rank]), n, d).tolist() == [list(digits)]


def test_place_values_switch_to_python_ints_beyond_int64():
    assert place_values(63, 2).dtype == np.int64  # the largest rank is 2**63 - 1
    assert place_values(64, 2).dtype == object
    assert place_values(19, 10).dtype == object
    digits = (1,) * 64
    assert np.array(digits) @ place_values(64, 2) == MultiIndex(digits, 2).rank == 2**64 - 1


@pytest.mark.parametrize("n, base", [(4, 3), (64, 2)])
def test_place_values_are_one_read_only_array_per_shape(n, base):
    values = place_values(n, base)
    assert place_values(n, base) is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0


def test_rank_positions_mark_absent_ranks():
    got = rank_positions(np.array([2, 5, 9]), np.array([[9, 3], [2, 10]]))
    assert got.tolist() == [[2, -1], [0, -1]]


@pytest.mark.parametrize("n", range(2, 13))
def test_cut_labels_match_bipartition_labels(n):
    """One label per canonical cut, by size and then lexicographically: the
    side with party 1, a bar, the rest; from n = 10 on the party numbers run
    together."""
    want = []
    for size in range(1, n):
        for extra in combinations(range(2, n + 1), size - 1):
            side = (1,) + extra
            rest = [p for p in range(1, n + 1) if p not in side]
            want.append("".join(map(str, side)) + "|" + "".join(map(str, rest)))
    assert list(cut_labels(n)) == want


@pytest.mark.parametrize("n, d", [(3, 2), (4, 3), (5, 10), (19, 10), (64, 2)])
def test_digit_strings_match_multiindex(n, d):
    """Rank arrays print as MultiIndex does, also past int64 (object ranks)."""
    ranks = [0, 1, d**n // 3, d**n - 1]
    array = np.array(ranks, dtype=object if d**n > 2**63 else np.int64)
    assert digit_strings(array, n, d) == [str(MultiIndex.from_rank(r, n, d)) for r in ranks]
