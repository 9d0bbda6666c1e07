from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmebound.errors import InvalidInputError
from gmebound.indices import (
    cut_labels,
    cut_masks,
    digit_strings,
    parse_index,
    place_values,
    rank_digits,
    rank_positions,
)
from gmebound.witness import PairSet


def _text(rank: int, n: int, d: int) -> str:
    """The big-endian base-d digits of rank, by repeated division."""
    digits = []
    for _ in range(n):
        rank, x = divmod(rank, d)
        digits.append(str(x))
    return "".join(reversed(digits))


def test_multiindex_string_roundtrip():
    eta = parse_index("0211", 3, 4)
    assert eta == (0, 2, 1, 1)
    assert digit_strings(np.array([eta]) @ place_values(4, 3), 4, 3) == ["0211"]


def test_multiindex_rank_roundtrip():
    eta = parse_index("102", 3, 3)
    rank = int(np.array(eta) @ place_values(3, 3))
    assert rank == 1 * 9 + 0 * 3 + 2
    assert rank_digits(np.array([rank]), 3, 3).tolist() == [list(eta)]


@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_rank_bijection(d, n, data):
    rank = data.draw(st.integers(0, d**n - 1))
    digits = rank_digits(np.array([rank]), n, d)
    assert digits.tolist() == [list(parse_index(_text(rank, n, d), d, n))]
    assert (digits @ place_values(n, d)).tolist() == [rank]


def test_multiindex_rejects_digit_out_of_range():
    with pytest.raises(InvalidInputError, match=r"^digits \(0, 2, 1\) out of range for d=2$"):
        parse_index("021", 2, 3)
    with pytest.raises(InvalidInputError, match="^index '01' has length 2, expected 3$"):
        parse_index("01", 2, 3)


@pytest.mark.parametrize(
    "text, d, n, message",
    [
        ("0\u0661", 2, 2, "index '0\u0661' contains a non-digit"),
        ("0x", 2, 2, "index '0x' contains a non-digit"),
        ("01", 1, 2, "local dimension must be >= 2, got 1"),
        ("", 2, 0, "empty digit tuple"),
        # with two faults, the first checked is named: length, non-digit, d,
        # empty, range
        ("0\u0661", 1, 3, "index '0\u0661' has length 2, expected 3"),
        ("2x", 1, 2, "index '2x' contains a non-digit"),
        ("2", 1, 1, "local dimension must be >= 2, got 1"),
        ("", 1, 0, "local dimension must be >= 2, got 1"),
    ],
)
def test_parse_index_refusals_come_in_order(text, d, n, message):
    with pytest.raises(InvalidInputError) as info:
        parse_index(text, d, n)
    assert str(info.value) == message


def test_indexpair_canonical_order():
    r = PairSet.from_strings([["10", "01"]], 2, 2)
    assert r.as_strings() == [["01", "10"]]
    assert r.digits.tolist() == PairSet.from_strings([["01", "10"]], 2, 2).digits.tolist()


def test_indexpair_rejects_equal_strings():
    with pytest.raises(InvalidInputError, match=r"^pair members must differ, got \(01, 01\)$"):
        PairSet.from_strings([["01", "01"]], 2, 2)


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
    rank = int("".join(map(str, digits)), d)
    assert int(np.array(digits) @ place_values(n, d)) == rank
    assert rank_digits(np.array([rank]), n, d).tolist() == [list(digits)]


def test_place_values_switch_to_python_ints_beyond_int64():
    assert place_values(63, 2).dtype == np.int64  # the largest rank is 2**63 - 1
    assert place_values(64, 2).dtype == object
    assert place_values(19, 10).dtype == object
    digits = (1,) * 64
    assert np.array(digits) @ place_values(64, 2) == int("1" * 64, 2) == 2**64 - 1


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
    """Rank arrays print their base-d digits, also past int64 (object ranks),
    and parse back to the same rows."""
    ranks = [0, 1, d**n // 3, d**n - 1]
    array = np.array(ranks, dtype=object if d**n > 2**63 else np.int64)
    texts = digit_strings(array, n, d)
    assert texts == [_text(r, n, d) for r in ranks]
    rows = rank_digits(array, n, d).tolist()
    assert [parse_index(t, d, n) for t in texts] == [tuple(row) for row in rows]
