"""Basis indices, bipartitions, and their integer-array forms.

Conventions used throughout the package:

* parties are 1-based, ``1 .. n``;
* a basis index is a length-``n`` digit row over ``{0 .. d-1}``, big-endian
  (leftmost digit = party 1), written as a bare digit string like ``"0011"``
  and read by :func:`parse_index`;
* a bipartition gamma|gamma-bar is a length-``n`` 0/1 mask row marking the
  parties of gamma; canonically gamma is the side that contains party 1, so
  there are ``2**(n-1) - 1`` of them, the rows of :func:`cut_masks`.

Past the parser everything works on integer arrays: a basis index is its rank
(see :func:`rank_dtype`) and a set of indices is a ``(k, n)`` digit array.  A
cut exchanges the digits of an index pair at its parties, which on ranks moves
the place-valued digit differences at those parties from one rank to the other
(``witness._images``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InvalidInputError

# array code works through its largest (rows x columns) products in chunks of
# about this many entries, so that no temporary outgrows ~128 kB of int64
CHUNK_ENTRIES = 1 << 14


def _chunks(count: int, width: int) -> list[slice]:
    """Slices of ``range(count)``, each small enough that a (block, width)
    temporary stays near CHUNK_ENTRIES."""
    step = max(1, CHUNK_ENTRIES // width)
    return [slice(start, start + step) for start in range(0, count, step)]


def parse_index(text: str, d: int, n: int) -> tuple[int, ...]:
    """The digit row of a bare digit string such as ``"0011"``: ``n`` digits,
    each in ``[0, d)``."""
    if len(text) != n:
        raise InvalidInputError(f"index '{text}' has length {len(text)}, expected {n}")
    # ASCII only: int() also reads the decimal digits of other scripts
    if not all("0" <= ch <= "9" for ch in text):
        raise InvalidInputError(f"index '{text}' contains a non-digit")
    if d < 2:
        raise InvalidInputError(f"local dimension must be >= 2, got {d}")
    if not text:
        raise InvalidInputError("empty digit tuple")
    digits = tuple(map(int, text))
    if max(digits) >= d:
        raise InvalidInputError(f"digits {digits} out of range for d={d}")
    return digits


@lru_cache(maxsize=None)
def cut_masks(n: int) -> np.ndarray:
    """The canonical cuts as a read-only ``(2**(n-1) - 1, n)`` 0/1 array.

    Column ``p - 1`` marks party ``p``.  Rows are ordered by size, then
    lexicographically by sorted parties: among cuts of one size, a smaller
    first differing party is a larger big-endian bit pattern.
    """
    if n < 2:
        raise InvalidInputError(f"need at least 2 parties, got n={n}")
    # parties 2..n as bits, party 2 most significant; all ones would leave no complement
    rest = np.arange(2 ** (n - 1) - 1, dtype=np.int64)
    masks = np.ones((len(rest), n), dtype=np.int8)
    masks[:, 1:] = (rest[:, None] >> np.arange(n - 2, -1, -1)) & 1
    masks = masks[np.lexsort((-rest, masks.sum(axis=1)))]
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=None)
def cut_labels(n: int) -> tuple[str, ...]:
    """The printed label of each row of :func:`cut_masks`, e.g. ``"13|24"``.

    Each side lists its party numbers in ascending order with no separator,
    the side holding party 1 first; from ``n = 10`` on, numbers run together
    (``"1|2345678910"``).
    """
    masks = cut_masks(n)
    parties = np.arange(n, dtype=np.int16)
    # token text NUL-padded to a common width; dropping the padding leaves
    # labels of one length
    names = [str(p).encode() for p in range(1, n + 1)] + [b"|"]
    text = np.array(names, dtype=f"S{len(str(n))}").view(np.uint8).reshape(n + 1, -1)
    length = sum(map(len, names))
    labels: list[str] = []
    for rows in _chunks(len(masks), n + 1):
        block = masks[rows]
        # token p < n is party p + 1 and token n the bar; sorting these keys puts
        # the first side's parties, the bar, then the other side's parties in order
        bar = np.full((len(block), 1), n, dtype=np.int16)
        keys = np.concatenate([np.where(block == 1, parties, parties + n + 1), bar], axis=1)
        chars = text[np.argsort(keys, axis=1)].reshape(len(block), -1)
        chars = chars[chars != 0].reshape(len(block), length)
        labels += chars.view(f"S{length}").ravel().astype(f"U{length}").tolist()
    return tuple(labels)


def rank_dtype(n: int, base: int) -> np.dtype:
    """int64 while every rank below ``base**n`` fits in it, else Python integers.

    Past 2**63 the same array code runs on exact Python integers (numpy's
    object dtype), more slowly, so no shape is refused for its size.
    """
    return np.dtype(np.int64 if base**n <= 2**63 else object)


@lru_cache(maxsize=None)
def place_values(n: int, base: int) -> np.ndarray:
    """``base**(n-1), ..., base, 1``: a digit array times this is its big-endian
    rank.  Read-only, one array per ``(n, base)``."""
    values = np.array([base**k for k in range(n - 1, -1, -1)], dtype=rank_dtype(n, base))
    values.flags.writeable = False
    return values


def rank_digits(ranks: np.ndarray, n: int, base: int) -> np.ndarray:
    """The ``(k, n)`` big-endian digits of each of ``k`` ranks; the inverse of
    multiplying by :func:`place_values`."""
    return ranks[:, None] // place_values(n, base) % base


def digit_strings(ranks: np.ndarray, n: int, d: int) -> list[str]:
    """The bare digit string of each rank, the text :func:`parse_index` reads
    (``d <= 10``)."""
    digits = rank_digits(ranks, n, d)
    chars = (digits + ord("0")).astype(np.uint8)
    return chars.view(f"S{n}").ravel().astype(f"U{n}").tolist()


@lru_cache(maxsize=None)
def excitation_rows(n: int, m: int) -> np.ndarray:
    """One 0/1 row per m-subset of the n sites, marking its sites, in the
    order of :func:`itertools.combinations`; a read-only ``(C(n, m), n)``
    int64 array."""
    subsets = np.array(list(combinations(range(n), m)), dtype=np.int64)
    rows = np.zeros((len(subsets), n), dtype=np.int64)
    rows[np.arange(len(subsets))[:, None], subsets] = 1
    rows.flags.writeable = False
    return rows


def rank_positions(sorted_ranks: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Position of each rank in the nonempty ``sorted_ranks``, or -1 where it is absent."""
    pos = np.minimum(sorted_ranks.searchsorted(ranks), len(sorted_ranks) - 1)
    return np.where(sorted_ranks[pos] == ranks, pos, -1)

