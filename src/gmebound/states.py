"""State containers and reference states.

Pure states are stored sparsely, as the digit array of their support and its
amplitudes, in rank order; density matrices are dense ``(d**n, d**n)``
complex arrays whose row/column order follows the big-endian rank; white
noise on a pure state is a view that is never materialised.  All three
answer ``elements(rows, cols)`` on arrays of ranks, which is the one way the
package reads matrix entries; a single entry is a gather of length one.
White noise at many weights on one set of entries is a
:class:`WhiteNoiseFamily`, which gathers the pure entries once.

Arithmetic on amplitudes goes component by component through
:func:`complex_product`, in the operation order of Python's complex product,
so an entry read in bulk equals the one read alone bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .indices import _chunks, excitation_rows, parse_index, place_values, rank_positions

NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGMIN_ATOL = -1e-10
# the Gershgorin accept keeps this much to spare; see _gershgorin_floor
PSD_MARGIN = -EIGMIN_ATOL / 2


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # filled part by part: re + 1j * im would round through a complex product
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _label(row: np.ndarray) -> str:  # a digit row as its bare digit string
    return "".join(map(str, row.tolist()))


def complex_product(
    ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (ar + i ai) * (br + i bi), rounded as
    Python's complex product rounds them."""
    return ar * br - ai * bi, ar * bi + ai * br


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized n-qudit ket with sparse amplitudes.

    ``digits`` is the ``(k, n)`` int64 array of the support's basis indices
    and ``amplitudes`` the ``(k,)`` complex array of their coefficients, both
    in rank order, with the ranks in ``ranks``.  Rows may be given in any
    order; a repeated row is refused.
    """

    n: int
    d: int
    digits: np.ndarray
    amplitudes: np.ndarray
    ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, d = self.n, self.d
        if n < 1 or d < 2:
            raise InvalidInputError(f"bad shape n={n}, d={d}")
        digits = np.asarray(self.digits, dtype=np.int64)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if not amps.size:
            raise InvalidInputError("state not normalized: |psi|^2 = 0")
        if digits.ndim != 2 or digits.shape[1] != n or amps.shape != digits.shape[:1]:
            raise InvalidInputError(f"digits {digits.shape} and amplitudes {amps.shape} do not fit n={n}")
        if digits.min() < 0 or digits.max() >= d:
            row = np.argmax(((digits < 0) | (digits >= d)).any(axis=1))
            raise InvalidInputError(f"digits {tuple(digits[row].tolist())} out of range for d={d}")
        finite = np.isfinite(amps)
        if not finite.all():
            row = np.argmin(finite)
            raise InvalidInputError(
                f"amplitude of {_label(digits[row])} is not finite: {complex(amps[row])!r}"
            )
        ranks = digits @ place_values(n, d)
        order = np.argsort(ranks)
        ranks, digits, ordered = ranks[order], digits[order], amps[order]
        repeated = ranks[1:] == ranks[:-1]
        if repeated.any():
            raise InvalidInputError(f"duplicate amplitude index {_label(digits[np.argmax(repeated)])}")
        norm2 = sum(abs(c) ** 2 for c in amps.tolist())  # in the given order
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise InvalidInputError(f"state not normalized: |psi|^2 = {norm2!r}")
        for name, array in (("digits", digits), ("amplitudes", ordered), ("ranks", ranks)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def amplitudes_at(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real and imaginary amplitude parts at the given ranks (0 off the
        support), and whether each rank is in the support."""
        pos = rank_positions(self.ranks, ranks)
        hit = pos >= 0
        amps = self.amplitudes[pos]
        return np.where(hit, amps.real, 0.0), np.where(hit, amps.imag, 0.0), hit

    def to_vector(self) -> np.ndarray:
        vec = np.zeros(self.d**self.n, dtype=complex)
        vec[self.ranks] = self.amplitudes
        return vec

    def density(self) -> "DensityMatrix":
        vec = self.to_vector()
        return DensityMatrix(self.n, self.d, np.outer(vec, vec.conj()), validate=False)

    def elements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """<rows| psi><psi |cols>, each entry the Python product c_row * conj(c_col)."""
        ar, ai, _ = self.amplitudes_at(rows)
        br, bi, _ = self.amplitudes_at(cols)
        return _complex(*complex_product(ar, ai, br, -bi))


def _check_weights(p: float | np.ndarray) -> None:
    """Refuse a mixing weight outside [0, 1], NaN included; of a 1-D array of
    weights, the first such in order."""
    if isinstance(p, np.ndarray):
        inside = (0.0 <= p) & (p <= 1.0)
        if inside.all():
            return
        p = p[np.argmin(inside)].item()
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"mixing weight p={p} outside [0, 1]")


@dataclass(frozen=True)
class NoisyPureState:
    """p * |psi><psi| + (1-p) * I / d**n, read element by element.

    Entries equal those of ``white_noise_mix(pure, p).matrix`` without ever
    building the ``d**n x d**n`` array.  A read is the arithmetic of a
    :class:`WhiteNoiseFamily` on its entries: ``family``'s when they are the
    ones it was gathered on (members made by :meth:`WhiteNoiseFamily.at`),
    otherwise a family gathered for this read alone.

    ``p`` may also be a 1-D array of weights: the state is then the stack of
    those mixtures, and each read gains a trailing axis over the weights.
    """

    pure: PureState
    p: float | np.ndarray
    noise: float | np.ndarray = field(init=False, repr=False)
    family: "WhiteNoiseFamily | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_weights(self.p)
        object.__setattr__(self, "noise", (1.0 - self.p) / self.pure.d**self.pure.n)

    @property
    def n(self) -> int:
        return self.pure.n

    @property
    def d(self) -> int:
        return self.pure.d

    def elements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        family = self.family
        if family is None or rows is not family.rows or cols is not family.cols:
            family = WhiteNoiseFamily(self.pure, rows, cols)
        return family.entries(self.p, self.noise)


@dataclass(frozen=True, eq=False)
class WhiteNoiseFamily:
    """The states p * |psi><psi| + (1-p) * I / d**n, read at fixed entries.

    The pure entries at ``(rows, cols)`` are gathered once, here; each
    member's entries are then arithmetic on them.  A threshold search or a
    ``--p-grid`` sweep holds one family per witness for the command, so its
    steps repeat no rank lookup and no amplitude product; a sweep reads its
    members a stack at a time (:meth:`at` of an array of weights).
    """

    pure: PureState
    rows: np.ndarray
    cols: np.ndarray
    _pure_entries: np.ndarray = field(init=False, repr=False)
    _diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pure_entries", self.pure.elements(self.rows, self.cols))
        object.__setattr__(self, "_diagonal", self.rows == self.cols)

    def at(self, p: float | np.ndarray) -> NoisyPureState:
        """The member of weight p, or the stack of members of a 1-D array of
        weights, whose reads of the family's entries cost no gather."""
        member = NoisyPureState(self.pure, p)
        object.__setattr__(member, "family", self)
        return member

    def entries(self, p: float | np.ndarray, noise: float | np.ndarray) -> np.ndarray:
        """p * pure entry, plus ``noise`` = (1-p) / d**n on the diagonal; for
        arrays of weights and noise terms, one column of entries per weight."""
        pure, diagonal = self._pure_entries, self._diagonal
        if isinstance(p, np.ndarray):
            pure, diagonal = pure[:, None], diagonal[:, None]
        re = p * pure.real + np.where(diagonal, noise, 0.0)
        return _complex(re, p * pure.imag)


def _gershgorin_floor(m: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of the Hermitian matrix held
    in the lower triangle of ``m``, the one ``eigvalsh`` reads: the least
    ``Re m_ii - sum_{j<i} |m_ij| - sum_{j>i} |m_ji|``.

    Every sum has nonnegative terms, so row ``i``'s computed value is within
    ``(D + 4) * 2**-53 * max(|Re m_ii|, sum_{j != i} |m_ij|)`` of the exact one,
    to first order.  On a trace-1 matrix whose floor is at least
    ``-PSD_MARGIN`` that scale is at most about 1, so the error stays below
    ``PSD_MARGIN / 2`` for any ``D`` below 2e5, past any matrix that fits in
    memory.

    The sums are formed a block of rows at a time, in the order a whole-matrix
    ``np.tril(np.abs(m), -1)`` would give them: each row sum over its full
    row, each column sum down the rows in order, its running total first.
    The block is written below that total, in one buffer, so summing down
    its rows takes no copy."""
    dim = len(m)
    blocks = _chunks(dim, dim)
    # the running column totals in row 0, each block of rows below them
    row_sums, stacked = np.empty(dim), np.zeros((min(blocks[0].stop, dim) + 1, dim))
    for rows in blocks:
        block = m[rows]
        lower = stacked[1 : 1 + len(block)]
        np.abs(block, out=lower)
        # what np.tril(..., rows.start - 1) keeps: columns left of each row's own
        np.copyto(lower, 0.0, where=~np.tri(len(lower), dim, rows.start - 1, dtype=bool))
        row_sums[rows] = lower.sum(axis=1)
        stacked[0] = stacked[: 1 + len(lower)].sum(axis=0)
    return float((m.diagonal().real - row_sums - stacked[0]).min())


@dataclass
class DensityMatrix:
    """A dense n-qudit density matrix in the computational basis.

    With ``validate`` (the default) the ``(d**n, d**n)`` matrix must be:

    - Hermitian: every entry within ``HERMITICITY_ATOL`` (1e-12, absolute)
      of the conjugate of its transpose (an infinite or NaN entry is
      refused here);
    - of trace 1 within ``TRACE_ATOL`` (1e-12);
    - positive semidefinite: the Hermitian matrix in its lower triangle has
      no eigenvalue below ``EIGMIN_ATOL`` (-1e-10).

    Positivity is first tested by a Gershgorin disc bound, which accepts with
    ``PSD_MARGIN`` (half of ``-EIGMIN_ATOL``) to spare, so only matrices whose
    exact smallest eigenvalue is above ``EIGMIN_ATOL``.  Only when the bound
    does not accept does ``eigvalsh`` run, and it decides and names the
    eigenvalue.
    """

    n: int
    d: int
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        dim = self.d**self.n
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (dim, dim):
            raise InvalidInputError(
                f"matrix shape {self.matrix.shape} does not match d**n = {dim}"
            )
        if self.validate:
            m = self.matrix
            blocks = _chunks(dim, dim)
            # the verdict of allclose(rtol=0) on finite entries; a non-finite
            # entry makes its difference non-finite, so it is refused here.
            # The block maxima are folded by numpy, whose max keeps a NaN
            # (Python's max(0.0, nan) is 0.0)
            with np.errstate(invalid="ignore"):
                spread = np.max([np.abs(m[rows] - m[:, rows].conj().T).max() for rows in blocks])
            if not spread <= HERMITICITY_ATOL:
                if not all(np.isfinite(m[rows]).all() for rows in blocks):
                    raise InvalidInputError("density matrix has a non-finite entry")
                raise InvalidInputError("density matrix is not Hermitian")
            tr = np.trace(m).real
            if abs(tr - 1.0) > TRACE_ATOL:
                raise InvalidInputError(f"density matrix has trace {tr!r}, expected 1")
            if _gershgorin_floor(m) < -PSD_MARGIN:
                eigmin = float(np.linalg.eigvalsh(m).min())
                if eigmin < EIGMIN_ATOL:
                    raise InvalidInputError(f"density matrix has negative eigenvalue {eigmin!r}")

    def elements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.matrix[rows, cols]


# what the witnesses read: elements(rows, cols) over a fixed (n, d)
ElementSource = PureState | NoisyPureState | DensityMatrix


# ---------------------------------------------------------------------------
# reference states


def make_w_state(n: int = 3) -> PureState:
    """(|10...0> + |010...> + ... + |0...01>) / sqrt(n)."""
    return PureState(n, 2, np.eye(n, dtype=np.int64), np.full(n, 1.0 / math.sqrt(n)))


def make_ghz_state(n: int = 3, d: int = 2) -> PureState:
    """(|0...0> + |(d-1)...(d-1)>) / sqrt(2)."""
    digits = np.array([[0], [d - 1]], dtype=np.int64).repeat(n, axis=1)
    return PureState(n, d, digits, np.full(2, 1.0 / math.sqrt(2.0)))


def _check_dicke_shape(n: int, d: int, m: int) -> None:
    """Refuse an excitation number outside [1, n-1] or fewer than two levels."""
    if not (1 <= m <= n - 1):
        raise InvalidInputError(f"need 1 <= m <= n-1, got m={m}, n={n}")
    if d < 2:
        raise InvalidInputError(f"need d >= 2, got d={d}")


def make_dicke_state(n: int, d: int, m: int) -> PureState:
    """Higher-dimensional Dicke state with m excitations spread over d-1 levels.

    Support strings have digit l+1 on a size-m subset and digit l elsewhere,
    for every level l in [0, d-2]; all amplitudes equal.
    """
    _check_dicke_shape(n, d, m)
    levels = np.arange(d - 1, dtype=np.int64)
    digits = (levels[:, None, None] + excitation_rows(n, m)).reshape(-1, n)
    return PureState(n, d, digits, np.full(len(digits), 1.0 / math.sqrt(math.comb(n, m) * (d - 1))))


def make_singlet4() -> PureState:
    """Four-qubit singlet (1/sqrt(3))(|0011> + |1100> - (|0101> + |0110> + |1001> + |1010>)/2)."""
    s3 = math.sqrt(3.0)
    digits = [[0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0]]
    return PureState(4, 2, digits, [1 / s3, 1 / s3] + [-1 / (2 * s3)] * 4)


def embed_pure(psi: PureState, d: int) -> PureState:
    """Reinterpret a state's digits inside a larger local dimension."""
    if d < psi.d:
        raise InvalidInputError(f"cannot embed d={psi.d} into smaller d={d}")
    return PureState(psi.n, d, psi.digits, psi.amplitudes)


def white_noise_mix(pure: PureState, p: float) -> DensityMatrix:
    """p * |psi><psi| + (1-p) * I / d**n, the entries of
    :class:`NoisyPureState` as one dense array."""
    noise = NoisyPureState(pure, p).noise
    rho = p * pure.density().matrix + noise * np.eye(pure.d**pure.n)
    return DensityMatrix(pure.n, pure.d, rho, validate=False)


def make_max_entangled(d: int) -> PureState:
    """The two-qudit maximally entangled state sum_j |jj> / sqrt(d)."""
    digits = np.arange(d, dtype=np.int64)[:, None].repeat(2, axis=1)
    return PureState(2, d, digits, np.full(d, 1.0 / math.sqrt(d)))


def make_isotropic(d: int, p: float) -> DensityMatrix:
    """Two-qudit isotropic state: white noise on the maximally entangled pair."""
    return white_noise_mix(make_max_entangled(d), p)


# ---------------------------------------------------------------------------
# subsystem operations


def _cut_sides(n: int, gamma: np.ndarray) -> tuple[list[int], list[int]]:
    """The 0-based parties of the 0/1 mask row gamma over ``n`` parties, and the rest."""
    side = np.asarray(gamma) != 0
    if side.shape != (n,):
        raise InvalidInputError(f"gamma over n={side.size}, state over n={n}")
    return np.flatnonzero(side).tolist(), np.flatnonzero(~side).tolist()


def partial_trace(rho: DensityMatrix, gamma: np.ndarray) -> DensityMatrix:
    """Trace out the complement of the 0/1 mask row gamma; subsystem order
    follows the parties of gamma."""
    n, d = rho.n, rho.d
    keep, drop = _cut_sides(n, gamma)
    tensor = rho.matrix.reshape((d,) * (2 * n))
    # bring kept row axes first, kept column axes next, traced axes last
    perm = keep + [n + i for i in keep] + drop + [n + i for i in drop]
    tensor = tensor.transpose(perm)
    dk = d ** len(keep)
    dd = d ** len(drop)
    tensor = tensor.reshape(dk, dk, dd, dd)
    reduced = np.einsum("ijkk->ij", tensor)
    return DensityMatrix(len(keep), d, reduced, validate=False)


def partial_transpose(rho: DensityMatrix, gamma: np.ndarray) -> np.ndarray:
    """Transpose the subsystems marked by the 0/1 mask row gamma; returns a
    plain array (it may be non-PSD)."""
    n, d = rho.n, rho.d
    tensor = rho.matrix.reshape((d,) * (2 * n))
    perm = list(range(2 * n))
    for i in _cut_sides(n, gamma)[0]:
        perm[i], perm[n + i] = perm[n + i], perm[i]
    return tensor.transpose(perm).reshape(d**n, d**n)


# ---------------------------------------------------------------------------
# file input

_WHITESPACE = b" \t\n\r"
# A dense matrix's array is checked in its bytes and its numbers are read by
# json, not built as nested lists.  Its key is the one "matrix" key, not after
# a backslash, opening an array; the array ends at the first "]]]", the only
# place a valid matrix closes three arrays at once.
_MATRIX_KEY = re.compile(rb'"matrix"[ \t\n\r]*:[ \t\n\r]*\[')
_MATRIX_END = re.compile(rb"\][ \t\n\r]*\][ \t\n\r]*\]")
# ValueError covers JSONDecodeError, UnicodeDecodeError and ints past Python's digit limit
_JSON_ERRORS = (ValueError, RecursionError)
_NUMBER_BYTES = b"0123456789.eE+-"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_NUMBERS_TO_ZEROS = bytes.maketrans(_NUMBER_BYTES, b"0" * len(_NUMBER_BYTES))
# the array is walked in slices of about this many bytes, cut after a comma,
# so that no copy of its text and no list of Python floats for the whole
# matrix is ever built
_SLICE_BYTES = 1 << 16


def _int_as_float(digits: str) -> float:
    """float(int(digits)) without int's digit limit: the same correctly
    rounded value, inf past the float range, and JSON's -0 (the int 0) as 0.0."""
    return float(digits) + 0.0


# A bracket tally is (depth, rows, cols) after some prefix of an array's text:
# how many arrays are open, how many rows have opened (a "[" that leaves two
# open) and how many entries have opened (a "[" that leaves three open) since
# the last row did, or since the start before any row.


def _tally(state: tuple[int, int, int], part: bytes) -> tuple[int, int, int]:
    """The bracket tally after ``part``, from ``state`` before it; only its
    brackets count, in blocks of ``CHUNK_ENTRIES`` bytes."""
    depth, rows, cols = state
    codes = np.frombuffer(part, np.uint8)
    for block in _chunks(len(codes), 1):
        c = codes[block]
        opens = c == ord("[")
        levels = depth + np.cumsum(opens, dtype=np.int64) - np.cumsum(c == ord("]"))
        row_opens = np.flatnonzero(opens & (levels == 2))
        entry_opens = opens & (levels == 3)
        if len(row_opens):
            cols = np.count_nonzero(entry_opens[row_opens[-1] :])
        else:
            cols += np.count_nonzero(entry_opens)
        depth, rows = int(levels[-1]), rows + len(row_opens)
    return depth, rows, int(cols)


def _entry_at(state: tuple[int, int, int], part: bytes, pos: int) -> tuple[int, int, int]:
    """Row and column of the matrix entry at byte ``pos`` of ``part``, text
    that follows the bracket tally ``state``, and how many arrays are open
    before that byte."""
    before = _tally(state, part[:pos])
    _, rows, cols = _tally(before, part[pos : pos + 1])
    return max(rows - 1, 0), max(cols - 1, 0), before[0]


_NOT_A_PAIR = "is not [re, im] with two JSON numbers"


def _entry_error(path: str | Path, row: int, col: int, problem: str) -> InvalidInputError:
    return InvalidInputError(
        f"state file {path}: matrix entry at row {row}, column {col} {problem}"
    )


def _skeleton_error(path: str | Path, dim: int, where: tuple[int, int, int]) -> InvalidInputError:
    """The refusal of a skeleton that departs at ``where``, from :func:`_entry_at`."""
    row, col, inside = where
    if inside >= 3:
        return _entry_error(path, row, col, _NOT_A_PAIR)
    return InvalidInputError(
        f"state file {path}: matrix is not {dim} rows of {dim} [re, im] entries"
        f" (it departs from that at row {row}, column {col})"
    )


def _skeleton(dim: int, start: int, stop: int) -> bytes:
    """Bytes ``start:stop`` of the brackets and commas of a ``dim x dim``
    matrix of ``[re, im]`` entries: "[", then ``dim`` rows of ``dim`` "[,]"
    joined by commas, each row in brackets, the rows joined by commas, then
    "]".  Nothing past ``stop`` is built."""
    size = 4 * dim * dim + 2 * dim + 1
    stop = min(stop, size)
    if start >= stop:
        return b""
    row = b"[" + b",".join([b"[,]"] * dim) + b"],"  # a row and the comma after it
    first, skip = divmod(max(start, 1) - 1, len(row))
    end = stop - 1 - first * len(row)  # in the rows from row ``first`` on
    body = (row * -(-end // len(row)))[skip:end]
    if stop == size:  # the last row is followed by the closing bracket
        body = body[:-1] + b"]"
    return (b"[" if start == 0 else b"") + body


def _skeleton_tally(dim: int, offset: int) -> tuple[int, int, int]:
    """The bracket tally after the first ``offset`` bytes of the skeleton of
    a ``dim x dim`` matrix, counted from the start of the row they end in."""
    if offset == 0:
        return 0, 0, 0
    row, rest = divmod(offset - 1, 4 * dim + 2)
    if row and not rest:  # from the row before, so that its end is counted
        row -= 1
    start = 1 + row * (4 * dim + 2)
    return _tally((1, row, dim if row else 0), _skeleton(dim, start, offset))


def _parse_matrix(text: bytes, start: int, stop: int, n: int, d: int, path: str | Path) -> np.ndarray:
    """The ``(dim, dim)`` complex matrix written in ``text[start:stop]``,
    ``dim = d**n``, read by :func:`_walk_matrix`."""
    # a d**n that could not fit in the text is refused before it is computed
    if n > 0 and abs(d) > 1 and n * math.log2(abs(d)) > math.log2(stop - start):
        raise InvalidInputError(
            f"state file {path}: a matrix of {stop - start} bytes has no {d}**{n} rows"
        )
    dim = d**n
    if not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"state file {path}: d**n = {d}**{n} is not a matrix size")
    return _walk_matrix(text, start, stop, dim, path)


def _walk_matrix(text: bytes, start: int, stop: int, dim: int, path: str | Path) -> np.ndarray:
    """The ``(dim, dim)`` complex matrix written in ``text[start:stop]``: a
    JSON array of ``dim`` rows of ``dim`` entries ``[re, im]``, each part a
    JSON number.

    The array is walked once, in slices cut after a comma.  On each slice the
    bytes, the bracket structure and each number's place between the
    brackets are checked; ``json`` then reads the slice's numbers as a flat
    comma list, so each entry equals ``complex(re, im)`` of the numbers
    ``json`` reads for the whole file, and they must be finite.  A refusal
    names the first fault of the first of these checks that fails anywhere
    in the array, as running each check over all of it would: a fault found
    is held until the walk ends, and only the first fault of an earlier
    check replaces it.
    """
    size = 4 * dim * dim + 2 * dim + 1
    # a text shorter than the skeleton has a skeleton fault, so is never read
    values = np.empty(2 * dim * dim) if stop - start >= size else None
    # the check that found the refusal held so far, counted 1 to 4 (skeleton,
    # moved number, JSON number, finite number; 5 while none has), and the refusal
    fault: tuple[int, InvalidInputError | None] = (5, None)
    offset = filled = 0  # skeleton bytes and numbers read so far
    tally = None  # once the skeleton departs, the bracket tally of the text

    def here() -> tuple[int, int, int]:  # the bracket tally before the slice
        return _skeleton_tally(dim, offset) if tally is None else tally

    while start < stop:
        cut = text.find(b",", start + _SLICE_BYTES, stop)
        chunk = text[start : stop if cut < 0 else cut + 1]
        # each number byte a 0 and whitespace gone: the stray bytes and the
        # skeleton are read from this shorter text
        marked = chunk.translate(_NUMBERS_TO_ZEROS, _WHITESPACE)
        stray = marked.translate(None, b"[],0")
        if stray:
            bad = chunk.index(stray[:1])
            row, col, _ = _entry_at(here(), chunk, bad)
            infinite = text.startswith((b"NaN", b"Infinity"), start + bad, stop)
            raise _entry_error(path, row, col, "is not a finite number" if infinite else _NOT_A_PAIR)
        if tally is None:
            skeleton = marked.translate(None, b"0")
            want = _skeleton(dim, offset, offset + len(skeleton))
            if skeleton != want:
                common = min(len(skeleton), len(want))
                got, expected = (np.frombuffer(b, np.uint8, common) for b in (skeleton, want))
                differ = np.flatnonzero(got != expected)
                tally = here()  # from here on the text's own brackets are counted
                where = _entry_at(tally, skeleton, int(differ[0]) if len(differ) else common)
                fault = (1, _skeleton_error(path, dim, where))
            walked = len(skeleton)
            del skeleton, want
        if fault[0] > 2:
            # the skeleton is right so far; a number moved across a bracket
            # within its comma slot, which the flat comma list below cannot
            # see, shows in the marked text as "]0" or "0[" (never across a
            # cut, which follows a comma).  Neighbouring bytes are compared
            # as arrays: a byte search for either pair stops at every 0
            codes = np.frombuffer(marked, np.uint8)
            zero = codes == ord("0")
            moved = zero[1:] & (codes[:-1] == ord("]")) | zero[:-1] & (codes[1:] == ord("["))
            if moved.any():
                row, col, _ = _entry_at(here(), marked, int(np.argmax(moved)) + 1)
                fault = (2, _entry_error(path, row, col, _NOT_A_PAIR))
            del codes, zero, moved
        del marked
        if values is not None and fault[0] > 3:
            # with the brackets blanked the numbers are one comma list; the
            # comma the slice was cut after is left out
            numbers = chunk.translate(_BRACKETS_TO_SPACES)
            listed = b"".join((b"[", memoryview(numbers)[: len(numbers) - (cut >= 0)], b"]"))
            del numbers
            try:
                part = json.loads(listed, parse_int=_int_as_float)
            except json.JSONDecodeError as exc:
                row, col, _ = _entry_at(here(), chunk, exc.pos - 1)
                fault = (3, _entry_error(path, row, col, _NOT_A_PAIR))
            else:
                read = values[filled : filled + len(part)]
                read[:] = part
                del part, listed
                finite = np.isfinite(read)
                if fault[0] > 4 and not finite.all():
                    row, col = divmod((filled + int(np.argmin(finite))) // 2, dim)
                    fault = (4, _entry_error(path, row, col, "is not a finite number"))
                filled += len(read)
        if tally is None:
            offset += walked
        else:
            tally = _tally(tally, chunk)
        start += len(chunk)
    if tally is None and offset < size:  # the skeleton stops short
        fault = (1, _skeleton_error(path, dim, _entry_at(here(), b"", 0)))
    if fault[1] is not None:
        raise fault[1]
    return values.view(complex).reshape(dim, dim)


def _decode(text: bytes, path: str | Path) -> tuple[object, int]:
    """The JSON value in ``text``, refusing a key repeated in any object, and
    the number of objects with a "matrix" key."""
    holders = 0

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        nonlocal holders
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise InvalidInputError(f"state file {path} repeats the key {repeated!r}")
        holders += "matrix" in obj
        return obj

    return json.loads(text.decode("utf-8"), object_pairs_hook=unique_keys), holders


def _not_json(path: str | Path, exc: Exception) -> InvalidInputError:
    return InvalidInputError(f"state file {path} is not valid JSON: {exc}")


def _reads_as_json(raw: bytes, start: int, stop: int, path: str | Path) -> bool:
    """Whether ``raw[start:stop]`` is a square matrix of ``[re, im]`` entries
    that :func:`_walk_matrix` accepts, so that ``json`` reads it without
    fault: the size from its 1 + dim + dim**2 opening brackets."""
    opens = raw.count(b"[", start, stop)
    dim = (math.isqrt(4 * opens - 3) - 1) // 2
    if dim < 1 or 1 + dim + dim * dim != opens:
        return False
    try:
        _walk_matrix(raw, start, stop, dim, path)
    except InvalidInputError:
        return False
    return True


def _refuse_rest(exc: Exception, raw: bytes, start: int, stop: int, path: str | Path) -> None:
    """Raise, for the rest of the object around the span ``raw[start:stop]``
    that failed to decode with ``exc``, what parsing the whole file would
    raise, when the span is a matrix that ``json`` reads without fault.

    The whole-file parse then meets the same fault at the same place of the
    same text: before the span, where the texts agree, or after it, moved by
    the span's length less the 4 of "null" (the span is ASCII).  It returns
    when it cannot vouch for that: a span that is not such a matrix, bytes
    that are not UTF-8, or nesting past the recursion limit.
    """
    if isinstance(exc, (UnicodeDecodeError, RecursionError)):
        return
    if not _reads_as_json(raw, start, stop, path):
        return
    if isinstance(exc, InvalidInputError):  # a repeated key, met in the same order
        raise exc
    if isinstance(exc, json.JSONDecodeError):
        before = len(raw[:start].decode("utf-8"))  # characters before the span
        pos = exc.pos if exc.pos < before else exc.pos - 4 + (stop - start)
        exc = json.JSONDecodeError(exc.msg, raw.decode("utf-8"), pos)
    raise _not_json(path, exc) from exc


def _read_state_file(raw: bytes, path: str | Path, start: int | None, stop: int | None) -> object:
    """The JSON value in a state file's bytes, a mixed state's matrix left in
    them.

    ``raw[start:stop]`` is the span of the one "matrix" array, from its key
    to the first "]]]" after it, when the file has one.  The rest of the file
    is parsed with that array replaced by null; the value of "matrix" is then
    ``(raw, start, stop)``.  When the rest is not JSON but the span is a
    matrix that ``json`` reads, the rest's error is refused as the whole
    file's (:func:`_refuse_rest`).  A file with no span, or whose rest is not
    a mixed state's object holding it at the top level, is parsed whole.
    """
    if stop is not None:
        try:
            payload, holders = _decode(raw[:start] + b"null" + raw[stop:], path)
        except _JSON_ERRORS as exc:
            _refuse_rest(exc, raw, start, stop, path)
            payload, holders = None, 0
        # one "matrix" key in the file, at the top level, and it held the span
        top_level = holders == 1 and isinstance(payload, dict)
        if top_level and payload.get("kind") == "mixed" and payload.get("matrix", False) is None:
            payload["matrix"] = (raw, start, stop)
            return payload
    try:
        return _decode(raw, path)[0]
    except InvalidInputError:
        raise
    except _JSON_ERRORS as exc:
        raise _not_json(path, exc) from exc


def load_state_json(path: str | Path) -> PureState | DensityMatrix:
    """Read a state description from JSON.

    Pure states carry ``"kind": "pure"`` and a list of ``{"index", "re", "im"}``
    amplitude records: a string of ASCII digits and two JSON numbers, ``"im"``
    0 when left out, each index once; mixed states carry ``"kind": "mixed"``
    and a row-major ``"matrix"`` of ``[re, im]`` entries, each exactly two
    JSON numbers.
    ``"n"`` and ``"d"`` are JSON integers.  A key repeated in any object is
    refused.

    A mixed state's matrix is checked in the file's bytes.  It ends at the
    first "]]]" after its key, the only place a valid matrix closes three
    arrays at once, wherever in the file that is: one regex search, which
    stops at each "]" of the matrix (a few ms for a 3 MB file; see README).
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read state file {path}: {exc}") from exc
    start = _matrix_start(raw)
    stop = None if start is None else _matrix_end(raw, start)
    state = _read_state(raw, path, start, stop)
    del raw  # a mixed state's checks need only its matrix, not the file's bytes
    return state if isinstance(state, PureState) else DensityMatrix(*state)


def _matrix_start(raw: bytes) -> int | None:
    """Where the array of the file's one "matrix" key, not after a
    backslash, opens; None for no such key or several."""
    keys = [m for m in _MATRIX_KEY.finditer(raw) if raw[m.start() - 1 : m.start()] != b"\\"]
    return keys[0].end() - 1 if len(keys) == 1 else None


def _matrix_end(raw: bytes, start: int) -> int | None:
    """Just past the first "]]]" from ``start``, if there is one."""
    end = _MATRIX_END.search(raw, start)
    return None if end is None else end.end()


def _read_state(
    raw: bytes, path: str | Path, start: int | None, stop: int | None
) -> PureState | tuple[int, int, np.ndarray]:
    """The pure state in a file's bytes, or a mixed state's ``(n, d,
    matrix)``, its matrix span ``raw[start:stop]`` (see
    :func:`_read_state_file`); the matrix is not yet a checked
    :class:`DensityMatrix`."""
    payload = _read_state_file(raw, path, start, stop)
    try:
        n, d, kind = payload["n"], payload["d"], payload["kind"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"state file {path} missing n/d/kind: {exc}") from exc
    for key, value in (("n", n), ("d", d)):
        if type(value) is not int:  # bool is a subclass of int
            raise InvalidInputError(
                f'state file {path}: "{key}" must be a JSON integer, not {type(value).__name__}'
            )

    if kind == "pure":
        if "amplitudes" not in payload:
            raise InvalidInputError(f'state file {path} has no "amplitudes"')
        digits, amplitudes = [], []
        try:
            for rec in payload["amplitudes"]:
                index, parts = rec["index"], (rec["re"], rec.get("im", 0.0))
                if type(index) is not str or any(type(x) not in (int, float) for x in parts):
                    raise InvalidInputError(
                        f"state file {path}: amplitude record {json.dumps(rec)} needs a string"
                        ' "index" and JSON numbers "re" and "im"'
                    )
                digits.append(parse_index(index, d, n))
                amplitudes.append(complex(*parts))
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidInputError(f"bad amplitude record in {path}: {exc}") from exc
        return PureState(n, d, np.array(digits, dtype=np.int64), amplitudes)

    if kind == "mixed":
        if "matrix" not in payload:
            raise InvalidInputError(f'state file {path} has no "matrix"')
        span = payload.pop("matrix")
        if isinstance(span, list):  # found by the whole-file parse: checked the same way
            text = json.dumps(span).encode()
            span = (text, 0, len(text))
            del text
        if not isinstance(span, tuple):
            raise InvalidInputError(f'state file {path}: "matrix" is not an array')
        return n, d, _parse_matrix(*span, n, d, path)

    raise InvalidInputError(f"unknown state kind {kind!r} in {path}")
