"""State containers and reference states.

Pure states are stored sparsely, as the digit array of their support and its
amplitudes, in rank order; density matrices are dense ``(d**n, d**n)``
complex arrays whose row/column order follows the big-endian rank; white
noise on a pure state is a view that is never materialised.  All three
answer ``elements(rows, cols)`` on arrays of ranks, which is the one way the
package reads matrix entries; a single entry is a gather of length one.

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
from .indices import excitation_rows, parse_index, place_values, rank_positions

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


@dataclass(frozen=True)
class NoisyPureState:
    """p * |psi><psi| + (1-p) * I / d**n, read element by element.

    Entries equal those of ``white_noise_mix(pure, p).matrix`` without ever
    building the ``d**n x d**n`` array.
    """

    pure: PureState
    p: float
    noise: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise InvalidInputError(f"mixing weight p={self.p} outside [0, 1]")
        object.__setattr__(self, "noise", (1.0 - self.p) / self.pure.d**self.pure.n)

    @property
    def n(self) -> int:
        return self.pure.n

    @property
    def d(self) -> int:
        return self.pure.d

    def elements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        pure = self.pure.elements(rows, cols)
        re = self.p * pure.real + np.where(rows == cols, self.noise, 0.0)
        return _complex(re, self.p * pure.imag)


def _gershgorin_floor(m: np.ndarray) -> float:
    """A lower bound on the smallest eigenvalue of the Hermitian matrix held
    in the lower triangle of ``m``, the one ``eigvalsh`` reads: the least
    ``Re m_ii - sum_{j<i} |m_ij| - sum_{j>i} |m_ji|``.

    Every sum has nonnegative terms, so row ``i``'s computed value is within
    ``(D + 4) * 2**-53 * max(|Re m_ii|, sum_{j != i} |m_ij|)`` of the exact one,
    to first order.  On a trace-1 matrix whose floor is at least
    ``-PSD_MARGIN`` that scale is at most about 1, so the error stays below
    ``PSD_MARGIN / 2`` for any ``D`` below 2e5, past any matrix that fits in
    memory."""
    lower = np.tril(np.abs(m), -1)
    return float((m.diagonal().real - lower.sum(axis=1) - lower.sum(axis=0)).min())


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
            # the verdict of allclose(rtol=0) on finite entries; a non-finite
            # entry makes its difference non-finite, so it is refused here
            with np.errstate(invalid="ignore"):
                spread = np.abs(m - m.conj().T).max()
            if not spread <= HERMITICITY_ATOL:
                if not np.isfinite(m).all():
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
# numbers are read in slices of about this many bytes, so that no list of
# Python floats for the whole matrix is ever built
_SLICE_BYTES = 1 << 16


def _int_as_float(digits: str) -> float:
    """float(int(digits)) without int's digit limit: the same correctly
    rounded value, inf past the float range, and JSON's -0 (the int 0) as 0.0."""
    return float(digits) + 0.0


def _entry_at(text: bytes, pos: int) -> tuple[int, int, int]:
    """Row and column of the matrix entry at byte ``pos`` of an array's text
    (the last one opened), and how many arrays are open there."""
    c = np.frombuffer(text, np.uint8)[: pos + 1]
    opens = c == ord("[")
    depth = np.cumsum(opens, dtype=np.int64) - np.cumsum(c == ord("]"))
    rows = np.flatnonzero(opens & (depth == 2))
    start = rows[-1] if len(rows) else 0
    cols = np.count_nonzero(opens[start:] & (depth[start:] == 3))
    inside = int(depth[pos - 1]) if 0 < pos <= len(depth) else 0
    return max(len(rows) - 1, 0), max(cols - 1, 0), inside


_NOT_A_PAIR = "is not [re, im] with two JSON numbers"


def _entry_error(path: str | Path, row: int, col: int, problem: str) -> InvalidInputError:
    return InvalidInputError(
        f"state file {path}: matrix entry at row {row}, column {col} {problem}"
    )


def _skeleton(dim: int, size: int) -> bytes:
    """The first ``size`` brackets and commas of a ``dim x dim`` matrix of
    ``[re, im]`` entries; rows and entries past ``size`` are not built."""
    row = b"[" + b",".join([b"[,]"] * min(dim, size // 4 + 1)) + b"]"
    rows = b",".join([row] * min(dim, size // len(row) + 1))
    return (b"[" + rows + b"]")[:size]


def _parse_matrix(text: bytes, n: int, d: int, path: str | Path) -> np.ndarray:
    """The ``(dim, dim)`` complex matrix written in ``text``, ``dim = d**n``:
    a JSON array of ``dim`` rows of ``dim`` entries ``[re, im]``, each part a
    JSON number.

    The bytes, the bracket structure and each number's place between the
    brackets are checked first; ``json`` then reads the numbers as flat comma
    lists, so each entry equals ``complex(re, im)`` of the numbers ``json``
    reads for the whole file.
    """
    # a d**n that could not fit in the text is refused before it is computed
    if n > 0 and abs(d) > 1 and n * math.log2(abs(d)) > math.log2(len(text)):
        raise InvalidInputError(
            f"state file {path}: a matrix of {len(text)} bytes has no {d}**{n} rows"
        )
    dim = d**n
    if not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"state file {path}: d**n = {d}**{n} is not a matrix size")
    stray = text.translate(None, b"[]," + _WHITESPACE + _NUMBER_BYTES)
    if stray:
        bad = text.index(stray[:1])
        row, col, _ = _entry_at(text, bad)
        infinite = text.startswith((b"NaN", b"Infinity"), bad)
        raise _entry_error(path, row, col, "is not a finite number" if infinite else _NOT_A_PAIR)
    skeleton = text.translate(None, _NUMBER_BYTES + _WHITESPACE)
    size = 4 * dim * dim + 2 * dim + 1
    if len(skeleton) != size or skeleton != _skeleton(dim, size):
        want = np.frombuffer(_skeleton(dim, len(skeleton) + 1), np.uint8)
        got = np.frombuffer(skeleton, np.uint8)
        common = min(len(got), len(want))
        differ = np.flatnonzero(got[:common] != want[:common])
        row, col, inside = _entry_at(skeleton, int(differ[0]) if len(differ) else common)
        if inside >= 3:
            raise _entry_error(path, row, col, _NOT_A_PAIR)
        raise InvalidInputError(
            f"state file {path}: matrix is not {dim} rows of {dim} [re, im] entries"
            f" (it departs from that at row {row}, column {col})"
        )
    del skeleton
    # the skeleton is right; a number moved across a bracket within its comma
    # slot, which the flat comma list below cannot see, shows with whitespace
    # gone and each number byte a 0 as "]0" or "0["
    marked = text.translate(_NUMBERS_TO_ZEROS, _WHITESPACE)
    moved = [pos for pos in (marked.find(b"]0"), marked.find(b"0[")) if pos >= 0]
    if moved:
        row, col, _ = _entry_at(marked, min(moved) + 1)
        raise _entry_error(path, row, col, _NOT_A_PAIR)
    del marked
    # with the brackets blanked the numbers are one comma list, cut at commas
    numbers = text.translate(_BRACKETS_TO_SPACES)
    values = np.empty(2 * dim * dim)
    start = filled = 0
    while start < len(numbers):
        stop = numbers.find(b",", start + _SLICE_BYTES)
        stop = len(numbers) if stop < 0 else stop
        try:
            part = json.loads(b"[" + numbers[start:stop] + b"]", parse_int=_int_as_float)
        except json.JSONDecodeError as exc:
            row, col, _ = _entry_at(text, start + exc.pos - 1)
            raise _entry_error(path, row, col, _NOT_A_PAIR) from None
        values[filled : filled + len(part)] = part
        filled += len(part)
        start = stop + 1
    del numbers
    finite = np.isfinite(values)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)) // 2, dim)
        raise _entry_error(path, row, col, "is not a finite number")
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


def _read_state_file(path: str | Path) -> object:
    """The JSON value in a state file, a mixed state's matrix left as its bytes.

    The top-level "matrix" array of a mixed state is found in the bytes and
    the rest of the file is parsed with that array replaced by null.  A file
    where this finds no such array, or another one, is parsed whole.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read state file {path}: {exc}") from exc
    keys = [m for m in _MATRIX_KEY.finditer(raw) if raw[m.start() - 1 : m.start()] != b"\\"]
    end = _MATRIX_END.search(raw, keys[0].end() - 1) if len(keys) == 1 else None
    if end is not None:
        start, stop = keys[0].end() - 1, end.end()
        try:
            payload, holders = _decode(raw[:start] + b"null" + raw[stop:], path)
        except _JSON_ERRORS:  # the whole-file parse below says why
            payload, holders = None, 0
        # one "matrix" key in the file, at the top level, and it held the span
        top_level = holders == 1 and isinstance(payload, dict)
        if top_level and payload.get("kind") == "mixed" and payload.get("matrix", False) is None:
            payload["matrix"] = raw[start:stop]
            return payload
    try:
        return _decode(raw, path)[0]
    except InvalidInputError:
        raise
    except _JSON_ERRORS as exc:
        raise InvalidInputError(f"state file {path} is not valid JSON: {exc}") from exc


def load_state_json(path: str | Path) -> PureState | DensityMatrix:
    """Read a state description from JSON.

    Pure states carry ``"kind": "pure"`` and a list of ``{"index", "re", "im"}``
    amplitude records: a string of ASCII digits and two JSON numbers, ``"im"``
    0 when left out, each index once; mixed states carry ``"kind": "mixed"``
    and a row-major ``"matrix"`` of ``[re, im]`` entries, each exactly two
    JSON numbers.
    ``"n"`` and ``"d"`` are JSON integers.  A key repeated in any object is
    refused.
    """
    payload = _read_state_file(path)
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
        text = payload.pop("matrix")
        if isinstance(text, list):  # found by the whole-file parse: checked the same way
            text = json.dumps(text).encode()
        if not isinstance(text, bytes):
            raise InvalidInputError(f'state file {path}: "matrix" is not an array')
        matrix = _parse_matrix(text, n, d, path)
        del text  # validation below needs only the array
        return DensityMatrix(n, d, matrix)

    raise InvalidInputError(f"unknown state kind {kind!r} in {path}")
