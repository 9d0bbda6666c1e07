"""State containers and reference states.

Pure states are stored sparsely (amplitudes keyed by :class:`MultiIndex`);
density matrices are dense ``(d**n, d**n)`` complex arrays whose row/column
order follows :attr:`MultiIndex.rank`; white noise on a pure state is a view
that is never materialised.  All three answer ``elements(rows, cols)`` on
arrays of ranks, which is the one way the package reads matrix entries; a
single entry is a gather of length one.

Arithmetic on amplitudes goes component by component through
:func:`complex_product`, in the operation order of Python's complex product,
so an entry read in bulk equals the one read alone bit for bit.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .indices import Bipartition, MultiIndex, place_values, rank_positions

NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGMIN_ATOL = -1e-10


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # filled part by part: re + 1j * im would round through a complex product
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def complex_product(
    ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (ar + i ai) * (br + i bi), rounded as
    Python's complex product rounds them."""
    return ar * br - ai * bi, ar * bi + ai * br


@dataclass(frozen=True)
class PureState:
    """A normalized n-qudit ket with sparse amplitudes."""

    n: int
    d: int
    amplitudes: dict[MultiIndex, complex]

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 2:
            raise InvalidInputError(f"bad shape n={self.n}, d={self.d}")
        for eta, c in self.amplitudes.items():
            if eta.n != self.n or eta.d != self.d:
                raise InvalidInputError(f"amplitude index {eta} does not match n={self.n}, d={self.d}")
            if not cmath.isfinite(c):
                raise InvalidInputError(f"amplitude of {eta} is not finite: {c!r}")
        norm2 = sum(abs(c) ** 2 for c in self.amplitudes.values())
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise InvalidInputError(f"state not normalized: |psi|^2 = {norm2!r}")

    @cached_property
    def support_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The support as sorted ranks, its ``(k, n)`` digits, and the real and
        imaginary parts of its amplitudes."""
        support = sorted(self.amplitudes)
        digits = np.array([eta.digits for eta in support], dtype=np.int64).reshape(-1, self.n)
        amps = np.array([complex(self.amplitudes[eta]) for eta in support], dtype=complex)
        return digits @ place_values(self.n, self.d), digits, amps.real.copy(), amps.imag.copy()

    def amplitudes_at(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real and imaginary amplitude parts at the given ranks (0 off the
        support), and whether each rank is in the support."""
        support, _, re, im = self.support_arrays
        pos = rank_positions(support, ranks)
        hit = pos >= 0
        return np.where(hit, re[pos], 0.0), np.where(hit, im[pos], 0.0), hit

    def to_vector(self) -> np.ndarray:
        vec = np.zeros(self.d**self.n, dtype=complex)
        for eta, c in self.amplitudes.items():
            vec[eta.rank] = c
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


@dataclass
class DensityMatrix:
    """A dense n-qudit density matrix in the computational basis."""

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
            if not np.allclose(self.matrix, self.matrix.conj().T, atol=HERMITICITY_ATOL):
                raise InvalidInputError("density matrix is not Hermitian")
            tr = np.trace(self.matrix).real
            if abs(tr - 1.0) > TRACE_ATOL:
                raise InvalidInputError(f"density matrix has trace {tr!r}, expected 1")
            eigmin = float(np.linalg.eigvalsh(self.matrix).min())
            if eigmin < EIGMIN_ATOL:
                raise InvalidInputError(f"density matrix has negative eigenvalue {eigmin!r}")

    @property
    def dim(self) -> int:
        return self.d**self.n

    def elements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.matrix[rows, cols]


# what the witnesses read: elements(rows, cols) over a fixed (n, d)
ElementSource = PureState | NoisyPureState | DensityMatrix


# ---------------------------------------------------------------------------
# reference states


def make_w_state(n: int = 3) -> PureState:
    """(|10...0> + |010...> + ... + |0...01>) / sqrt(n)."""
    amp = 1.0 / math.sqrt(n)
    amplitudes = {}
    for k in range(n):
        digits = tuple(1 if i == k else 0 for i in range(n))
        amplitudes[MultiIndex(digits, 2)] = amp
    return PureState(n, 2, amplitudes)


def make_ghz_state(
    n: int = 3,
    d: int = 2,
    eta1: MultiIndex | None = None,
    eta2: MultiIndex | None = None,
) -> PureState:
    """(|eta1> + |eta2>) / sqrt(2); defaults to |0...0>, |(d-1)...(d-1)>."""
    if eta1 is None:
        eta1 = MultiIndex((0,) * n, d)
    if eta2 is None:
        eta2 = MultiIndex((d - 1,) * n, d)
    if eta1 == eta2:
        raise InvalidInputError("GHZ endpoints must differ")
    amp = 1.0 / math.sqrt(2.0)
    return PureState(n, d, {eta1: amp, eta2: amp})


def make_dicke_state(n: int, d: int, m: int) -> PureState:
    """Higher-dimensional Dicke state with m excitations spread over d-1 levels.

    Support strings have digit l+1 on a size-m subset and digit l elsewhere,
    for every level l in [0, d-2]; all amplitudes equal.
    """
    if not (1 <= m <= n - 1):
        raise InvalidInputError(f"need 1 <= m <= n-1, got m={m}, n={n}")
    if d < 2:
        raise InvalidInputError(f"need d >= 2, got d={d}")
    amp = 1.0 / math.sqrt(math.comb(n, m) * (d - 1))
    amplitudes: dict[MultiIndex, complex] = {}
    for level in range(d - 1):
        for excited in combinations(range(n), m):
            digits = tuple(level + 1 if i in excited else level for i in range(n))
            amplitudes[MultiIndex(digits, d)] = amp
    return PureState(n, d, amplitudes)


def make_singlet4() -> PureState:
    """Four-qubit singlet (1/sqrt(3))(|0011> + |1100> - (|0101> + |0110> + |1001> + |1010>)/2)."""
    s3 = math.sqrt(3.0)
    amps = {
        "0011": 1 / s3,
        "1100": 1 / s3,
        "0101": -1 / (2 * s3),
        "0110": -1 / (2 * s3),
        "1001": -1 / (2 * s3),
        "1010": -1 / (2 * s3),
    }
    return PureState(
        4, 2, {MultiIndex.from_string(k, 2): complex(v) for k, v in amps.items()}
    )


def embed_pure(psi: PureState, d: int) -> PureState:
    """Reinterpret a state's digits inside a larger local dimension."""
    if d < psi.d:
        raise InvalidInputError(f"cannot embed d={psi.d} into smaller d={d}")
    amplitudes = {MultiIndex(eta.digits, d): c for eta, c in psi.amplitudes.items()}
    return PureState(psi.n, d, amplitudes)


def white_noise_mix(pure: PureState, p: float) -> DensityMatrix:
    """p * |psi><psi| + (1-p) * I / d**n."""
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"mixing weight p={p} outside [0, 1]")
    dim = pure.d**pure.n
    rho = p * pure.density().matrix + (1.0 - p) * np.eye(dim) / dim
    return DensityMatrix(pure.n, pure.d, rho, validate=False)


def make_isotropic(d: int, p: float) -> DensityMatrix:
    """Two-qudit isotropic state: white noise on the maximally entangled pair."""
    amp = 1.0 / math.sqrt(d)
    phi = PureState(
        2, d, {MultiIndex((j, j), d): amp for j in range(d)}
    )
    return white_noise_mix(phi, p)


# ---------------------------------------------------------------------------
# subsystem operations


def _axis_order(n: int, gamma: Bipartition) -> tuple[list[int], list[int]]:
    keep = [p - 1 for p in gamma.sorted_parties()]
    drop = [i for i in range(n) if i not in keep]
    return keep, drop


def partial_trace(rho: DensityMatrix, gamma: Bipartition) -> DensityMatrix:
    """Trace out the complement of gamma; subsystem order follows sorted gamma."""
    if gamma.n != rho.n:
        raise InvalidInputError(f"gamma over n={gamma.n}, state over n={rho.n}")
    n, d = rho.n, rho.d
    keep, drop = _axis_order(n, gamma)
    tensor = rho.matrix.reshape((d,) * (2 * n))
    # bring kept row axes first, kept column axes next, traced axes last
    perm = keep + [n + i for i in keep] + drop + [n + i for i in drop]
    tensor = tensor.transpose(perm)
    dk = d ** len(keep)
    dd = d ** len(drop)
    tensor = tensor.reshape(dk, dk, dd, dd)
    reduced = np.einsum("ijkk->ij", tensor)
    return DensityMatrix(len(keep), d, reduced, validate=False)


def partial_transpose(rho: DensityMatrix, gamma: Bipartition) -> np.ndarray:
    """Transpose the gamma subsystems; returns a plain array (it may be non-PSD)."""
    if gamma.n != rho.n:
        raise InvalidInputError(f"gamma over n={gamma.n}, state over n={rho.n}")
    n, d = rho.n, rho.d
    tensor = rho.matrix.reshape((d,) * (2 * n))
    perm = list(range(2 * n))
    for p in gamma.parties:
        i = p - 1
        perm[i], perm[n + i] = perm[n + i], perm[i]
    return tensor.transpose(perm).reshape(d**n, d**n)


# ---------------------------------------------------------------------------
# file input

_WHITESPACE = b" \t\n\r"
# A dense matrix is read from the bytes of its array, not as JSON lists.  Its
# key is the one "matrix" key, not after a backslash, opening an array; the
# array ends at the first "]]]", the only place a valid matrix closes three
# arrays at once.
_MATRIX_KEY = re.compile(rb'"matrix"[ \t\n\r]*:[ \t\n\r]*\[')
_MATRIX_END = re.compile(rb"\][ \t\n\r]*\][ \t\n\r]*\]")
# ValueError covers JSONDecodeError, UnicodeDecodeError and ints past Python's digit limit
_JSON_ERRORS = (ValueError, RecursionError)

# Class codes of the bytes of a matrix array, 0 for a byte that cannot occur
# there.  A number's leading "-" is MINUS and its leading "0" is LEAD; a
# digit followed by whitespace is TAIL, which only "," or "]" may follow, so
# deleting the whitespace cannot join "1 2" into 12.
(_BAD, _OPEN, _CLOSE, _COMMA, _MINUS, _ZERO, _DIGIT, _DOT, _EXP, _SIGN, _LEAD, _TAIL,
 _SPACE) = range(13)
_FOLLOWED = 16  # flags a byte followed by whitespace, until whitespace is deleted


def _byte_table(rule) -> bytes:
    return bytes(rule(b) for b in range(256))


def _pair_table(rule) -> bytes:
    """A table over ``code << 4 | next_code``."""
    return _byte_table(lambda b: rule(b >> 4, b & 15))


_CLASSES = {b"[": _OPEN, b"]": _CLOSE, b",": _COMMA, b"-": _MINUS, b"0": _ZERO,
            b"123456789": _DIGIT, b".": _DOT, b"eE": _EXP, b"+": _SIGN, _WHITESPACE: _SPACE}
_CLASS = _byte_table(lambda b: next((c for chars, c in _CLASSES.items() if b in chars), _BAD))
_BEFORE_SPACE = _byte_table(
    lambda b: b if b < _FOLLOWED
    else b & 15 if b & 15 in (_OPEN, _CLOSE, _COMMA)
    else _TAIL if b & 15 in (_ZERO, _DIGIT)
    else _BAD
)
# "-" after "e" signs the exponent; "0" after "[", "," or a leading "-" leads a number
_EXP_SIGN = _pair_table(lambda a, b: _SIGN if (a, b) == (_EXP, _MINUS) else b)
_LEADING = _pair_table(lambda a, b: _LEAD if b == _ZERO and a in (_OPEN, _COMMA, _MINUS) else b)
# the codes that may follow each code once whitespace is gone: JSON's number
# grammar between brackets and commas
_STARTS = {_MINUS, _LEAD, _DIGIT, _TAIL}
_AFTER_DIGIT = {_ZERO, _DIGIT, _TAIL, _DOT, _EXP, _COMMA, _CLOSE}
_NEXT = {
    _OPEN: {_OPEN} | _STARTS,
    _COMMA: {_OPEN} | _STARTS,
    _CLOSE: {_COMMA, _CLOSE},
    _MINUS: {_LEAD, _DIGIT, _TAIL},
    _LEAD: {_DOT, _EXP, _COMMA, _CLOSE},
    _ZERO: _AFTER_DIGIT,
    _DIGIT: _AFTER_DIGIT,
    _DOT: {_ZERO, _DIGIT, _TAIL},
    _EXP: {_SIGN, _ZERO, _DIGIT, _TAIL},
    _SIGN: {_ZERO, _DIGIT, _TAIL},
    _TAIL: {_COMMA, _CLOSE},
}
_VALID = _pair_table(lambda a, b: b in _NEXT.get(a, ()))
_NUMBER_BODY = bytes([_MINUS, _ZERO, _DIGIT, _SIGN, _LEAD, _TAIL])
# with the digits and signs gone, a number keeps "." and "e" in this order, each once
_MISORDERED = (bytes([_DOT, _DOT]), bytes([_EXP, _EXP]), bytes([_EXP, _DOT]))


def _codes(text: bytes) -> bytearray:
    """The class codes of ``text`` with the whitespace deleted: a digit that
    preceded whitespace is TAIL, an exponent's "-" is SIGN and a number's
    leading "0" is LEAD."""
    marked = bytearray(text.translate(_CLASS))
    c = np.frombuffer(marked, np.uint8)
    followed = (c[1:] == _SPACE).view(np.uint8)
    followed <<= 4  # in place: one byte per byte of text at a time
    c[:-1] |= followed
    del c, followed
    codes = marked.translate(_BEFORE_SPACE, bytes([_SPACE, _SPACE | _FOLLOWED]))
    del marked
    for table in (_EXP_SIGN, _LEADING):
        codes = _pairs(codes).translate(table)
    return codes


def _pairs(codes: bytes) -> bytearray:
    """Per class code, the one before it (a "," before the first) in the high
    nibble and its own in the low nibble."""
    c = np.frombuffer(codes, np.uint8)
    out = bytearray(len(codes))
    pairs = np.frombuffer(out, np.uint8)
    pairs[0] = _COMMA << 4
    np.left_shift(c[:-1], 4, out=pairs[1:])
    pairs |= c
    return out


def _entry_at(codes: bytes, pos: int) -> tuple[int, int, int]:
    """Row and column of the matrix entry at class code ``pos`` (the last one
    opened), and how many arrays are open there."""
    c = np.frombuffer(codes, np.uint8)[: pos + 1]
    opens = c == _OPEN
    depth = np.cumsum(opens, dtype=np.int64) - np.cumsum(c == _CLOSE)
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
    """The first ``size`` class codes of a ``dim x dim`` matrix of ``[re, im]``
    entries, numbers left out; rows and entries past ``size`` are not built."""
    entry = bytes([_OPEN, _COMMA, _CLOSE])
    row = bytes([_OPEN]) + bytes([_COMMA]).join([entry] * min(dim, size // 4 + 1)) + bytes([_CLOSE])
    rows = bytes([_COMMA]).join([row] * min(dim, size // len(row) + 1))
    return (bytes([_OPEN]) + rows + bytes([_CLOSE]))[:size]


def _parse_matrix(text: bytes, n: int, d: int, path: str | Path) -> np.ndarray:
    """The ``(dim, dim)`` complex matrix written in ``text``, ``dim = d**n``:
    a JSON array of ``dim`` rows of ``dim`` entries ``[re, im]``, each part a
    JSON number.

    The structure and the number grammar are checked in a few passes over
    the bytes, one numpy conversion reads the numbers, and each entry equals
    ``complex(re, im)`` of the numbers ``json`` would read, bit for bit.
    """
    # a d**n that could not fit in the text is refused before it is computed
    if n > 0 and abs(d) > 1 and n * math.log2(abs(d)) > math.log2(len(text)):
        raise InvalidInputError(
            f"state file {path}: a matrix of {len(text)} bytes has no {d}**{n} rows"
        )
    dim = d**n
    if not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"state file {path}: d**n = {d}**{n} is not a matrix size")
    codes = _codes(text)
    bad = _pairs(codes).translate(_VALID).find(0)
    if bad >= 0:
        row, col, _ = _entry_at(codes, bad)
        infinite = text.translate(None, _WHITESPACE).startswith((b"NaN", b"Infinity"), bad)
        raise _entry_error(path, row, col, "is not a finite number" if infinite else _NOT_A_PAIR)
    marks = codes.translate(None, _NUMBER_BODY)
    del codes
    for wrong in _MISORDERED:
        at = marks.find(wrong)
        if at >= 0:
            row, col, _ = _entry_at(marks, at)
            raise _entry_error(path, row, col, _NOT_A_PAIR)
    skeleton = marks.translate(None, bytes([_DOT, _EXP]))
    del marks
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
    # JSON's integer -0 reads as 0, not -0.0 ("e-0" becoming "e0" keeps its value)
    numbers = text.translate(None, b"[]" + _WHITESPACE).replace(b"-0,", b"0,")
    if numbers.endswith(b"-0"):
        numbers = numbers[:-2] + b"0"
    values = np.fromstring(numbers, sep=",")
    del numbers
    if values.size != 2 * dim * dim:
        raise InvalidInputError(
            f"state file {path}: matrix holds {values.size} numbers, not {2 * dim * dim}"
        )
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
    amplitude records; mixed states carry ``"kind": "mixed"`` and a row-major
    ``"matrix"`` of ``[re, im]`` entries, each exactly two JSON numbers.  A
    key repeated in any object is refused.
    """
    payload = _read_state_file(path)
    try:
        n = int(payload["n"])
        d = int(payload["d"])
        kind = payload["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"state file {path} missing n/d/kind: {exc}") from exc

    if kind == "pure":
        if "amplitudes" not in payload:
            raise InvalidInputError(f'state file {path} has no "amplitudes"')
        try:
            amplitudes: dict[MultiIndex, complex] = {}
            for rec in payload["amplitudes"]:
                eta = MultiIndex.from_string(rec["index"], d, n)
                if eta in amplitudes:
                    raise InvalidInputError(f"duplicate amplitude record for index {eta}")
                amplitudes[eta] = complex(float(rec["re"]), float(rec.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad amplitude record in {path}: {exc}") from exc
        return PureState(n, d, amplitudes)

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
