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


def load_state_json(path: str | Path) -> PureState | DensityMatrix:
    """Read a state description from JSON.

    Pure states carry ``"kind": "pure"`` and a list of ``{"index", "re", "im"}``
    amplitude records; mixed states carry ``"kind": "mixed"`` and a row-major
    ``"matrix"`` of ``[re, im]`` entries.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"state file {path} is not valid JSON: {exc}") from exc

    try:
        n = int(payload["n"])
        d = int(payload["d"])
        kind = payload["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"state file {path} missing n/d/kind: {exc}") from exc

    if kind == "pure":
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
        try:
            rows = payload["matrix"]
            mat = np.array(
                [[complex(entry[0], entry[1]) for entry in row] for row in rows],
                dtype=complex,
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidInputError(f"bad matrix entry in {path}: {exc}") from exc
        return DensityMatrix(n, d, mat)

    raise InvalidInputError(f"unknown state kind {kind!r} in {path}")
