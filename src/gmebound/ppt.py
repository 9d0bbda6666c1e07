"""Linear PPT-based witnesses for antipodal index pairs.

For a pair (eta1, eta2) with digitwise eta1 + eta2 = d-1 and a bipartition
gamma, the operator is the partial transpose (on gamma) of the projector onto
(|eta1'> - |eta2'>)/sqrt(2), where the primed pair has its gamma digits
exchanged.  Its expectation has the closed form

    Omega = (rho_e1'e1' + rho_e2'e2') / 2 - Re rho_e1e2

and always dominates the corresponding nonlinear bracket
sqrt(rho_e1'e1' * rho_e2'e2') - |rho_e1e2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .indices import Bipartition, IndexPair, place_values, rank_digits, rank_dtype
from .states import DensityMatrix, ElementSource, partial_transpose
from .witness import PairSet, _images


def _check_antipodal(pair: IndexPair) -> None:
    d = pair.d
    for x, y in zip(pair.first.digits, pair.second.digits):
        if x + y != d - 1:
            raise InvalidInputError(
                f"pair {pair} is not antipodal: digits must sum to d-1 = {d - 1} sitewise"
            )


def _image_ranks(pair: IndexPair, gamma: Bipartition) -> tuple[int, int]:
    """The ranks of the pair with its gamma digits exchanged, lower first, for
    a valid pair and cut."""
    _check_antipodal(pair)
    if gamma.n != pair.n:
        raise InvalidInputError(f"gamma over n={gamma.n}, pair over n={pair.n}")
    digits = np.array([pair.first.digits, pair.second.digits], dtype=np.int64)
    values = place_values(pair.n, pair.d)
    mask = np.zeros((1, pair.n), dtype=np.int8)
    mask[0, [p - 1 for p in gamma.parties]] = 1
    lo, hi = _images((digits @ values)[None], ((digits[1] - digits[0]) * values)[:, None], mask)
    return lo.item(), hi.item()


def _reads(
    pair: IndexPair, img1: int, img2: int, rho: ElementSource
) -> tuple[complex, float, float]:
    """rho_e1e2 and the diagonals at the two image ranks, in one gather."""
    dtype = rank_dtype(pair.n, pair.d)
    rows = np.array([pair.first.rank, img1, img2], dtype=dtype)
    cols = np.array([pair.second.rank, img1, img2], dtype=dtype)
    coherence, diag1, diag2 = rho.elements(rows, cols).tolist()
    return coherence, diag1.real, diag2.real


def _omega(coherence: complex, diag1: float, diag2: float) -> float:
    return 0.5 * (diag1 + diag2) - coherence.real


@dataclass(frozen=True)
class PptWitness:
    pair: IndexPair
    gamma: Bipartition
    operator: np.ndarray
    # the ranks of the pair with its gamma digits exchanged, lower first
    images: tuple[int, int]


def build_ppt_witness(pair: IndexPair, gamma: Bipartition) -> PptWitness:
    img1, img2 = _image_ranks(pair, gamma)
    n, d = pair.n, pair.d
    lam = np.zeros(d**n, dtype=complex)
    lam[img1] = 1.0 / math.sqrt(2.0)
    lam[img2] = -1.0 / math.sqrt(2.0)
    projector = DensityMatrix(n, d, np.outer(lam, lam.conj()), validate=False)
    operator = partial_transpose(projector, gamma)
    return PptWitness(pair=pair, gamma=gamma, operator=operator, images=(img1, img2))


def ppt_expectation(w: PptWitness, rho: DensityMatrix) -> float:
    """Tr(O rho), through the dense operator."""
    return float(np.trace(w.operator @ rho.matrix).real)


def ppt_expectation_elements(w: PptWitness, rho: ElementSource) -> float:
    """The same expectation from four matrix elements."""
    return _omega(*_reads(w.pair, *w.images, rho))


@dataclass(frozen=True)
class PptComparison:
    """Linear (Omega) vs nonlinear (-W) expectation for one pair and cut."""

    omega: float
    minus_w: float
    dominance: bool


def compare_with_witness_bracket(
    pair: IndexPair, gamma: Bipartition, rho: ElementSource, atol: float = 1e-12
) -> PptComparison:
    """Omega from its matrix elements, read in one gather; the dense operator is never built."""
    coherence, diag1, diag2 = _reads(pair, *_image_ranks(pair, gamma), rho)
    omega = _omega(coherence, diag1, diag2)
    minus_w = math.sqrt(max(diag1, 0.0) * max(diag2, 0.0)) - abs(coherence)
    return PptComparison(omega=omega, minus_w=minus_w, dominance=minus_w <= omega + atol)


def enumerate_ghz_pairs(n: int, d: int) -> PairSet:
    """All antipodal pairs, in rank order of their lower index: rank r with
    its mirror d**n - 1 - r, for r < d**n - 1 - r.  That is (d**n - 1)/2
    pairs for odd d, d**n / 2 for even."""
    lower = rank_digits(np.arange(d**n // 2), n, d)
    return PairSet(np.stack([lower, d - 1 - lower], axis=1), n, d)
