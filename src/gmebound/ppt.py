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
from .indices import Bipartition, IndexPair, MultiIndex, permute_pair
from .states import DensityMatrix, ElementSource, partial_transpose


def _check_antipodal(pair: IndexPair) -> None:
    d = pair.d
    for x, y in zip(pair.first.digits, pair.second.digits):
        if x + y != d - 1:
            raise InvalidInputError(
                f"pair {pair} is not antipodal: digits must sum to d-1 = {d - 1} sitewise"
            )


def _images(pair: IndexPair, gamma: Bipartition) -> tuple[MultiIndex, MultiIndex]:
    """The pair with its gamma digits exchanged, for a valid pair and cut."""
    _check_antipodal(pair)
    if gamma.n != pair.n:
        raise InvalidInputError(f"gamma over n={gamma.n}, pair over n={pair.n}")
    return permute_pair(gamma, pair.as_tuple())


def _omega(pair: IndexPair, img1: MultiIndex, img2: MultiIndex, rho: ElementSource) -> float:
    diag = 0.5 * (rho.diagonal(img1) + rho.diagonal(img2))
    return diag - rho.element(pair.first, pair.second).real


@dataclass(frozen=True)
class PptWitness:
    pair: IndexPair
    gamma: Bipartition
    operator: np.ndarray


def build_ppt_witness(pair: IndexPair, gamma: Bipartition) -> PptWitness:
    img1, img2 = _images(pair, gamma)
    n, d = pair.n, pair.d
    lam = np.zeros(d**n, dtype=complex)
    lam[img1.rank] = 1.0 / math.sqrt(2.0)
    lam[img2.rank] = -1.0 / math.sqrt(2.0)
    projector = DensityMatrix(n, d, np.outer(lam, lam.conj()), validate=False)
    return PptWitness(pair=pair, gamma=gamma, operator=partial_transpose(projector, gamma))


def ppt_expectation(w: PptWitness, rho: DensityMatrix) -> float:
    """Tr(O rho), through the dense operator."""
    return float(np.trace(w.operator @ rho.matrix).real)


def ppt_expectation_elements(w: PptWitness, rho: ElementSource) -> float:
    """The same expectation from four matrix elements."""
    return _omega(w.pair, *permute_pair(w.gamma, w.pair.as_tuple()), rho)


@dataclass(frozen=True)
class PptComparison:
    """Linear (Omega) vs nonlinear (-W) expectation for one pair and cut."""

    omega: float
    minus_w: float
    dominance: bool


def compare_with_witness_bracket(
    pair: IndexPair, gamma: Bipartition, rho: ElementSource, atol: float = 1e-12
) -> PptComparison:
    """Omega from its four matrix elements; the dense operator is never built."""
    img1, img2 = _images(pair, gamma)
    omega = _omega(pair, img1, img2, rho)
    d1 = max(rho.diagonal(img1), 0.0)
    d2 = max(rho.diagonal(img2), 0.0)
    minus_w = math.sqrt(d1 * d2) - abs(rho.element(pair.first, pair.second))
    return PptComparison(omega=omega, minus_w=minus_w, dominance=minus_w <= omega + atol)


def enumerate_ghz_pairs(n: int, d: int) -> list[IndexPair]:
    """All antipodal pairs; (d**n - 1)/2 of them for odd d, d**n / 2 for even."""
    pairs = []
    for rank in range(d**n):
        eta = MultiIndex.from_rank(rank, n, d)
        mirror = MultiIndex(tuple(d - 1 - x for x in eta.digits), d)
        if eta.digits < mirror.digits:
            pairs.append(IndexPair.of(eta, mirror))
    return pairs
