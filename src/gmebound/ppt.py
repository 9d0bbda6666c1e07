"""Linear PPT-based witnesses for antipodal index pairs.

For a pair (eta1, eta2) with digitwise eta1 + eta2 = d-1 and a bipartition
gamma, given as a 0/1 mask row over the parties, the operator is the partial
transpose (on gamma) of the projector onto (|eta1'> - |eta2'>)/sqrt(2), where
the primed pair has its gamma digits exchanged.  Its expectation has the
closed form

    Omega = (rho_e1'e1' + rho_e2'e2') / 2 - Re rho_e1e2

and always dominates the corresponding nonlinear bracket
sqrt(rho_e1'e1' * rho_e2'e2') - |rho_e1e2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .indices import place_values, rank_digits
from .states import DensityMatrix, ElementSource, partial_transpose
from .witness import PairSet, Reads, _images

# -W may exceed Omega by this much and still count as dominated (rounding)
DOMINANCE_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class PptWitness:
    """The witness of one antipodal pair and one cut, kept as the entries it
    reads; the dense operator is built only when asked for."""

    # the 0/1 mask row of the transposed parties
    gamma: np.ndarray
    # the entries Omega reads: the pair's coherence, then the diagonals of
    # its one gamma image, lower rank first
    reads: Reads

    @cached_property
    def operator(self) -> np.ndarray:
        """The dense ``d**n x d**n`` operator."""
        n, d = self.reads.n, self.reads.d
        img1, img2 = self.reads.rows[1:].tolist()
        lam = np.zeros(d**n, dtype=complex)
        lam[img1] = 1.0 / math.sqrt(2.0)
        lam[img2] = -1.0 / math.sqrt(2.0)
        projector = DensityMatrix(n, d, np.outer(lam, lam.conj()), validate=False)
        return partial_transpose(projector, self.gamma)


def build_ppt_witness(pair: np.ndarray, d: int, gamma: np.ndarray) -> PptWitness:
    """The witness of the ``(2, n)`` digit array of an antipodal pair over
    ``d`` levels and the cut with 0/1 mask row gamma."""
    pair, gamma = np.asarray(pair, dtype=np.int64), (np.asarray(gamma) != 0).astype(np.int8)
    if not (pair.sum(axis=0) == d - 1).all():
        text = ",".join("".join(map(str, digits)) for digits in pair.tolist())
        raise InvalidInputError(
            f"pair ({text}) is not antipodal: digits must sum to d-1 = {d - 1} sitewise"
        )
    n = pair.shape[1]
    if gamma.shape != (n,):
        raise InvalidInputError(f"gamma over n={gamma.size}, pair over n={n}")
    values = place_values(n, d)
    ranks = pair @ values
    lo, hi = _images(ranks[None], ((pair[1] - pair[0]) * values)[:, None], gamma[None])
    image = np.concatenate([lo, hi]).T  # one cut, one pair: [[lower, higher]]
    reads = Reads.build(n, d, ranks[None], image, np.zeros(1, dtype=np.int64), ranks[:0])
    return PptWitness(gamma=gamma, reads=reads)


def ppt_expectation(w: PptWitness, rho: DensityMatrix) -> float:
    """Tr(O rho), through the dense operator; :func:`compare_with_witness_bracket`
    reads the same value from matrix elements."""
    return float(np.trace(w.operator @ rho.matrix).real)


@dataclass(frozen=True)
class PptComparison:
    """Linear (Omega) vs nonlinear (-W) expectation for one pair and cut."""

    omega: float
    minus_w: float
    dominance: bool


def compare_with_witness_bracket(w: PptWitness, rho: ElementSource) -> PptComparison:
    """Omega from its matrix elements, read in one gather; the dense operator is never built."""
    coherence, diag1, diag2 = w.reads.gather(rho).tolist()
    diag1, diag2 = diag1.real, diag2.real
    omega = 0.5 * (diag1 + diag2) - coherence.real
    minus_w = math.sqrt(max(diag1, 0.0) * max(diag2, 0.0)) - abs(coherence)
    return PptComparison(omega=omega, minus_w=minus_w, dominance=minus_w <= omega + DOMINANCE_ATOL)


def enumerate_ghz_pairs(n: int, d: int) -> PairSet:
    """All antipodal pairs, in rank order of their lower index: rank r with
    its mirror d**n - 1 - r, for r < d**n - 1 - r.  That is (d**n - 1)/2
    pairs for odd d, d**n / 2 for even."""
    lower = rank_digits(np.arange(d**n // 2), n, d)
    return PairSet(np.stack([lower, d - 1 - lower], axis=1), n, d)
