"""Subsystem linear entropy and the pure-state entanglement measure.

Two independent routes compute the same quantity:

* :func:`linear_entropy_trace` reduces the density matrix and evaluates
  ``2 * (1 - Tr rho_gamma**2)``;
* :func:`linear_entropy_coeff` never builds a matrix: it sums
  ``|c_a c_b - c_a' c_b'|**2`` over ordered index pairs, where the primed
  indices are the pair with its gamma digits exchanged.

For pure states the measure is ``min_gamma sqrt(S_L(rho_gamma))`` over the
canonical bipartitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import InvalidInputError
from .indices import Bipartition, enumerate_bipartitions, permute_pair
from .states import PureState, partial_trace


def linear_entropy_trace(psi: PureState, gamma: Bipartition) -> float:
    """S_L of the gamma reduction, via the dense partial trace."""
    reduced = partial_trace(psi.density(), gamma)
    purity = float((reduced.matrix @ reduced.matrix).trace().real)
    return 2.0 * (1.0 - purity)


def linear_entropy_coeff(psi: PureState, gamma: Bipartition) -> float:
    """S_L of the gamma reduction, from amplitudes alone.

    The sum runs over all ordered pairs of distinct basis indices, but a term
    survives only if the pair or its gamma-permuted image lies in the support,
    so the work is quadratic in the support size.
    """
    if gamma.n != psi.n:
        raise InvalidInputError(f"gamma over n={gamma.n}, state over n={psi.n}")
    support = psi.support
    in_support = set(support)
    total = 0.0
    for eta1, eta2 in product(support, repeat=2):
        if eta1 == eta2:
            continue
        img1, img2 = permute_pair(gamma, (eta1, eta2))
        c_here = psi.amplitudes[eta1] * psi.amplitudes[eta2]
        c_img = psi.amplitude(img1) * psi.amplitude(img2)
        total += abs(c_here - c_img) ** 2
        # the permuted pair indexes a term of its own; when it falls outside
        # the support it is not visited by this loop, so account for it here
        if img1 not in in_support or img2 not in in_support:
            total += abs(c_here) ** 2
    return total


@dataclass(frozen=True)
class EntropyReport:
    """Per-bipartition linear entropies and the resulting pure-state measure."""

    entropies: dict[Bipartition, float]
    minimizer: Bipartition
    e_m: float


def gme_measure_pure(psi: PureState, method: str = "coeff") -> EntropyReport:
    """min over canonical bipartitions of sqrt(S_L)."""
    if method == "coeff":
        entropy = linear_entropy_coeff
    elif method == "trace":
        entropy = linear_entropy_trace
    else:
        raise InvalidInputError(f"unknown entropy method {method!r}")
    entropies = {g: entropy(psi, g) for g in enumerate_bipartitions(psi.n)}
    minimizer = min(entropies, key=lambda g: (entropies[g], g.sorted_parties()))
    # clamp tiny negative round-off before the square root
    s_min = max(entropies[minimizer], 0.0)
    return EntropyReport(entropies, minimizer, math.sqrt(s_min))

