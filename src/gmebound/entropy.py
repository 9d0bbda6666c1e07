"""Subsystem linear entropy and the pure-state entanglement measure.

Two independent routes compute the same quantity:

* :func:`linear_entropy_trace` reshapes the statevector across the cut, sums
  the reduced matrix from it and evaluates ``2 * (1 - Tr rho_gamma**2)``;
* :func:`linear_entropy_coeff` never builds a matrix: it sums
  ``|c_a c_b - c_a' c_b'|**2`` over ordered index pairs, where the primed
  indices are the pair with its gamma digits exchanged.

For pure states the measure is ``min_gamma sqrt(S_L(rho_gamma))`` over the
canonical bipartitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .indices import _chunks, cut_labels, cut_masks, place_values
from .states import PureState, _cut_sides, complex_product


def linear_entropy_trace(psi: PureState, gamma: np.ndarray) -> float:
    """S_L of the reduction to the parties of the 0/1 mask row gamma, from the
    statevector reshaped across the cut.

    The reduced matrix is summed from the products of the reshaped
    statevector, laid out as the dense route's ``|psi><psi|`` had them, so
    every float equals the partial trace of ``psi.density()``; no
    ``d**n x d**n`` matrix is built, and the products are formed a block of
    rows at a time.
    """
    n, d = psi.n, psi.d
    keep, drop = _cut_sides(n, gamma)
    psi_matrix = psi.to_vector().reshape((d,) * n).transpose(keep + drop).reshape(d ** len(keep), -1)
    conj_t = np.ascontiguousarray(psi_matrix.conj().T)
    reduced = np.empty((len(psi_matrix), len(psi_matrix)), dtype=complex)
    for rows in _chunks(len(psi_matrix), psi_matrix.size):
        # products psi_ik * conj(psi_jk) with j innermost, then a sequential sum over k
        reduced[rows] = np.einsum("ikj->ij", psi_matrix[rows, :, None] * conj_t[None, :, :])
    # Tr(R R) = sum |R_ij|**2 for the Hermitian R, in O(a**2) rather than a product
    purity = float((reduced.real**2 + reduced.imag**2).sum())
    return 2.0 * (1.0 - purity)


def linear_entropy_coeff(psi: PureState, gamma: np.ndarray) -> float:
    """S_L of the reduction to the parties of the 0/1 mask row gamma, from
    amplitudes alone.

    The sum runs over all ordered pairs of distinct basis indices, but a term
    survives only if the pair or its gamma-permuted image lies in the support,
    so the work is quadratic in the support size.  The terms are added in the
    row-major order of the support pairs, each pair's correction right after it.
    """
    mask = np.zeros((1, psi.n), dtype=np.int8)
    mask[0, _cut_sides(psi.n, gamma)[0]] = 1
    return float(_coeff_entropies(psi, mask)[0])


def _coeff_entropies(psi: PureState, masks: np.ndarray) -> np.ndarray:
    """:func:`linear_entropy_coeff` across each cut of a ``(cuts, n)`` 0/1 mask,
    many cuts per array pass when the support is small."""
    ranks, re, im = psi.ranks, psi.amplitudes.real, psi.amplitudes.imag
    size = len(ranks)
    weighted = (psi.digits * place_values(psi.n, psi.d)).T
    here_re, here_im = complex_product(re[:, None], im[:, None], re, im)
    positions = np.arange(size)
    out = np.empty(len(masks))
    for cuts in _chunks(len(masks), size**2):
        # the part of each rank carried by the cut's digits: exchanging them
        # between eta1 and eta2 moves rank t2 - t1 into eta1 and back out of eta2
        part = (masks[cuts] @ weighted)[:, None, :]
        total = np.zeros(len(part))
        for rows in _chunks(size, len(part) * size):
            i = positions[rows]
            own = part[:, 0, i, None]
            img1 = ranks[i, None] - own + part
            img2 = ranks - part + own
            re1, im1, hit1 = psi.amplitudes_at(img1)
            re2, im2, hit2 = psi.amplitudes_at(img2)
            img_re, img_im = complex_product(re1, im1, re2, im2)
            terms = np.empty(img1.shape + (2,))
            terms[..., 0] = np.float_power(np.hypot(here_re[i] - img_re, here_im[i] - img_im), 2.0)
            # the permuted pair indexes a term of its own; when it falls outside
            # the support it is not visited by this sum, so account for it here
            outside = ~(hit1 & hit2)
            terms[..., 1] = np.where(outside, np.float_power(np.hypot(here_re[i], here_im[i]), 2.0), 0.0)
            terms[:, i - rows.start, i] = 0.0  # eta1 == eta2 is not a pair
            flat = np.concatenate([total[:, None], terms.reshape(len(total), -1)], axis=1)
            total = np.cumsum(flat, axis=1)[:, -1]
        out[cuts] = total
    return out


@dataclass(frozen=True)
class EntropyReport:
    """Per-bipartition linear entropies and the resulting pure-state measure.

    ``values`` holds S_L across each canonical cut in the row order of
    :func:`cut_masks`, and ``best`` the row of the minimizer.
    """

    n: int
    values: tuple[float, ...]
    best: int
    e_m: float

    @cached_property
    def entropies(self) -> dict[str, float]:
        """S_L per cut, keyed by its label in :func:`cut_labels`."""
        return dict(zip(cut_labels(self.n), self.values))


def gme_measure_pure(psi: PureState, method: str = "coeff") -> EntropyReport:
    """min over canonical bipartitions of sqrt(S_L); ties go to the cut whose
    sorted parties come first."""
    if method not in ("coeff", "trace"):
        raise InvalidInputError(f"unknown entropy method {method!r}")
    masks = cut_masks(psi.n)
    if method == "coeff":
        values = tuple(_coeff_entropies(psi, masks).tolist())
    else:
        values = tuple(linear_entropy_trace(psi, g) for g in masks)
    low = min(values)
    tied = [i for i, v in enumerate(values) if v == low]
    best = min(tied, key=lambda i: np.flatnonzero(masks[i]).tolist())
    # clamp tiny negative round-off before the square root
    return EntropyReport(psi.n, values, best, math.sqrt(max(values[best], 0.0)))
