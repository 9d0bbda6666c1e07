"""Local-observable decompositions of the matrix elements a witness consumes.

Every element is written over the generalized Gell-Mann basis:

* symmetric      s{j}:{k}  ->  |j><k| + |k><j|
* antisymmetric  a{j}:{k}  ->  -i|j><k| + i|k><j|
* diagonal       d{l}      ->  sqrt(2/(l(l+1))) diag(1,...,1,-l,0,...)
* identity       id

Single-site identities used throughout (j < k):

    |k><j| = (s - i a)/2          |j><k| = (s + i a)/2
    |j><j| = id/d + sum_{l >= max(j,1)} (d_l[j,j]/2) d_l

with d_l[j,j] = sqrt(2/(l(l+1))) for j < l and -l sqrt(2/(l(l+1))) for j = l.

A *setting* is the tuple of per-site labels to measure: an identity-free label
tuple from some element's decomposition.  A term with identity slots is read
from any setting that matches its committed labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .indices import digit_strings, rank_digits
from .states import DensityMatrix
from .witness import CompiledWitness

Term = tuple[float, tuple[str, ...]]


@lru_cache(maxsize=None)
def op_matrix(label: str, d: int) -> np.ndarray:
    """Matrix of one site label: ``id``, ``s{j}:{k}``, ``a{j}:{k}`` or ``d{l}``."""
    if label == "id":
        return np.eye(d, dtype=complex)
    m = np.zeros((d, d), dtype=complex)
    if label.startswith("d"):
        l = int(label[1:])
        scale = math.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = scale
        m[l, l] = -l * scale
        return m
    kind = label[0]
    j, k = (int(t) for t in label[1:].split(":"))
    if kind == "s":
        m[j, k] = m[k, j] = 1.0
    elif kind == "a":
        m[j, k], m[k, j] = -1.0j, 1.0j
    else:
        raise InvalidInputError(f"unknown operator kind {kind!r}")
    return m


def term_operator(labels: tuple[str, ...], d: int) -> np.ndarray:
    """The Kronecker product of the site matrices, in site order.

    Each factor is one broadcast multiply and a reshape, the same products
    ``np.kron`` forms, so the bits are those of a ``np.kron`` loop.
    """
    out = np.array([[1.0 + 0.0j]])
    for lab in labels:
        rows, cols = out.shape
        out = (out[:, None, :, None] * op_matrix(lab, d)[:, None]).reshape(rows * d, cols * d)
    return out


# ---------------------------------------------------------------------------
# single-site factors


@lru_cache(maxsize=None)
def _site_factor(a: int, b: int, d: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Decomposition of |b><a| on one site (bra digit a, ket digit b): the
    read-only complex weights and their labels."""
    if a == b:
        terms: list[tuple[complex, str]] = [(1.0 / d, "id")]
        for l in range(max(a, 1), d):
            scale = math.sqrt(2.0 / (l * (l + 1)))
            terms.append(((scale if a < l else -l * scale) / 2.0, f"d{l}"))
    else:
        lo, hi = (a, b) if a < b else (b, a)
        sign = -1.0j if a < b else 1.0j  # |hi><lo| carries -i a, |lo><hi| carries +i a
        terms = [(0.5, f"s{lo}:{hi}"), (sign * 0.5, f"a{lo}:{hi}")]
    weights, labels = zip(*terms)
    out = np.array(weights, dtype=complex)
    out.flags.writeable = False
    return out, labels


def _product_terms(
    first: Sequence[int], second: Sequence[int], d: int
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """<first| rho |second> = sum z_k <O_k> over all tensor terms: the complex
    weights z and the label tuples, the last site varying fastest.

    The weights are a Kronecker product of the site factors, taken in site
    order, so each is the same left-to-right product of floats as a
    term-by-term loop would give.
    """
    factors = [_site_factor(a, b, d) for a, b in zip(first, second)]
    z = factors[0][0]
    for weights, _ in factors[1:]:
        z = np.multiply.outer(z, weights).ravel()
    return z, list(product(*(labels for _, labels in factors)))


def _nonzero(weights: np.ndarray, labels: list[tuple[str, ...]]) -> tuple[Term, ...]:
    """The terms whose weight is not zero, in order."""
    keep = weights != 0.0
    return tuple(zip(weights[keep].tolist(), compress(labels, keep.tolist())))


def decompose_offdiagonal(
    first: Sequence[int], second: Sequence[int], d: int, part: str
) -> list[Term]:
    """Real or imaginary part of <first| rho |second> over local observables,
    for two digit rows over ``d`` levels."""
    if part not in ("re", "im"):
        raise InvalidInputError(f"part must be 're' or 'im', got {part!r}")
    z, labels = _product_terms(first, second, d)
    return list(_nonzero(z.real if part == "re" else z.imag, labels))


def decompose_diagonal(eta: Sequence[int], d: int) -> list[Term]:
    """rho_eta_eta over local observables (all weights real), for the digit
    row eta over ``d`` levels."""
    z, labels = _product_terms(eta, eta, d)
    return list(_nonzero(z.real, labels))


def reconstruct(terms: list[Term], rho: DensityMatrix) -> float:
    """sum_k c_k Tr(rho O_k); recovers the decomposed quantity."""
    total = 0.0
    for coeff, labels in terms:
        op = term_operator(labels, rho.d)
        total += coeff * float((rho.matrix @ op).trace().real)
    return total


# ---------------------------------------------------------------------------
# measurement plan for a compiled witness


@dataclass(frozen=True)
class PlanElement:
    kind: str  # "offdiag_re" | "offdiag_im" | "diag"
    indices: tuple[str, ...]
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class DecompositionPlan:
    n: int
    d: int
    elements: tuple[PlanElement, ...]
    settings: tuple[tuple[str, ...], ...]

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @property
    def setting_count(self) -> int:
        return len(self.settings)


def plan_settings(w: CompiledWitness, include_imag: bool = False) -> DecompositionPlan:
    """Elements the witness needs and the local measurement settings.

    Diagonals enter through the noise images and through I(R) entries with a
    nonzero multiplicity; off-diagonals need only their real part unless
    ``include_imag`` asks for full complex reconstruction.
    """
    elements: list[PlanElement] = []
    for pair, strings in zip(w.r.digits.tolist(), w.r.as_strings()):
        z, labels = _product_terms(*pair, w.d)
        elements.append(PlanElement("offdiag_re", tuple(strings), _nonzero(z.real, labels)))
        if include_imag:
            elements.append(PlanElement("offdiag_im", tuple(strings), _nonzero(z.imag, labels)))

    first, second, _ = w.reads.images
    diagonals = np.unique(np.concatenate([first, second, w.reads.diagonals[w.eta_counts > 0]]))
    texts = digit_strings(diagonals, w.n, w.d)
    for digits, text in zip(rank_digits(diagonals, w.n, w.d).tolist(), texts):
        z, labels = _product_terms(digits, digits, w.d)
        elements.append(PlanElement("diag", (text,), _nonzero(z.real, labels)))

    # The settings are the label keys with no identity slot, and no fold is
    # needed.  Every identity slot comes from a diagonal site, whose factor
    # |a><a| = id/d + sum_{l >= max(a,1)} (d_l[a,a]/2) d_l always holds a
    # committed label with a real, nonzero weight.  Putting that label in the
    # slot multiplies the term's weight by a real nonzero number, so the part
    # decompose_* keeps stays nonzero and the filled-in key is a term of the
    # same element.  A key with no identity slot folds only into itself, so
    # these keys are exactly the maximal ones.
    settings = sorted({k for el in elements for _, k in el.terms if "id" not in k})
    return DecompositionPlan(n=w.n, d=w.d, elements=tuple(elements), settings=tuple(settings))
