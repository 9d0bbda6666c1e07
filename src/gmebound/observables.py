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
from functools import cached_property, lru_cache
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
# single-site factors and their tensor products


@lru_cache(maxsize=None)
def _alphabet(d: int) -> tuple[str, ...]:
    """The d*d site labels sorted by text: a label's code is its position
    here, so codes order label tuples as their text does."""
    pairs = [f"{j}:{k}" for j in range(d) for k in range(j + 1, d)]
    labels = ["id", *(f"{kind}{p}" for kind in "sa" for p in pairs), *(f"d{l}" for l in range(1, d))]
    return tuple(sorted(labels))


def _site_factor(a: int, b: int, d: int) -> list[tuple[complex, str]]:
    """Decomposition of |b><a| on one site (bra digit a, ket digit b): the
    complex weights and their labels."""
    if a == b:
        terms: list[tuple[complex, str]] = [(1.0 / d, "id")]
        for l in range(max(a, 1), d):
            scale = math.sqrt(2.0 / (l * (l + 1)))
            terms.append(((scale if a < l else -l * scale) / 2.0, f"d{l}"))
        return terms
    lo, hi = (a, b) if a < b else (b, a)
    sign = -1.0j if a < b else 1.0j  # |hi><lo| carries -i a, |lo><hi| carries +i a
    return [(0.5, f"s{lo}:{hi}"), (sign * 0.5, f"a{lo}:{hi}")]


@lru_cache(maxsize=None)
def _site_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every site factor, at row ``a * d + b``: its size, and its weights and
    label codes padded to ``d`` entries (all read-only).  The codes take the
    smallest unsigned type that holds the d*d of them."""
    sizes = np.zeros(d * d, dtype=np.int64)
    weights = np.zeros((d * d, d), dtype=complex)
    codes = np.zeros((d * d, d), dtype=np.min_scalar_type(d * d - 1))
    for a in range(d):
        for b in range(d):
            factor = a * d + b
            for j, (weight, label) in enumerate(_site_factor(a, b, d)):
                weights[factor, j], codes[factor, j] = weight, _alphabet(d).index(label)
                sizes[factor] = j + 1
    for table in (sizes, weights, codes):
        table.flags.writeable = False
    return sizes, weights, codes


def _product(first: np.ndarray, second: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """<first_e| rho |second_e> = sum z_k <O_k> over all tensor terms, for
    (E, n) digit rows whose site factors have the same sizes from row to row:
    the (E, T) complex weights z and the (n, E, T) label codes, the last site
    varying fastest.

    The weights are a Kronecker product of the site factors, one outer
    product per site in site order, so each is the same left-to-right product
    of floats as a term-by-term loop would give; each site's codes are spread
    over the same grid.
    """
    sizes, weights, codes = _site_tables(d)
    factor = (first * d + second).T
    n, count = factor.shape
    shape = sizes[factor[:, 0]].tolist()
    z = weights[factor[0], : shape[0]]
    for f, k in zip(factor[1:], shape[1:]):
        z = (z[:, :, None] * weights[f, :k][:, None, :]).reshape(count, -1)
    out = np.empty((n, count, *shape), dtype=codes.dtype)
    for site, (f, k) in enumerate(zip(factor, shape)):
        out[site] = codes[f, :k].reshape(count, *(1,) * site, k, *(1,) * (n - 1 - site))
    return z, out.reshape(n, count, -1)


@lru_cache(maxsize=None)
def _names(d: int) -> np.ndarray:
    """The alphabet as an object array, so codes index it straight to labels."""
    out = np.array(_alphabet(d), dtype=object)
    out.flags.writeable = False
    return out


def _labels(codes: np.ndarray, d: int) -> list[tuple[str, ...]]:
    """The label tuple of each column of (n, T) codes."""
    return list(zip(*_names(d)[codes]))


def decompose_offdiagonal(
    first: Sequence[int], second: Sequence[int], d: int, part: str
) -> list[Term]:
    """Real or imaginary part of <first| rho |second> over local observables,
    for two digit rows over ``d`` levels."""
    if part not in ("re", "im"):
        raise InvalidInputError(f"part must be 're' or 'im', got {part!r}")
    z, codes = _product(np.array([first]), np.array([second]), d)
    coeffs = z[0].real if part == "re" else z[0].imag
    keep = coeffs != 0.0
    return list(zip(coeffs[keep].tolist(), _labels(codes[:, 0, keep], d)))


def decompose_diagonal(eta: Sequence[int], d: int) -> list[Term]:
    """rho_eta_eta over local observables (all weights real), for the digit
    row eta over ``d`` levels."""
    return decompose_offdiagonal(eta, eta, d, "re")


def reconstruct(terms: list[Term], rho: DensityMatrix) -> float:
    """sum_k c_k Tr(rho O_k); recovers the decomposed quantity."""
    total = 0.0
    for coeff, labels in terms:
        op = term_operator(labels, rho.d)
        total += coeff * float((rho.matrix @ op).trace().real)
    return total


# ---------------------------------------------------------------------------
# measurement plan for a compiled witness


@dataclass(frozen=True, eq=False)
class PlanElement:
    kind: str  # "offdiag_re" | "offdiag_im" | "diag"
    indices: tuple[str, ...]
    terms: np.ndarray  # row indices into DecompositionPlan.table, in term order


@dataclass(frozen=True, eq=False)
class DecompositionPlan:
    """The plan's distinct (coeff, labels) terms, in label order, are held as
    arrays: ``coeffs`` and the ``(n, T)`` label ``codes``, which index
    :attr:`alphabet`.  ``table`` is a view of them, built on first access."""

    n: int
    d: int
    coeffs: np.ndarray
    codes: np.ndarray
    elements: tuple[PlanElement, ...]
    settings: tuple[tuple[str, ...], ...]

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @property
    def setting_count(self) -> int:
        return len(self.settings)

    @property
    def alphabet(self) -> tuple[str, ...]:
        """The site label of each code."""
        return _alphabet(self.d)

    @cached_property
    def table(self) -> tuple[Term, ...]:
        """The distinct (coeff, labels) terms, in label order."""
        return tuple(zip(self.coeffs.tolist(), _labels(self.codes, self.d)))

    def terms_of(self, element: PlanElement) -> list[Term]:
        """The (coeff, labels) terms of one element, in order."""
        return [self.table[row] for row in element.terms.tolist()]


def _dense_rank(codes: np.ndarray, coeffs: np.ndarray, radix: int) -> np.ndarray:
    """One int64 key per term, equal for equal (labels, coeff) and ordered as
    the label tuples, then the coefficients: the (n, T) label codes and the
    coefficient ranks as mixed-radix digits, with the key prefix replaced by
    its dense rank whenever the next digit would overflow int64."""
    values, coeff_rank = np.unique(coeffs, return_inverse=True)
    key, span = np.zeros(len(coeffs), dtype=np.int64), 1
    for digit, size in [*((column, radix) for column in codes), (coeff_rank, len(values))]:
        if span * size > 2**63 - 1:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
        key = key * size + digit
        span *= size
    return key


def plan_settings(
    w: CompiledWitness, include_imag: bool = False, max_terms: int | None = None
) -> DecompositionPlan:
    """Elements the witness needs and the local measurement settings.

    Diagonals enter through the noise images and through I(R) entries with a
    nonzero multiplicity; off-diagonals need only their real part unless
    ``include_imag`` asks for full complex reconstruction.  A plan of more
    than ``max_terms`` tensor terms, counted before the zero filter, is
    refused before any term is built.

    The distinct (coeff, labels) terms of all elements are found by one
    integer sort over their label codes and coefficients; each element keeps
    the row indices of its terms in that table.
    """
    n, d = w.n, w.d
    first, second, _ = w.reads.images
    diagonals = np.unique(np.concatenate([first, second, w.reads.diagonals[w.eta_counts > 0]]))
    diag_digits = rank_digits(diagonals, n, d)
    pairs = len(w.r)
    bra = np.concatenate([w.r.digits[:, 0], diag_digits])
    ket = np.concatenate([w.r.digits[:, 1], diag_digits])

    # the elements grouped by the sizes of their site factors, each group's
    # terms built at once; blocks of terms: the real part of each element,
    # then the imaginary part of each pair
    shapes = list(map(tuple, _site_tables(d)[0][bra * d + ket].tolist()))
    counts = [math.prod(shape) for shape in shapes]
    total = sum(counts) + (sum(counts[:pairs]) if include_imag else 0)
    if max_terms is not None and total > max_terms:
        raise InvalidInputError(f"the plan has {total} terms, over the limit of {max_terms}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for e, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(e)
    parts = [_product(bra[members], ket[members], d) for members in groups.values()]
    z = np.concatenate([weights.ravel() for weights, _ in parts])
    codes = np.concatenate([c.reshape(n, -1) for _, c in parts], axis=1)
    layout = np.concatenate(list(groups.values()))
    block = np.repeat(layout, np.array(counts)[layout])
    coeffs = z.real
    if include_imag:
        imag = np.flatnonzero(block < pairs)
        coeffs = np.concatenate([coeffs, z.imag[imag]])
        codes = np.concatenate([codes, codes[:, imag]], axis=1)
        block = np.concatenate([block, block[imag] + len(bra)])
        layout = np.concatenate([layout, layout[layout < pairs] + len(bra)])
    keep = coeffs != 0.0
    coeffs, codes, block = coeffs[keep], codes[:, keep], block[keep]

    _, firsts, rows = np.unique(
        _dense_rank(codes, coeffs, d * d), return_index=True, return_inverse=True
    )
    coeffs, codes = coeffs[firsts], codes[:, firsts]
    for array in (rows, coeffs, codes):
        array.flags.writeable = False  # each element's terms are a view of rows
    ends = np.cumsum(np.bincount(block, minlength=len(layout))[layout]).tolist()
    blocks = {e: rows[start:end] for e, start, end in zip(layout.tolist(), [0, *ends], ends)}

    indices = [tuple(pair) for pair in w.r.as_strings()]
    elements: list[PlanElement] = []
    for i, strings in enumerate(indices):
        elements.append(PlanElement("offdiag_re", strings, blocks[i]))
        if include_imag:
            elements.append(PlanElement("offdiag_im", strings, blocks[len(bra) + i]))
    for e, text in enumerate(digit_strings(diagonals, n, d), start=pairs):
        elements.append(PlanElement("diag", (text,), blocks[e]))

    # The settings are the label keys with no identity slot, and no fold is
    # needed.  Every identity slot comes from a diagonal site, whose factor
    # |a><a| = id/d + sum_{l >= max(a,1)} (d_l[a,a]/2) d_l always holds a
    # committed label with a real, nonzero weight.  Putting that label in the
    # slot multiplies the term's weight by a real nonzero number, so the part
    # decompose_* keeps stays nonzero and the filled-in key is a term of the
    # same element.  A key with no identity slot folds only into itself, so
    # these keys are exactly the maximal ones.  The table is in label order,
    # so they come out sorted.
    identity_free = (codes != _alphabet(d).index("id")).all(axis=0)
    settings = tuple(dict.fromkeys(_labels(codes[:, identity_free], d)))
    return DecompositionPlan(n, d, coeffs, codes, tuple(elements), settings)
