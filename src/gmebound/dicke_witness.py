"""Dimensionality witness built around higher-dimensional Dicke states.

The quantity Q compares coherences between excitation patterns that differ in
a single site against diagonal noise terms; on the ideal m-excitation Dicke
state over d levels it evaluates to d - 1, and any value above f - 1 rules
out an entanglement dimension of f or less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .indices import cut_masks, excitation_rows, place_values
from .states import ElementSource, PureState, _check_dicke_shape
from .witness import (
    NRVariant,
    PairSet,
    Reads,
    _check_shape,
    _images,
    _noise_root,
    _value,
    check_xtol,
    compile_witness,
)


@dataclass(frozen=True)
class DickeWitnessSpec:
    """Shape of the witness: n parties, d levels, m excitations.

    ``sigma_ordered`` keeps the coherence sum over ordered subset pairs (the
    normalization N_D is calibrated for that); ``delta_subsets`` selects how
    many diagonal noise classes are subtracted per coherence ("all" distinct
    exchange images, or only the "singles" reachable by one-site exchanges).
    """

    n: int
    d: int
    m: int
    sigma_ordered: bool = True
    delta_subsets: str = "all"

    def __post_init__(self) -> None:
        _check_dicke_shape(self.n, self.d, self.m)
        if self.delta_subsets not in ("all", "singles"):
            raise InvalidInputError(f"unknown delta_subsets mode {self.delta_subsets!r}")

    @property
    def noise_weight(self) -> int:
        """The diagonal-penalty multiplicity N_D."""
        return (self.d - 1) * self.m * (self.n - self.m - 1)

    @property
    def excited(self) -> np.ndarray:
        """One 0/1 row per excitation subset (size m), in combinations order;
        the pattern at level l is ``l + excited[i]``."""
        return excitation_rows(self.n, self.m)

    def sigma(self) -> np.ndarray:
        """``(|sigma|, 2)`` rows (a, b) of :attr:`excited`: the ordered pairs
        of excitation subsets overlapping in m-1 sites, a-major."""
        return np.argwhere(self.excited @ self.excited.T == self.m - 1)

    @cached_property
    def r_sigma(self) -> PairSet:
        """R_sigma: the patterns of alpha at level l1 and beta at l2 >= l1 over
        the whole ordered sigma, whatever ``sigma_ordered`` says."""
        a, b = self.sigma().T
        l1, l2 = (levels[:, None, None] for levels in np.triu_indices(self.d - 1))
        pairs = np.stack([l1 + self.excited[a], l2 + self.excited[b]], axis=2)
        return PairSet.of(pairs, self.n, self.d)

    @cached_property
    def reads(self) -> Reads:
        """Everything Q reads, in evaluation order: each coherence with its
        noise images, then the diagonal patterns.  Built once per spec, so a
        threshold search or a sweep pays for it once.

        A coherence whose patterns differ at k >= 2 sites subtracts distinct
        exchange images of the pair: with ``"all"`` every nontrivial class
        once, as the rows of ``cut_masks(k)`` placed on those sites; with
        ``"singles"`` the one-site exchanges at the allowed sites, in
        ascending order.  At l1 == l2 (k = 2) either way gives the one class,
        the (intersection, union) pattern pair.
        """
        n, d = self.n, self.d
        excited = self.excited
        a, b = self.sigma().T
        if not self.sigma_ordered:
            a, b = a[b > a], b[b > a]
        levels = np.arange(d - 1)
        l1 = np.repeat(levels, (d - 1) * len(a))[:, None]
        l2 = np.tile(np.repeat(levels, len(a)), d - 1)[:, None]
        alpha = excited[np.tile(a, (d - 1) ** 2)]
        beta = excited[np.tile(b, (d - 1) ** 2)]
        first, second = l1 + alpha, l2 + beta

        values = place_values(n, d)
        ranks = np.stack([first @ values, second @ values], axis=1)
        delta = (second - first) * values
        differ = first != second
        k = differ.sum(axis=1)
        singles = self.delta_subsets == "singles"
        # "singles" exchanges no site of alpha - beta when l2 < l1 and none of
        # beta - alpha otherwise (at l1 == l2 this leaves one of the two sites)
        allowed = ~np.where(l2 < l1, alpha > beta, beta > alpha)
        owners, images = [np.empty(0, dtype=np.int64)], [np.empty((0, 2), ranks.dtype)]
        for size in np.unique(k[k >= 2]).tolist():
            sel = np.flatnonzero(k == size)
            at = differ[sel]
            moves = np.eye(size, dtype=np.int8) if singles else cut_masks(size)
            lo, hi = _images(ranks[sel], delta[sel][at].reshape(-1, size).T, moves)
            # coherence-major, each coherence's images in the order of moves
            if singles:
                keep = allowed[sel][at].reshape(-1, size)
            else:
                keep = np.ones(lo.T.shape, dtype=bool)
            owners.append(np.broadcast_to(sel[:, None], keep.shape)[keep])
            images.append(np.stack([lo.T[keep], hi.T[keep]], axis=1))
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        diagonals = (levels[:, None, None] + excited).reshape(-1, n) @ values
        return Reads.build(n, d, ranks, np.concatenate(images)[order], owner[order], diagonals)


def q_witness(spec: DickeWitnessSpec, rho: ElementSource) -> float | np.ndarray:
    """Evaluate Q on a state, refusing another (n, d) before Q's reads are
    built; an array of values, one per weight, for a stack of white-noise states."""
    _check_shape(spec.n, spec.d, rho)
    total, diagonal = spec.reads.read(rho)
    diag_mass = np.add.accumulate(diagonal)[-1]
    return _value((total - spec.noise_weight * diag_mass) / spec.m)


def noise_threshold_q(
    spec: DickeWitnessSpec, target: PureState, xtol: float = 1e-12
) -> float:
    """Largest white-noise fraction at which Q crosses zero.

    Mirrors witness.noise_threshold: root of p -> Q(p * target + (1-p) * I/dim)
    in [0, 1]; raises when Q is not positive even on the pure target.  The
    target's entries on ``spec.reads`` are gathered once, for every step.
    Q is built like the witness sum (moduli of coherences, minus geometric
    means of diagonals, minus diagonal weight), so the convexity argument of
    witness.noise_threshold makes the root its only crossing too.
    """
    check_xtol(xtol)
    _check_shape(spec.n, spec.d, target)  # before Q's reads are built
    family = spec.reads.family(target)
    return _noise_root(lambda p: q_witness(spec, family.at(p)), xtol, "Q =")


def dimensionality_certificate(q: float, tol: float = 1e-9) -> int:
    """Smallest entanglement dimension consistent with the observed Q.

    Q above f - 1 excludes dimension f, so the certificate is
    ceil(Q) + 1 (with a tolerance guard against round-off at the boundary).
    A negative ``tol`` would certify more than Q shows, so it is refused.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError(f"certificate tolerance must be finite and >= 0, got {tol!r}")
    return 1 if q <= tol else math.ceil(q - tol) + 1


def r_sigma_size(spec: DickeWitnessSpec) -> int:
    """Closed form for |R_sigma|: (d-1)**2 * C(n,m) * m * (n-m) / 2."""
    s = math.comb(spec.n, spec.m) * spec.m * (spec.n - spec.m)
    return (spec.d - 1) ** 2 * s // 2


@dataclass(frozen=True)
class EmBound:
    """Entanglement-measure bounds recovered from a measured Q value."""

    weak: float
    strong: float
    r_size: int
    n_r: int


def em_bound_from_q(
    spec: DickeWitnessSpec, q: float, variant: NRVariant = NRVariant.MINIMAL
) -> EmBound:
    """Translate Q into lower bounds on E_m via the pair selection R_sigma.

    R_sigma is kept on the spec and its cut images on R_sigma, so a repeated
    call redoes only N_R and N_eta.
    """
    r = spec.r_sigma
    n_r = compile_witness(r, variant).n_r
    weak = spec.m * math.sqrt(1.0 / len(r)) * q
    strong = spec.m * math.sqrt(1.0 / (len(r) - n_r)) * q
    return EmBound(weak=weak, strong=strong, r_size=len(r), n_r=n_r)
