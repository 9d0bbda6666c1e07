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
from itertools import combinations

import numpy as np

from .errors import InvalidInputError
from .indices import (
    Bipartition,
    IndexPair,
    MultiIndex,
    differing_positions,
    permute_pair,
    rank_dtype,
)
from .states import ElementSource, NoisyPureState, PureState
from .witness import NRVariant, PairSet, Reads, _noise_root, compile_witness

# one coherence of Q: the pattern pair (s1, s2) and its diagonal noise images
QTerm = tuple[MultiIndex, MultiIndex, tuple[tuple[MultiIndex, MultiIndex], ...]]


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
        if not (1 <= self.m <= self.n - 1):
            raise InvalidInputError(f"need 1 <= m <= n-1, got m={self.m}, n={self.n}")
        if self.d < 2:
            raise InvalidInputError(f"need d >= 2, got d={self.d}")
        if self.delta_subsets not in ("all", "singles"):
            raise InvalidInputError(f"unknown delta_subsets mode {self.delta_subsets!r}")

    @property
    def noise_weight(self) -> int:
        """The diagonal-penalty multiplicity N_D."""
        return (self.d - 1) * self.m * (self.n - self.m - 1)

    def pattern(self, excited: tuple[int, ...], level: int) -> MultiIndex:
        """The basis string with digit level+1 on ``excited`` and level elsewhere."""
        digits = tuple(
            level + 1 if i in excited else level for i in range(self.n)
        )
        return MultiIndex(digits, self.d)

    def subsets(self) -> list[tuple[int, ...]]:
        return list(combinations(range(self.n), self.m))

    def sigma(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Ordered pairs of excitation subsets overlapping in m-1 sites."""
        subs = self.subsets()
        return [
            (a, b)
            for a in subs
            for b in subs
            if a != b and len(set(a) & set(b)) == self.m - 1
        ]

    @cached_property
    def terms(self) -> tuple[tuple[QTerm, ...], tuple[MultiIndex, ...]]:
        """Everything Q reads, in evaluation order: the coherences with their
        noise images, then the diagonal patterns.  Built once per spec, so a
        threshold search or a sweep pays for it once."""
        levels = range(self.d - 1)
        sigma = self.sigma()
        coherences = tuple(
            (
                self.pattern(alpha, l1),
                self.pattern(beta, l2),
                tuple(_pair_noise(self, alpha, beta, l1, l2)),
            )
            for l1 in levels
            for l2 in levels
            for alpha, beta in sigma
            if self.sigma_ordered or (alpha, l1) <= (beta, l2)
        )
        diagonals = tuple(self.pattern(alpha, l) for l in levels for alpha in self.subsets())
        return coherences, diagonals

    @cached_property
    def reads(self) -> Reads:
        """:attr:`terms` as ranks, in the same order."""
        coherences, diagonals = self.terms
        pairs: list[int] = []
        images: list[int] = []
        owner: list[int] = []
        for i, (s1, s2, imgs) in enumerate(coherences):
            pairs += (s1.rank, s2.rank)
            for a, b in imgs:
                images += (a.rank, b.rank)
                owner.append(i)
        dtype = rank_dtype(self.n, self.d)
        return Reads.build(
            np.array(pairs, dtype).reshape(-1, 2),
            np.array(images, dtype).reshape(-1, 2),
            np.array(owner, dtype=np.int64),
            np.array([eta.rank for eta in diagonals], dtype),
        )


def _image_classes(
    s1: MultiIndex, s2: MultiIndex, allowed_singles: set[int] | None
) -> list[tuple[MultiIndex, MultiIndex]]:
    """Distinct unordered exchange images of (s1, s2), identity excluded.

    With ``allowed_singles`` set, only one-site exchanges at those (0-based)
    positions are taken; otherwise every nontrivial class appears once.
    """
    diff = sorted(differing_positions((s1, s2)))  # 1-based
    if len(diff) < 2:
        return []
    out: list[tuple[MultiIndex, MultiIndex]] = []
    seen: set[frozenset[MultiIndex]] = set()

    def visit(x: frozenset[int]) -> None:
        img1, img2 = permute_pair(Bipartition(x, s1.n), (s1, s2))
        key = frozenset((img1, img2))
        if key not in seen:
            seen.add(key)
            out.append((img1, img2))

    if allowed_singles is not None:
        for i in allowed_singles:
            if (i + 1) in diff:
                visit(frozenset({i + 1}))
        return out

    anchor = diff[0]
    rest = diff[1:]
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            x = frozenset((anchor,) + extra)
            if len(x) == len(diff):
                continue  # exchanging every differing site is the identity class
            visit(x)
    return out


def _pair_noise(
    spec: DickeWitnessSpec,
    alpha: tuple[int, ...],
    beta: tuple[int, ...],
    l1: int,
    l2: int,
) -> list[tuple[MultiIndex, MultiIndex]]:
    s1 = spec.pattern(alpha, l1)
    s2 = spec.pattern(beta, l2)
    if l1 == l2:
        # one-site exchange inside the differing doublet: the image is always
        # the (intersection, union) excitation pattern at this level
        inter = tuple(sorted(set(alpha) & set(beta)))
        union = tuple(sorted(set(alpha) | set(beta)))
        return [(spec.pattern(inter, l1), spec.pattern(union, l1))]
    if spec.delta_subsets == "singles":
        if l2 < l1:
            allowed = set(range(spec.n)) - (set(alpha) - set(beta))
        else:
            allowed = set(range(spec.n)) - (set(beta) - set(alpha))
        return _image_classes(s1, s2, allowed)
    return _image_classes(s1, s2, None)


def q_witness(spec: DickeWitnessSpec, rho: ElementSource) -> float:
    """Evaluate Q on a state."""
    if rho.n != spec.n or rho.d != spec.d:
        raise InvalidInputError(
            f"witness over (n={spec.n}, d={spec.d}), state over (n={rho.n}, d={rho.d})"
        )
    total, diagonal = spec.reads.read(rho)
    diag_mass = float(np.cumsum(diagonal)[-1])
    return (total - spec.noise_weight * diag_mass) / spec.m


def noise_threshold_q(
    spec: DickeWitnessSpec, target: PureState, xtol: float = 1e-12
) -> float:
    """Largest white-noise fraction at which Q crosses zero.

    Mirrors witness.noise_threshold: root of p -> Q(p * target + (1-p) * I/dim)
    in [0, 1]; raises when Q is not positive even on the pure target.
    """
    return _noise_root(lambda p: q_witness(spec, NoisyPureState(target, p)), xtol, "Q =")


def dimensionality_certificate(q: float, tol: float = 1e-9) -> int:
    """Smallest entanglement dimension consistent with the observed Q.

    Q above f - 1 excludes dimension f, so the certificate is
    ceil(Q) + 1 (with a tolerance guard against round-off at the boundary).
    """
    if q <= tol:
        return 1
    return max(1, math.ceil(q - tol) + 1)


def materialize_R_sigma(spec: DickeWitnessSpec) -> PairSet:
    """The pair selection underlying Q: level-ordered coherences from sigma."""
    pairs: list[IndexPair] = []
    for l1 in range(spec.d - 1):
        for l2 in range(l1, spec.d - 1):
            for alpha, beta in spec.sigma():
                pairs.append(
                    IndexPair.of(spec.pattern(alpha, l1), spec.pattern(beta, l2))
                )
    return PairSet.of(pairs, spec.n, spec.d)


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
    """Translate Q into lower bounds on E_m via the underlying pair selection."""
    r = materialize_R_sigma(spec)
    compiled = compile_witness(r, variant)
    weak = spec.m * math.sqrt(1.0 / len(r)) * q
    strong = spec.m * math.sqrt(1.0 / (len(r) - compiled.n_r)) * q
    return EmBound(weak=weak, strong=strong, r_size=len(r), n_r=compiled.n_r)
