"""Nonlinear witness built from a selection of density-matrix index pairs.

Given a pair selection R, the certified lower bound reads

    E_m(rho) >= 2*sqrt(1/(|R| - N_R)) * [ sum_{(a,b) in R} ( |rho_ab|
                  - sum_images sqrt(rho_a'a' * rho_b'b') )
                  - 1/2 * sum_{eta in I(R)} N_eta * rho_eta_eta ]

where the inner subtraction runs over the distinct unordered images of (a,b)
under digit exchange across the canonical bipartitions, skipping images that
are themselves in R (a pair fixed by some bipartition is its own image, so
fixed pairs contribute nothing).  N_R is the minimal or maximal number of
pairs fixed by a single bipartition, and the diagonal multiplicities N_eta
follow the same choice.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Sequence

from scipy.optimize import brentq

from .errors import (
    CoverageError,
    DegenerateSelectionError,
    InvalidInputError,
    NotDetectingError,
)
from .indices import (
    Bipartition,
    IndexPair,
    MultiIndex,
    enumerate_bipartitions,
    pair_is_fixed,
    permute_pair,
)
from .states import ElementSource, NoisyPureState, PureState, make_isotropic


class NRVariant(Enum):
    """Which extreme of the per-bipartition uncounted-pair count enters the prefactor."""

    MINIMAL = "min"
    MAXIMAL = "max"


@dataclass(frozen=True)
class PairSet:
    """An ordered, duplicate-free selection of index pairs over fixed (n, d)."""

    pairs: tuple[IndexPair, ...]
    n: int
    d: int

    def __post_init__(self) -> None:
        seen = set()
        for pair in self.pairs:
            if pair.n != self.n or pair.d != self.d:
                raise InvalidInputError(f"pair {pair} does not match n={self.n}, d={self.d}")
            if pair in seen:
                raise InvalidInputError(f"duplicate pair {pair}")
            seen.add(pair)
        if not self.pairs:
            raise InvalidInputError("empty pair selection")

    @classmethod
    def of(cls, pairs: Iterable[IndexPair], n: int, d: int) -> "PairSet":
        out: list[IndexPair] = []
        seen = set()
        for pair in pairs:
            if pair not in seen:
                out.append(pair)
                seen.add(pair)
        return cls(tuple(out), n, d)

    @classmethod
    def from_strings(cls, entries: Sequence[Sequence[str]], n: int, d: int) -> "PairSet":
        pairs = [
            IndexPair.of(
                MultiIndex.from_string(a, d, n), MultiIndex.from_string(b, d, n)
            )
            for a, b in entries
        ]
        return cls.of(pairs, n, d)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def as_strings(self) -> list[list[str]]:
        return [[str(p.first), str(p.second)] for p in self.pairs]


def load_pairset_json(path: str | Path, n: int, d: int) -> PairSet:
    try:
        entries = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read pair file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"pair file {path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise InvalidInputError(f"pair file {path} must hold a list of [a, b] entries")
    return PairSet.from_strings(entries, n, d)


@dataclass(frozen=True)
class CompiledWitness:
    """Everything needed to evaluate the bound on any density matrix."""

    r: PairSet
    variant: NRVariant
    n_r: int
    prefactor: float
    # per pair: the distinct unordered images outside R, in order of the first
    # bipartition that produces each
    noise_images: dict[IndexPair, tuple[IndexPair, ...]]
    index_set: tuple[MultiIndex, ...]
    n_eta: dict[MultiIndex, int]
    # per bipartition: |R^gamma|, the pairs whose image stays inside R
    uncounted_profile: dict[Bipartition, int]

    @property
    def n(self) -> int:
        return self.r.n

    @property
    def d(self) -> int:
        return self.r.d


def _not_counted(
    r: PairSet, uncounted: dict[Bipartition, list[IndexPair]], n_r: int, variant: NRVariant
) -> dict[Bipartition, list[IndexPair]]:
    """Pairs whose diagonal penalty must survive at each bipartition.

    In the minimal variant every pair outside R^gamma is counted, leaving
    exactly R^gamma.  In the maximal variant only |R| - N_R pairs are counted
    (taken in selection order); the excess joins R^gamma.
    """
    if variant is NRVariant.MINIMAL:
        return uncounted
    budget = len(r) - n_r
    out: dict[Bipartition, list[IndexPair]] = {}
    for gamma, core in uncounted.items():
        stays = set(core)
        out[gamma] = core + [p for p in r if p not in stays][budget:]
    return out


def compile_witness(r: PairSet, variant: NRVariant = NRVariant.MINIMAL) -> CompiledWitness:
    """Precompute image sets, the prefactor, and the diagonal multiplicities.

    Each pair is permuted once under each bipartition; that one image decides
    both whether the pair belongs to R^gamma and which noise image it adds.
    """
    bips = enumerate_bipartitions(r.n)
    r_set = set(r.pairs)

    # R^gamma: pairs whose gamma-image is again in R.  This covers pairs fixed
    # by gamma (their own image) and pairs exchanged with another selected
    # pair; neither kind carries usable coherence across that cut, so both
    # fall back to the diagonal penalty.
    uncounted: dict[Bipartition, list[IndexPair]] = {g: [] for g in bips}
    noise_images: dict[IndexPair, tuple[IndexPair, ...]] = {}
    for pair in r:
        images: dict[IndexPair, None] = {}
        for g in bips:
            img = IndexPair.of(*permute_pair(g, pair.as_tuple()))
            if img in r_set:
                uncounted[g].append(pair)
            else:
                images[img] = None
        noise_images[pair] = tuple(images)

    uncounted_profile = {g: len(v) for g, v in uncounted.items()}
    if variant is NRVariant.MINIMAL:
        n_r = min(uncounted_profile.values())
    else:
        n_r = max(uncounted_profile.values())
    if len(r) == n_r:
        raise DegenerateSelectionError(
            f"|R| = N_R = {n_r}: every pair is fixed by some single bipartition; "
            "the prefactor is undefined"
        )
    prefactor = 2.0 * math.sqrt(1.0 / (len(r) - n_r))

    index_set = tuple(sorted({eta for p in r for eta in p.as_tuple()}))
    n_eta = dict.fromkeys(index_set, 0)
    for pairs in _not_counted(r, uncounted, n_r, variant).values():
        counts = Counter(eta for p in pairs for eta in p.as_tuple())
        for eta, k in counts.items():
            n_eta[eta] = max(n_eta[eta], k)

    return CompiledWitness(
        r=r,
        variant=variant,
        n_r=n_r,
        prefactor=prefactor,
        noise_images=noise_images,
        index_set=index_set,
        n_eta=n_eta,
        uncounted_profile=uncounted_profile,
    )


def evaluate(w: CompiledWitness, rho: ElementSource) -> float:
    """The certified lower bound on E_m for this state (may be negative)."""
    if rho.n != w.n or rho.d != w.d:
        raise InvalidInputError(
            f"witness over (n={w.n}, d={w.d}), state over (n={rho.n}, d={rho.d})"
        )
    bracket = 0.0
    for pair in w.r:
        bracket += abs(rho.element(pair.first, pair.second))
        for img in w.noise_images[pair]:
            da = max(rho.diagonal(img.first), 0.0)
            db = max(rho.diagonal(img.second), 0.0)
            bracket -= math.sqrt(da * db)
    penalty = 0.5 * sum(
        w.n_eta[eta] * max(rho.diagonal(eta), 0.0) for eta in w.index_set
    )
    return w.prefactor * (bracket - penalty)


# ---------------------------------------------------------------------------
# pair selection


def auto_select_R(
    target: PureState, tau: float = 1e-6, max_pairs: int | None = None
) -> PairSet:
    """Choose a pair selection from the target's support.

    Candidates are unordered support pairs with both amplitudes above ``tau``
    that are sensitive to at least one bipartition.  A greedy pass first
    covers every bipartition (most new cuts first; ties broken toward larger
    |c_a c_b|, then lexicographically); the remaining candidates are appended
    by decreasing |c_a c_b|.
    """
    support = [eta for eta in target.support if abs(target.amplitudes[eta]) >= tau]
    bips = enumerate_bipartitions(target.n)

    candidates: list[tuple[IndexPair, frozenset[Bipartition], float]] = []
    for a, b in combinations(support, 2):
        pair = IndexPair.of(a, b)
        covered = frozenset(g for g in bips if not pair_is_fixed(g, pair))
        if not covered:
            continue
        weight = abs(target.amplitudes[a] * target.amplitudes[b])
        candidates.append((pair, covered, weight))

    uncovered = set(bips)
    chosen: list[IndexPair] = []
    remaining = list(candidates)
    while uncovered:
        best = None
        best_key = None
        for item in remaining:
            pair, covered, weight = item
            gain = len(covered & uncovered)
            if gain == 0:
                continue
            key = (-gain, -weight, str(pair))
            if best_key is None or key < best_key:
                best, best_key = item, key
        if best is None:
            raise CoverageError(
                "no pair selection covers every bipartition; the state is "
                "product-like across some cut in this basis"
            )
        chosen.append(best[0])
        uncovered -= best[1]
        remaining.remove(best)

    cover_size = len(chosen)
    remaining.sort(key=lambda item: (-item[2], str(item[0])))
    taken = set(chosen)
    for item in remaining:
        pair = item[0]
        # skip pairs that some cut exchanges with an already selected pair:
        # the two coherences cancel out of the entropy across that cut, so
        # such a pair only inflates the diagonal penalty
        cycles = any(
            (img := IndexPair.of(*permute_pair(g, pair.as_tuple()))) != pair and img in taken
            for g in bips
        )
        if cycles:
            continue
        chosen.append(pair)
        taken.add(pair)
    if max_pairs is not None:
        # never cut into the covering prefix
        chosen = chosen[: max(max_pairs, cover_size)]
    return PairSet.of(chosen, target.n, target.d)


# ---------------------------------------------------------------------------
# derived quantities


def _noise_root(f: Callable[[float], float], xtol: float, label: str) -> float:
    """Root in [0, 1] of a witness value f(p) on the noisy line of a pure target.

    Raises when f is not positive at p = 1 (nothing to tolerate) and returns 0
    when f is still nonnegative at p = 0 (every mixture is detected).
    """
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise InvalidInputError(f"root-finder tolerance must be positive and finite, got {xtol!r}")
    f1 = f(1.0)
    if f1 <= 0.0:
        raise NotDetectingError(f"{label} {f1!r} on the pure target is not positive")
    if f(0.0) >= 0.0:
        return 0.0
    return float(brentq(f, 0.0, 1.0, xtol=xtol))


def noise_threshold(w: CompiledWitness, target: PureState, xtol: float = 1e-12) -> float:
    """Largest white-noise fraction the witness tolerates.

    Returns the root p* of  f(p) = bound(p * target + (1-p) * I/d**n)  in
    [0, 1]; the witness detects the mixture for every p > p*.
    """
    return _noise_root(
        lambda p: evaluate(w, NoisyPureState(target, p)), xtol, "witness value"
    )


def isotropic_pairset(d: int) -> PairSet:
    """All (jj, kk) pairs for the two-qudit maximally entangled target."""
    pairs = [
        IndexPair.of(MultiIndex((j, j), d), MultiIndex((k, k), d))
        for j, k in combinations(range(d), 2)
    ]
    return PairSet.of(pairs, 2, d)


def bipartite_bound_isotropic(d: int, p: float) -> float:
    """Bound for white noise on the maximally entangled two-qudit state."""
    w = compile_witness(isotropic_pairset(d))
    return evaluate(w, make_isotropic(d, p))
