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

Compilation and pair selection work on rank arrays: a cut exchanges the
digits of a pair at its parties, so the image of the pair (a, b) under the
cut with 0/1 mask M is (a + M @ delta, b - M @ delta), where delta holds the
place values times the digit differences b - a.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AnalysisError,
    CoverageError,
    DegenerateSelectionError,
    InvalidInputError,
    NotDetectingError,
)
from .indices import (
    _chunks,
    cut_labels,
    cut_masks,
    digit_strings,
    parse_index,
    place_values,
    rank_positions,
)
from .states import ElementSource, NoisyPureState, PureState, complex_product


class NRVariant(Enum):
    """Which extreme of the per-bipartition uncounted-pair count enters the prefactor."""

    MINIMAL = "min"
    MAXIMAL = "max"


@dataclass(frozen=True, eq=False)
class PairSet:
    """An ordered, duplicate-free selection of index pairs over fixed (n, d).

    ``digits`` is an ``(|R|, 2, n)`` int64 array holding each pair's lower
    index first; :meth:`as_strings` prints it.  Repeats are found on rank
    tuples, exact for object ranks too.

    Two results are cached on first use, both read-only: ``ranks``, and
    ``cut_images``, the part of :func:`compile_witness` that does not depend
    on the N_R variant (the cut images, R^gamma membership, the noise images
    and their owners, and I(R) with each pair's positions in it).  So the
    second variant compiled from one selection redoes only N_R, the prefactor
    and N_eta.
    """

    digits: np.ndarray
    n: int
    d: int

    def __post_init__(self) -> None:
        if not len(self.digits):
            raise InvalidInputError("empty pair selection")
        digits = self.digits
        if digits.shape[1:] != (2, self.n) or not 0 <= digits.min() <= digits.max() < self.d:
            raise InvalidInputError(f"pair digits do not match n={self.n}, d={self.d}")
        if not (self.ranks[:, 0] < self.ranks[:, 1]).all():
            raise InvalidInputError("each pair needs two distinct indices, the lower first")
        if len(set(map(tuple, self.ranks.tolist()))) < len(self):
            raise InvalidInputError("duplicate pair")

    @cached_property
    def ranks(self) -> np.ndarray:
        """``(|R|, 2)``: the ranks of each pair's lower and higher index."""
        return _read_only(self.digits @ place_values(self.n, self.d))

    @cached_property
    def cut_images(self) -> "CutImages":
        """The variant-free part of :func:`compile_witness`, computed once."""
        return _cut_images(self)

    @classmethod
    def of(cls, digits: np.ndarray, n: int, d: int) -> "PairSet":
        """Pairs from any array of shape ``(..., 2, n)``: each put lower index
        first, repeats dropped."""
        digits = np.asarray(digits, dtype=np.int64).reshape(-1, 2, n)
        ranks = digits @ place_values(n, d)
        digits = np.where((ranks[:, 0] > ranks[:, 1])[:, None, None], digits[:, ::-1], digits)
        first: dict[tuple, int] = {}
        for row, key in enumerate(map(tuple, np.sort(ranks, axis=1).tolist())):
            first.setdefault(key, row)
        return cls(digits[list(first.values())], n, d)

    @classmethod
    def from_strings(cls, entries: Sequence[Sequence[str]], n: int, d: int) -> "PairSet":
        """Pairs of bare digit strings, each read by :func:`parse_index`; a pair
        of equal indices is refused."""
        rows = []
        for a, b in entries:
            first, second = parse_index(a, d, n), parse_index(b, d, n)
            if first == second:
                raise InvalidInputError(f"pair members must differ, got ({a}, {a})")
            rows.append([first, second])
        return cls.of(rows, n, d)

    def __len__(self) -> int:
        return len(self.digits)

    def as_strings(self) -> list[list[str]]:
        text = digit_strings(self.ranks.ravel(), self.n, self.d)
        return [list(pair) for pair in zip(text[::2], text[1::2])]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def load_pairset_json(path: str | Path, n: int, d: int) -> PairSet:
    try:
        entries = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read pair file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"pair file {path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise InvalidInputError(f"pair file {path} must hold a list of [a, b] entries")
    for entry in entries:
        if not isinstance(entry, list) or [type(x) for x in entry] != [str, str]:
            raise InvalidInputError(
                f"pair file {path}: entry {json.dumps(entry)} is not a pair of index strings"
            )
    return PairSet.from_strings(entries, n, d)


def _check_shape(n: int, d: int, rho: ElementSource) -> None:
    """Refuse a state that is not over the witness's (n, d)."""
    if rho.n != n or rho.d != d:
        raise InvalidInputError(f"witness over (n={n}, d={d}), state over (n={rho.n}, d={rho.d})")


@dataclass(frozen=True)
class Reads:
    """The entries a witness sum reads over (n, d), gathered in one call.

    The sum visits each coherence followed by the noise images subtracted
    from it; the diagonals it weighs come last.  The terms are added by a
    sequential cumulative sum, in the order a loop over them would add.
    """

    n: int
    d: int
    rows: np.ndarray
    cols: np.ndarray
    coherence_at: np.ndarray
    image_at: np.ndarray

    @classmethod
    def build(
        cls,
        n: int,
        d: int,
        coherences: np.ndarray,
        images: np.ndarray,
        owner: np.ndarray,
        diagonals: np.ndarray,
    ) -> "Reads":
        """``coherences`` and ``images`` are ``(k, 2)`` rank arrays; ``owner``
        (nondecreasing) names the coherence each image belongs to."""
        k = len(coherences)
        arrays = (
            np.concatenate([coherences[:, 0], images[:, 0], images[:, 1], diagonals]),
            np.concatenate([coherences[:, 1], images[:, 0], images[:, 1], diagonals]),
            np.arange(k) + owner.searchsorted(np.arange(k)),
            np.arange(len(images)) + owner + 1,
        )
        return cls(n, d, *map(_read_only, arrays))

    @property
    def images(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The two ranks of each image, and ``bounds``: the images of
        coherence i are entries ``bounds[i]`` to ``bounds[i + 1]``."""
        k, m = len(self.coherence_at), len(self.image_at)
        bounds = (self.coherence_at - np.arange(k)).tolist() + [m]
        return self.rows[k : k + m], self.rows[k + m : k + 2 * m], bounds

    @property
    def diagonals(self) -> np.ndarray:
        """The ranks of I(R), in rank order."""
        return self.rows[len(self.coherence_at) + 2 * len(self.image_at) :]

    def gather(self, rho: ElementSource) -> np.ndarray:
        """Every entry read, in one call on the state; a state of another
        (n, d) is refused."""
        _check_shape(self.n, self.d, rho)
        return rho.elements(self.rows, self.cols)

    def read(self, rho: ElementSource) -> tuple[float, np.ndarray]:
        """sum |rho_ab| - sum sqrt(rho_a'a' rho_b'b') in visiting order, and the diagonals."""
        values = self.gather(rho)
        k, m = len(self.coherence_at), len(self.image_at)
        coherence = values[:k]
        first = np.maximum(values[k : k + m].real, 0.0)
        second = np.maximum(values[k + m : k + 2 * m].real, 0.0)
        terms = np.empty(k + m)
        terms[self.coherence_at] = np.hypot(coherence.real, coherence.imag)
        terms[self.image_at] = -np.sqrt(first * second)
        return float(terms.cumsum()[-1]), values[k + 2 * m :].real


@dataclass(frozen=True)
class CompiledWitness:
    """Everything needed to evaluate the bound on any density matrix.

    The compiler's results are arrays; ``index_set``, ``noise_images`` and
    ``uncounted_profile`` are views of them, built on first access, that name
    indices by rank and cuts by label.
    """

    r: PairSet
    variant: NRVariant
    n_r: int
    prefactor: float
    # the coherences, then the distinct images outside R (grouped by pair in
    # selection order, each pair's in order of the first cut producing each),
    # then I(R) in rank order
    reads: Reads = field(repr=False, compare=False)
    # |R^gamma| per cut, in the row order of cut_masks
    profile: np.ndarray = field(repr=False, compare=False)
    # N_eta per entry of I(R), in rank order
    eta_counts: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.r.n

    @property
    def d(self) -> int:
        return self.r.d

    @cached_property
    def index_set(self) -> tuple[int, ...]:
        """I(R): the rank of every index in a selected pair, ascending."""
        return tuple(self.reads.diagonals.tolist())

    @cached_property
    def noise_images(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Per pair, keyed by its (lower, higher) ranks: the (lower, higher)
        ranks of its distinct images outside R, in order of the first cut
        that produces each."""
        first, second, bounds = self.reads.images
        images = list(zip(first.tolist(), second.tolist()))
        pairs = map(tuple, self.r.ranks.tolist())
        return {pair: tuple(images[bounds[i] : bounds[i + 1]]) for i, pair in enumerate(pairs)}

    @cached_property
    def uncounted_profile(self) -> dict[str, int]:
        """Per cut, keyed by its label in :func:`cut_labels`: |R^gamma|, the
        pairs whose image stays inside R."""
        return dict(zip(cut_labels(self.n), self.profile.tolist()))


def _images(
    ranks: np.ndarray, delta: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and higher rank of each pair's image under each cut, shape (cuts, pairs).

    ``ranks`` is ``(pairs, 2)``; ``delta`` is ``(n, pairs)``, the place values
    times (second digit - first digit).  A cut moves its rows of delta from
    the second index into the first.
    """
    moved = masks @ delta
    first = ranks[:, 0] + moved
    second = ranks[:, 1] - moved
    return np.minimum(first, second), np.maximum(first, second)


def _pair_keys(sorted_ranks: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo * m + hi on positions in ``sorted_ranks`` (length m); -1 when either is absent."""
    pos_lo = rank_positions(sorted_ranks, lo)
    pos_hi = rank_positions(sorted_ranks, hi)
    return np.where((pos_lo >= 0) & (pos_hi >= 0), pos_lo * len(sorted_ranks) + pos_hi, -1)


@dataclass(frozen=True)
class CutImages:
    """What a selection's witness takes from its cuts, for either N_R variant.

    All arrays are read-only; :attr:`PairSet.cut_images` holds one per
    selection.
    """

    # the coherences, the noise images and I(R), as CompiledWitness.reads
    reads: Reads
    # (|R|, 2): the positions of each pair's two indices in I(R)
    members: np.ndarray
    # (cuts, |R|): whether the pair belongs to R^gamma at that cut
    stays: np.ndarray
    # |R^gamma| per cut
    profile: np.ndarray


def _cut_images(r: PairSet) -> CutImages:
    """Each chunk of cuts maps every pair to its image in one matmul; that one
    image decides both whether the pair belongs to R^gamma and which noise
    image it adds."""
    n, size = r.n, len(r)
    digits, ranks = r.digits, r.ranks
    delta = ((digits[:, 1] - digits[:, 0]) * place_values(n, r.d)).T
    differ = (digits[:, 0] != digits[:, 1]) @ place_values(n, 2)
    index_ranks = np.unique(ranks)
    members = index_ranks.searchsorted(ranks)
    r_keys = np.sort(members[:, 0] * len(index_ranks) + members[:, 1])

    masks = cut_masks(n)
    cut_bits = masks @ place_values(n, 2)
    # R^gamma: pairs whose gamma-image is again in R.  This covers pairs fixed
    # by gamma (their own image) and pairs exchanged with another selected
    # pair; neither kind carries usable coherence across that cut, so both
    # fall back to the diagonal penalty.
    stays = np.empty((len(masks), size), dtype=bool)
    found = []  # per chunk: the first (id, cut, lo, hi) of each noise image
    for rows in _chunks(len(masks), size):
        lo, hi = _images(ranks, delta, masks[rows])
        inside = rank_positions(r_keys, _pair_keys(index_ranks, lo, hi)) >= 0
        stays[rows] = inside
        # pair-major: each pair's images in cut order
        pair, at = (~inside.T).nonzero()
        # an image is named by its pair and the exchanged parties where the
        # pair differs, up to exchanging all of them (S and differ - S give
        # the same unordered pair)
        swapped = cut_bits[rows][at] & differ[pair]
        image_id = (pair << n) | np.minimum(swapped, swapped ^ differ[pair])
        entries = (image_id, at + rows.start, lo[at, pair], hi[at, pair])
        _, first = np.unique(image_id, return_index=True)
        found.append([a[first] for a in entries])
    image_id, cut, lo, hi = (np.concatenate(parts) for parts in zip(*found))
    _, first = np.unique(image_id, return_index=True)
    first = first[np.lexsort((cut[first], image_id[first] >> n))]
    image_ranks = np.stack([lo[first], hi[first]], axis=1)
    return CutImages(
        reads=Reads.build(n, r.d, ranks, image_ranks, image_id[first] >> n, index_ranks),
        members=_read_only(members),
        stays=_read_only(stays),
        profile=_read_only(stays.sum(axis=1)),
    )


def compile_witness(r: PairSet, variant: NRVariant = NRVariant.MINIMAL) -> CompiledWitness:
    """Precompute image sets, the prefactor, and the diagonal multiplicities.

    The cut images, R^gamma and the noise images do not depend on the
    variant; they come from ``r.cut_images``, computed on the first compile
    of ``r`` and read-only.  Each call computes only N_R, the prefactor and
    N_eta.
    """
    size, cuts = len(r), r.cut_images
    profile, stays, members = cuts.profile, cuts.stays, cuts.members
    n_r = int(profile.min() if variant is NRVariant.MINIMAL else profile.max())
    if size == n_r:
        raise DegenerateSelectionError(
            f"|R| = N_R = {n_r}: every pair is fixed by some single bipartition; "
            "the prefactor is undefined"
        )
    prefactor = 2.0 * math.sqrt(1.0 / (size - n_r))

    # N_eta: the most pairs containing eta whose diagonal penalty survives at
    # one cut.  In the minimal variant every pair outside R^gamma is counted,
    # leaving exactly R^gamma.  In the maximal variant only |R| - N_R pairs
    # are counted (taken in selection order); the excess joins R^gamma.
    m = len(cuts.reads.diagonals)
    counts = np.zeros(m, dtype=np.int64)
    for rows in _chunks(len(stays), size):
        survives = stays[rows]
        if variant is NRVariant.MAXIMAL:
            moving = ~survives
            survives = survives | (moving & (moving.cumsum(axis=1) > size - n_r))
        row, pair = survives.nonzero()
        slots = (row[:, None] * m + members[pair]).ravel()
        per_cut = np.bincount(slots, minlength=len(survives) * m).reshape(-1, m)
        counts = np.maximum(counts, per_cut.max(axis=0))

    return CompiledWitness(
        r=r,
        variant=variant,
        n_r=n_r,
        prefactor=prefactor,
        reads=cuts.reads,
        profile=profile,
        eta_counts=counts,
    )


def evaluate(w: CompiledWitness, rho: ElementSource) -> float:
    """The certified lower bound on E_m for this state (may be negative)."""
    bracket, diagonal = w.reads.read(rho)
    penalty = 0.5 * float((w.eta_counts * np.maximum(diagonal, 0.0)).cumsum()[-1])
    return w.prefactor * (bracket - penalty)


# ---------------------------------------------------------------------------
# pair selection


def auto_select_R(target: PureState, tau: float = 1e-6) -> PairSet:
    """Choose a pair selection from the target's support.

    Candidates are unordered support pairs with both amplitudes above ``tau``
    that are sensitive to at least one bipartition.  A greedy pass first
    covers every bipartition (most new cuts first; ties broken toward larger
    |c_a c_b|, then lexicographically); the remaining candidates are appended
    by decreasing |c_a c_b|.
    """
    n = target.n
    re, im = target.amplitudes.real, target.amplitudes.imag
    kept = np.hypot(re, im) >= tau
    ranks, digits, re, im = target.ranks[kept], target.digits[kept], re[kept], im[kept]
    masks = cut_masks(n)

    # candidates in lexicographic order, so the first of equals is the smallest
    support = np.arange(len(ranks))
    a, b = (support[:, None] < support).nonzero()
    differ = (digits[a] != digits[b]) @ place_values(n, 2)
    cut_bits = masks @ place_values(n, 2)
    covered = np.empty((len(a), len(masks)), dtype=bool)
    for rows in _chunks(len(a), len(masks)):
        # a cut fixes a pair iff it exchanges none or all of the parties where they differ
        common = differ[rows, None] & cut_bits
        covered[rows] = (common != 0) & (common != differ[rows, None])
    sensitive = covered.any(axis=1)
    a, b, covered = a[sensitive], b[sensitive], covered[sensitive]
    weight = np.hypot(*complex_product(re[a], im[a], re[b], im[b]))

    uncovered = np.ones(len(masks), dtype=bool)
    cover: list[int] = []
    while uncovered.any():
        gain = np.count_nonzero(covered & uncovered, axis=1)
        if not gain.any():
            if not kept.all():
                raise CoverageError(
                    f"only {np.count_nonzero(kept)} of {len(kept)} amplitudes reach "
                    f"tau = {tau!r}; no pair selection of them covers every bipartition"
                )
            raise CoverageError(
                "no pair selection covers every bipartition; the state is "
                "product-like across some cut in this basis"
            )
        tied = gain == gain.max()
        best = int(np.flatnonzero(tied & (weight == weight[tied].max()))[0])
        cover.append(best)
        uncovered &= ~covered[best]

    rest = np.ones(len(a), dtype=bool)
    rest[cover] = False
    rest = np.flatnonzero(rest)
    order = cover + rest[np.argsort(-weight[rest], kind="stable")].tolist()
    # after the cover, skip pairs that some cut exchanges with an already
    # selected pair: the two coherences cancel out of the entropy across that
    # cut, so such a pair only inflates the diagonal penalty.  A cut
    # exchanges t with c iff it exchanges c with t, so a pair is skipped iff
    # it is an image of a selected pair.
    pair_ranks = np.stack([ranks[a], ranks[b]], axis=1)
    delta = ((digits[b] - digits[a]) * place_values(n, target.d)).T
    # one slot past the pair keys takes the -1 of images off the support
    blocked = np.zeros(len(ranks) ** 2 + 1, dtype=bool)
    own_keys = (a * len(ranks) + b).tolist()
    chosen: list[int] = []
    for rows in _chunks(len(order), len(masks)):
        block = order[rows]
        keys = _pair_keys(ranks, *_images(pair_ranks[block], delta[:, block], masks))
        for i, (c, images) in enumerate(zip(block, keys.T), rows.start):
            if i >= len(cover) and blocked[own_keys[c]]:
                continue
            chosen.append(c)
            blocked[images] = True
    # the support is in rank order and a < b, so each pair is lower index first
    return PairSet(np.stack([digits[a[chosen]], digits[b[chosen]]], axis=1), n, target.d)


# ---------------------------------------------------------------------------
# derived quantities


# Brent's method as scipy.optimize.brentq runs it (scipy's C brentq, same
# relative tolerance and iteration cap), so every threshold keeps its bits
_RTOL = 4 * math.ulp(1.0)
_MAXITER = 100


def _brent(f: Callable[[float], float], f0: float, f1: float, xtol: float) -> float:
    """Root of f in [0, 1], given f0 = f(0) and f1 = f(1) of opposite signs.

    Each step takes the interpolated one (secant or inverse quadratic) when it
    is shorter than half the step before last and stays well inside the
    bracket, and bisects otherwise (R. P. Brent, Algorithms for Minimization
    Without Derivatives, 1973, ch. 4).  Raises when 100 steps do not converge.
    """
    xpre, fpre, xcur, fcur = 0.0, f0, 1.0, f1
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero denominator is an infinite step, so bisect
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise AnalysisError(
        f"noise threshold did not converge in {_MAXITER} steps (last p = {xcur!r}, xtol = {xtol!r})"
    )


def check_xtol(xtol: float) -> None:
    """Refuse a root-finder tolerance that is NaN, infinite or not positive."""
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise InvalidInputError(f"root-finder tolerance must be positive and finite, got {xtol!r}")


def _noise_root(f: Callable[[float], float], xtol: float, label: str) -> float:
    """Root in [0, 1] of a witness value f(p) on the noisy line of a pure target.

    Raises when f is not positive at p = 1 (nothing to tolerate) and returns 0
    when f is still nonnegative at p = 0 (every mixture is detected).  A NaN
    value anywhere on the search is refused.
    """
    check_xtol(xtol)

    def value(p: float) -> float:
        v = float(f(p))
        if math.isnan(v):
            raise AnalysisError(f"{label} {v!r} at p = {p!r} is not a number")
        return v

    f1 = value(1.0)
    if f1 <= 0.0:
        raise NotDetectingError(f"{label} {f1!r} on the pure target is not positive")
    f0 = value(0.0)
    if f0 >= 0.0:
        return 0.0
    return _brent(value, f0, f1, xtol)


def noise_threshold(w: CompiledWitness, target: PureState, xtol: float = 1e-12) -> float:
    """Largest white-noise fraction the witness tolerates.

    Returns the root p* of  f(p) = bound(p * target + (1-p) * I/d**n)  in
    [0, 1]; the witness detects the mixture for every p > p*.
    """
    return _noise_root(
        lambda p: evaluate(w, NoisyPureState(target, p)), xtol, "witness value"
    )


def isotropic_pairset(d: int) -> PairSet:
    """All (jj, kk) pairs, j < k, for the two-qudit maximally entangled target."""
    levels = np.stack(np.triu_indices(d, 1), axis=1)
    return PairSet(np.repeat(levels[:, :, None], 2, axis=2), 2, d)
