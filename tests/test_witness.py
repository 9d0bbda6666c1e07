"""Witness compilation and evaluation against frozen reference selections."""

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles
from gmebound.dicke_witness import DickeWitnessSpec, em_bound_from_q, noise_threshold_q, q_witness
from gmebound.entropy import gme_measure_pure
from gmebound.errors import (
    AnalysisError,
    CoverageError,
    DegenerateSelectionError,
    InvalidInputError,
    NotDetectingError,
)
from gmebound import reproduce
import gmebound
from gmebound import indices
from gmebound.indices import cut_masks, digit_strings, rank_digits
from gmebound.observables import plan_settings
from gmebound.ppt import (
    build_ppt_witness,
    compare_with_witness_bracket,
    enumerate_ghz_pairs,
    ppt_expectation,
)
from gmebound.states import (
    DensityMatrix,
    NoisyPureState,
    PureState,
    embed_pure,
    make_dicke_state,
    make_ghz_state,
    make_isotropic,
    make_max_entangled,
    make_singlet4,
    make_w_state,
    white_noise_mix,
)
from gmebound.witness import (
    NRVariant,
    PairSet,
    auto_select_R,
    compile_witness,
    evaluate,
    isotropic_pairset,
    noise_threshold,
)

SINGLET_R = [["0011", "0101"], ["0011", "0110"], ["0011", "1001"], ["0011", "1010"]]

# frozen reference numbers
W_PURE_VALUE = math.sqrt(2.0) / 2.0
W_MAXMIXED_VALUE = -3.0 * math.sqrt(2.0) / 8.0 - 3.0 * math.sqrt(2.0) / 16.0
W_THRESHOLD = 9.0 / 17.0
GHZ_THRESHOLD = 3.0 / 7.0
SINGLET_THRESHOLD = 21.0 / 29.0


def test_w_auto_selection_and_compile():
    w = make_w_state(3)
    r = auto_select_R(w)
    assert sorted(r.as_strings()) == [["001", "010"], ["001", "100"], ["010", "100"]]
    compiled = compile_witness(r, NRVariant.MINIMAL)
    assert compiled.n_r == 1
    assert all(v == 1 for v in compiled.uncounted_profile.values())
    assert compiled.prefactor == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert compiled.eta_counts.tolist() == [1, 1, 1]
    images = sorted(_texts(img, 3, 2) for imgs in compiled.noise_images.values() for img in imgs)
    assert images == [("000", "011"), ("000", "101"), ("000", "110")]


def test_w_values_and_threshold():
    w = make_w_state(3)
    compiled = compile_witness(auto_select_R(w), NRVariant.MINIMAL)
    assert evaluate(compiled, w) == pytest.approx(W_PURE_VALUE, abs=1e-12)
    assert evaluate(compiled, white_noise_mix(w, 0.0)) == pytest.approx(
        W_MAXMIXED_VALUE, abs=1e-12
    )
    assert noise_threshold(compiled, w) == pytest.approx(W_THRESHOLD, abs=1e-10)


def test_ghz_single_pair_witness():
    g = make_ghz_state(3, 2)
    r = auto_select_R(g)
    assert r.as_strings() == [["000", "111"]]
    compiled = compile_witness(r, NRVariant.MINIMAL)
    assert compiled.n_r == 0
    assert compiled.prefactor == pytest.approx(2.0, abs=1e-15)
    assert evaluate(compiled, g) == pytest.approx(1.0, abs=1e-12)
    assert noise_threshold(compiled, g) == pytest.approx(GHZ_THRESHOLD, abs=1e-10)


def test_auto_select_says_whether_tau_or_the_state_leaves_a_cut_open():
    with pytest.raises(CoverageError, match=r"^only 0 of 3 amplitudes reach tau = 0\.9;"):
        auto_select_R(make_w_state(3), tau=0.9)
    lopsided = PureState(3, 2, [[0, 0, 0], [1, 1, 1]], [math.sqrt(0.98), math.sqrt(0.02)])
    with pytest.raises(CoverageError, match=r"^only 1 of 2 amplitudes reach tau = 0\.5;"):
        auto_select_R(lopsided, tau=0.5)
    assert auto_select_R(lopsided).as_strings() == [["000", "111"]]
    product = PureState(2, 2, [[0, 0], [0, 1]], [math.sqrt(0.5), math.sqrt(0.5)])
    with pytest.raises(CoverageError, match="product-like across some cut"):
        auto_select_R(product)


def test_singlet_profile_and_both_variants():
    s4 = make_singlet4()
    r = PairSet.from_strings(SINGLET_R, 4, 2)
    lo = compile_witness(r, NRVariant.MINIMAL)
    hi = compile_witness(r, NRVariant.MAXIMAL)
    assert lo.uncounted_profile == {
        "1|234": 2, "12|34": 0, "13|24": 2, "14|23": 2, "123|4": 2, "124|3": 2, "134|2": 2
    }
    assert lo.n_r == 0 and hi.n_r == 2
    expected_n_eta = {"0011": 2, "0101": 1, "0110": 1, "1001": 1, "1010": 1}
    assert _n_eta(lo) == expected_n_eta
    assert _n_eta(hi) == expected_n_eta
    assert noise_threshold(lo, s4) == pytest.approx(SINGLET_THRESHOLD, abs=1e-10)
    assert noise_threshold(hi, s4) == pytest.approx(SINGLET_THRESHOLD, abs=1e-10)


def test_singlet_verdicts_straddle_threshold():
    s4 = make_singlet4()
    compiled = compile_witness(PairSet.from_strings(SINGLET_R, 4, 2), NRVariant.MINIMAL)
    assert evaluate(compiled, white_noise_mix(s4, 0.8)) > 0
    assert evaluate(compiled, white_noise_mix(s4, 0.7)) < 0


def test_isotropic_formula_and_tightness():
    qutrit = compile_witness(isotropic_pairset(3))
    for p in (0.0, 0.25, 0.5, 1.0):
        assert evaluate(qutrit, make_isotropic(3, p)) == pytest.approx(
            2.0 * (4.0 * p - 1.0) / math.sqrt(27.0), abs=1e-12
        )
    for d in (2, 3, 4):
        compiled = compile_witness(isotropic_pairset(d), NRVariant.MINIMAL)
        assert evaluate(compiled, make_isotropic(d, 1.0)) == pytest.approx(
            math.sqrt(2.0 - 2.0 / d), abs=1e-10
        )


def _n_eta(w) -> dict[str, int]:
    """N_eta per index string of I(R), as ``bound`` prints it."""
    return dict(zip(digit_strings(w.reads.diagonals, w.n, w.d), w.eta_counts.tolist()))


def _texts(ranks: tuple[int, ...], n: int, d: int) -> tuple[str, ...]:
    """The big-endian base-d digit string of each rank, by repeated division."""
    return tuple("".join(str(k // d**p % d) for p in range(n - 1, -1, -1)) for k in ranks)


def _label(cut: tuple[int, ...], n: int) -> str:
    rest = [p for p in range(1, n + 1) if p not in cut]
    return "".join(map(str, cut)) + "|" + "".join(map(str, rest))


def _random_selection(n: int, d: int, size: int, rng: np.random.Generator) -> list[list[str]]:
    """Up to ``size`` distinct pairs drawn among a few random strings, so that
    cuts often exchange one selected pair with another."""
    strings = sorted(
        {"".join(str(x) for x in rng.integers(0, d, size=n)) for _ in range(int(rng.integers(2, 7)))}
    )
    candidates = list(combinations(strings, 2)) or [("0" * n, "1" * n)]
    picks = rng.choice(len(candidates), size=min(size, len(candidates)), replace=False)
    return [list(candidates[i]) for i in picks]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 3),
    st.integers(1, 8),
    st.integers(0, 2**31),
    st.sampled_from(list(NRVariant)),
)
def test_compile_matches_digit_string_oracle(n, d, size, seed, variant):
    """Noise images in first-cut order, N_R, N_eta and the uncounted profile."""
    pairs = _random_selection(n, d, size, np.random.default_rng(seed))
    want = oracles.compiled_fields_direct(pairs, n, d, variant.value)
    r = PairSet.from_strings(pairs, n, d)
    if len(r) == want["n_r"]:
        with pytest.raises(DegenerateSelectionError):
            compile_witness(r, variant)
        return
    w = compile_witness(r, variant)
    assert w.n_r == want["n_r"]
    assert list(w.uncounted_profile) == [_label(cut, n) for cut in want["cuts"]]
    assert list(w.uncounted_profile.values()) == want["profile"]
    got_images = [
        [_texts(img, n, d) for img in w.noise_images[pair]] for pair in map(tuple, r.ranks.tolist())
    ]
    assert got_images == want["noise_images"]
    assert _n_eta(w) == want["n_eta"]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 3),
    st.integers(1, 8),
    st.integers(0, 2**31),
    st.sampled_from([list(NRVariant), list(NRVariant)[::-1]]),
)
def test_compile_from_cached_cuts_equals_a_fresh_compile(n, d, size, seed, variants):
    """Both variants in either order from one selection, each against a
    compile on a fresh selection: every field exactly equal."""
    pairs = _random_selection(n, d, size, np.random.default_rng(seed))
    r = PairSet.from_strings(pairs, n, d)
    for variant in variants:
        fresh_r = PairSet.from_strings(pairs, n, d)
        try:
            fresh = compile_witness(fresh_r, variant)
        except DegenerateSelectionError:
            with pytest.raises(DegenerateSelectionError):
                compile_witness(r, variant)
            continue
        w = compile_witness(r, variant)
        assert (w.n_r, w.prefactor.hex()) == (fresh.n_r, fresh.prefactor.hex())
        for name in ("rows", "cols", "coherence_at", "image_at"):
            assert _same(getattr(w.reads, name), getattr(fresh.reads, name)), name
        assert _same(w.profile, fresh.profile)
        assert _same(w.eta_counts, fresh.eta_counts)


def test_cached_arrays_are_read_only():
    r = PairSet.from_strings(SINGLET_R, 4, 2)
    w = compile_witness(r)
    assert compile_witness(r, NRVariant.MAXIMAL).reads is w.reads
    cuts = r.cut_images
    reads = [w.reads.rows, w.reads.cols, w.reads.coherence_at, w.reads.image_at]
    for array in [r.ranks, cuts.members, cuts.stays, cuts.profile, w.profile, *reads]:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("variant", list(NRVariant))
def test_compile_permutes_each_pair_once_per_cut(monkeypatch, variant):
    """Every selected pair gets exactly one image under every canonical cut."""
    import gmebound.witness as witness_module

    seen = []
    images = witness_module._images

    def counted(ranks, delta, masks):
        lo, hi = images(ranks, delta, masks)
        assert lo.shape == hi.shape == (len(masks), len(ranks))
        seen.append(masks.copy())
        return lo, hi

    monkeypatch.setattr(indices, "CHUNK_ENTRIES", 5)
    monkeypatch.setattr(witness_module, "_images", counted)
    r = PairSet.from_strings(SINGLET_R, 4, 2)
    compile_witness(r, variant)
    cuts = np.concatenate(seen)
    assert len(cuts) == 2 ** (4 - 1) - 1
    assert len({tuple(row) for row in cuts.tolist()}) == len(cuts)


@pytest.mark.parametrize("variant", list(NRVariant))
def test_chunked_compile_and_selection_match_unchunked(monkeypatch, variant):
    """Tiny chunks split the cuts and the candidates; every field stays the same."""
    targets = [make_w_state(6), make_dicke_state(5, 3, 2), make_singlet4()]
    whole = [(auto_select_R(t), compile_witness(auto_select_R(t), variant)) for t in targets]
    monkeypatch.setattr(indices, "CHUNK_ENTRIES", 5)
    for target, (r, w) in zip(targets, whole):
        assert auto_select_R(target).as_strings() == r.as_strings()
        # a fresh selection, so that its cut images are computed in chunks
        chunked = compile_witness(PairSet(r.digits, r.n, r.d), variant)
        assert (chunked.n_r, _n_eta(chunked)) == (w.n_r, _n_eta(w))
        assert chunked.noise_images == w.noise_images
        assert chunked.uncounted_profile == w.uncounted_profile
        assert evaluate(chunked, NoisyPureState(target, 0.7)) == evaluate(w, NoisyPureState(target, 0.7))


def test_hot_paths_build_no_index_objects():
    """Basis indices are digit rows and ranks everywhere; strings are read by
    indices.parse_index and printed by indices.digit_strings."""
    for name in ("MultiIndex", "IndexPair"):
        assert not hasattr(indices, name) and not hasattr(gmebound, name)
    assert not hasattr(PairSet, "__iter__")


def test_hot_paths_agree_with_the_dense_route():
    """The states, selection, compilation of both variants, evaluation, root
    finding, both entropy routes, Q, the E_m bridge, the measurement planner,
    the antipodal pairs and the PPT witness, run on digit, rank and cut mask
    arrays, against the same quantities on the dense matrices."""
    spec = DickeWitnessSpec(5, 3, 2)
    rng = np.random.default_rng(4)
    targets = [
        make_w_state(6),
        make_dicke_state(5, 3, 2),
        make_singlet4(),
        make_ghz_state(4, 3),
        make_max_entangled(3),
        embed_pure(make_dicke_state(4, 2, 2), 3),
        reproduce._random_sparse_pure(rng, 3, 3),
    ]
    for target in targets:
        coeff = gme_measure_pure(target, method="coeff")
        trace = gme_measure_pure(target, method="trace")
        assert coeff.values == pytest.approx(trace.values, abs=1e-12)
        dense, noisy = target.density(), white_noise_mix(target, 0.7)
        r = auto_select_R(target)
        for variant in NRVariant:  # the second reads the cut images cached on r
            w = compile_witness(r, variant)
            assert evaluate(w, target) == pytest.approx(evaluate(w, dense), abs=1e-12)
            lazy = evaluate(w, NoisyPureState(target, 0.7))
            assert lazy == pytest.approx(evaluate(w, noisy), abs=1e-12)
            assert 0.0 <= noise_threshold(w, target) < 1.0
            plan = plan_settings(w, include_imag=True)
            assert [list(el.indices) for el in plan.elements[: 2 * len(r) : 2]] == r.as_strings()
    dicke = targets[1]
    q = q_witness(spec, dicke)
    assert q == pytest.approx(q_witness(spec, dicke.density()), abs=1e-12)
    for variant in NRVariant:
        em_bound_from_q(spec, q, variant)
    pairs = enumerate_ghz_pairs(3, 3)
    assert len(enumerate_ghz_pairs(2, 2)) == 2
    ppt = build_ppt_witness(pairs.digits[4], 3, cut_masks(3)[2])
    ghz = make_ghz_state(3, 3)
    for rho, mat in ((ghz, ghz.density()), (NoisyPureState(ghz, 0.7), white_noise_mix(ghz, 0.7))):
        lazy, full = (compare_with_witness_bracket(ppt, x) for x in (rho, mat))
        assert lazy.omega == pytest.approx(ppt_expectation(ppt, mat), abs=1e-12)
        assert (lazy.omega, lazy.minus_w) == pytest.approx((full.omega, full.minus_w), abs=1e-12)
        assert lazy.dominance == full.dominance


def test_degenerate_single_fixed_pair_rejected():
    r = PairSet.from_strings([["000", "100"]], 3, 2)
    with pytest.raises(DegenerateSelectionError):
        compile_witness(r, NRVariant.MINIMAL)


def test_cross_pair_cycle_is_degenerate():
    # gamma = {1} exchanges (01,10) with (00,11): neither coherence survives
    # that cut, so the selection carries no usable off-diagonal mass
    r = PairSet.from_strings([["01", "10"], ["00", "11"]], 2, 2)
    with pytest.raises(DegenerateSelectionError):
        compile_witness(r, NRVariant.MINIMAL)


def test_auto_select_skips_cycle_partners():
    # regression: the appended pair (00,11) used to form a cycle with (01,10)
    # and pushed the bound above the measure
    amps = {"10": 0.16666520612146444, "01": 0.7250706001036722,
            "00": 0.6482226312372988, "11": 0.16514243740029727}
    norm = math.sqrt(sum(a * a for a in amps.values()))
    psi = PureState(2, 2, [[int(c) for c in k] for k in amps], [v / norm for v in amps.values()])
    r = auto_select_R(psi)
    assert r.as_strings() == [["01", "10"]]
    compiled = compile_witness(r, NRVariant.MINIMAL)
    assert evaluate(compiled, psi) <= gme_measure_pure(psi).e_m + 1e-9


AUTO_SELECT_TARGETS = {
    **{f"w-{n}": (make_w_state, (n,)) for n in range(3, 11)},
    **{f"ghz-{n}": (make_ghz_state, (n,)) for n in range(3, 13)},
    "ghz-5-d3": (make_ghz_state, (5, 3)),
    **{f"dicke-{n}-{d}-{m}": (make_dicke_state, (n, d, m)) for n, d, m in ((4, 2, 2), (5, 3, 2), (7, 2, 3))},
    "singlet4": (make_singlet4, ()),
}


@pytest.mark.parametrize("name", sorted(AUTO_SELECT_TARGETS))
def test_auto_select_matches_recorded_selections(name):
    """Selections as auto_select_R made them before its array rewrite (e017e43),
    kept in auto_select_pins.json: cover order, weight ties and cycle skips."""
    pins = json.loads((Path(__file__).parent / "auto_select_pins.json").read_text())
    make, args = AUTO_SELECT_TARGETS[name]
    assert auto_select_R(make(*args)).as_strings() == pins[name]


def test_pairset_dedupes_and_validates():
    # builders drop repeats (after canonicalization), the raw constructor rejects
    r = PairSet.from_strings([["01", "10"], ["10", "01"]], 2, 2)
    assert len(r) == 1
    assert r.digits.tolist() == [[[0, 1], [1, 0]]] and r.ranks.tolist() == [[1, 2]]
    assert PairSet.of(np.array([[[1, 0], [0, 1]]] * 2), 2, 2).as_strings() == [["01", "10"]]
    with pytest.raises(InvalidInputError):
        PairSet(np.repeat(r.digits, 2, axis=0), 2, 2)
    with pytest.raises(InvalidInputError):
        PairSet(r.digits[:, ::-1], 2, 2)  # higher index first
    with pytest.raises(InvalidInputError):
        PairSet(r.digits + 1, 2, 2)  # digit out of range
    with pytest.raises(InvalidInputError):
        PairSet.from_strings([["01", "100"]], 2, 2)


def test_evaluate_rejects_shape_mismatch():
    compiled = compile_witness(PairSet.from_strings(SINGLET_R, 4, 2), NRVariant.MINIMAL)
    with pytest.raises(InvalidInputError):
        evaluate(compiled, make_isotropic(2, 0.5))


def test_noise_threshold_requires_detection():
    # witness built for the W state cannot detect the GHZ state
    compiled = compile_witness(auto_select_R(make_w_state(3)), NRVariant.MINIMAL)
    with pytest.raises(NotDetectingError):
        noise_threshold(compiled, make_ghz_state(3, 2))


@settings(max_examples=35, deadline=None)
@given(
    st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]),
    st.integers(4, 8),
    st.integers(0, 2**31),
    st.sampled_from(list(NRVariant)),
)
def test_witness_never_exceeds_measure(shape, size, seed, variant):
    """The certified bound stays below the convex-roof measure on pure states."""
    n, d = shape
    rng = np.random.default_rng(seed)
    ranks = rng.choice(d**n, size=min(size, d**n), replace=False)
    amps = rng.normal(size=len(ranks)) + 1j * rng.normal(size=len(ranks))
    amps /= np.linalg.norm(amps)
    psi = PureState(n, d, rank_digits(ranks, n, d), amps)
    try:
        compiled = compile_witness(auto_select_R(psi), variant)
    except AnalysisError:
        # degenerate selection or a cut the support cannot cover: no witness
        return
    assert evaluate(compiled, psi) <= gme_measure_pure(psi).e_m + 1e-9


# a local dimension whose ranks overflow int64 from n = 2 on
HUGE_D = 2**40


def _widen(rank: int, n: int) -> int:
    """The rank over HUGE_D levels of the same digit pattern over 3 levels
    (digit x becomes x * 2**38)."""
    return sum((rank // 3**p % 3 << 38) * HUGE_D**p for p in range(n))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 8),
    st.integers(0, 2**31),
    st.sampled_from(list(NRVariant)),
)
def test_ranks_beyond_int64_give_the_same_results(n, size, seed, variant):
    """Over HUGE_D the ranks are Python integers.  Every result depends only on
    which digits agree, so compiling, evaluating, auto-selecting, the coeff
    entropies and single-element reads match those over d = 3 exactly."""
    rng = np.random.default_rng(seed)
    ranks = rng.choice(3**n, size=min(size, 3**n), replace=False)
    amps = rng.normal(size=len(ranks)) + 1j * rng.normal(size=len(ranks))
    amps /= np.linalg.norm(amps)
    psi = PureState(n, 3, rank_digits(ranks, n, 3), amps)
    wide = PureState(n, HUGE_D, psi.digits << 38, psi.amplitudes)
    r = PairSet.from_strings(_random_selection(n, 3, size, rng), n, 3)
    wide_r = PairSet.of(r.digits << 38, n, HUGE_D)

    def widen_pair(pair: tuple[int, int]) -> tuple[int, int]:
        return _widen(pair[0], n), _widen(pair[1], n)

    try:
        w = compile_witness(r, variant)
    except DegenerateSelectionError:
        with pytest.raises(DegenerateSelectionError):
            compile_witness(wide_r, variant)
    else:
        big = compile_witness(wide_r, variant)
        assert (big.n_r, big.prefactor) == (w.n_r, w.prefactor)
        assert big.uncounted_profile == w.uncounted_profile
        assert big.index_set == tuple(_widen(k, n) for k in w.index_set)
        assert big.eta_counts.tolist() == w.eta_counts.tolist()
        assert big.noise_images == {
            widen_pair(pair): tuple(map(widen_pair, imgs)) for pair, imgs in w.noise_images.items()
        }
        assert evaluate(big, wide) == evaluate(w, psi)

    try:
        chosen = auto_select_R(psi)
    except AnalysisError:
        with pytest.raises(AnalysisError):
            auto_select_R(wide)
    else:
        assert np.array_equal(auto_select_R(wide).digits, chosen.digits << 38)
    got = gme_measure_pure(wide).entropies
    assert list(got.values()) == list(gme_measure_pure(psi).entropies.values())
    a, b = psi.ranks[[0, -1]].tolist()
    wide_ab = wide.elements(*(np.array([_widen(x, n)], dtype=object) for x in (a, b)))
    assert wide_ab[0] == psi.elements(np.array([a]), np.array([b]))[0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 3),
    st.integers(2, 8),
    st.integers(0, 2**31),
    st.sampled_from(list(NRVariant)),
)
def test_evaluate_matches_direct_recomputation(n, d, size, seed, variant):
    """N_R, the noise images and N_eta together against the oracle's own image loop."""
    rng = np.random.default_rng(seed)
    w_rho = oracles.random_density(3, 2, rng)
    w_r = PairSet.from_strings([["001", "010"], ["001", "100"], ["010", "100"]], 3, 2)

    candidates = list(combinations(range(d**n), 2))
    picks = rng.choice(len(candidates), size=min(size, len(candidates)), replace=False)
    r = PairSet.of(rank_digits(np.array([candidates[i] for i in picks]).ravel(), n, d), n, d)
    rho_mat = oracles.random_density(n, d, rng)

    for sel, mat in ((w_r, w_rho), (r, rho_mat)):
        pairs = [tuple(p) for p in sel.as_strings()]
        try:
            compiled = compile_witness(sel, variant)
        except DegenerateSelectionError:
            with pytest.raises(ValueError):
                oracles.witness_value_direct(pairs, mat, sel.n, sel.d, variant.value)
            continue
        want = oracles.witness_value_direct(pairs, mat, sel.n, sel.d, variant.value)
        got = evaluate(compiled, DensityMatrix(sel.n, sel.d, mat))
        assert got == pytest.approx(want, abs=1e-12)


def test_singlet_evaluate_matches_direct_recomputation_both_variants():
    rng = np.random.default_rng(3)
    rho_mat = oracles.random_density(4, 2, rng)
    rho = DensityMatrix(4, 2, rho_mat)
    r = PairSet.from_strings(SINGLET_R, 4, 2)
    for variant, name in ((NRVariant.MINIMAL, "min"), (NRVariant.MAXIMAL, "max")):
        got = evaluate(compile_witness(r, variant), rho)
        want = oracles.witness_value_direct(
            [tuple(p) for p in SINGLET_R], rho_mat, 4, 2, variant=name
        )
        assert got == pytest.approx(want, abs=1e-12)


def _max_entangled(d: int) -> PureState:
    return PureState(2, d, [[j, j] for j in range(d)], [1 / math.sqrt(d)] * d)


def _dense_oracle_threshold(psi: PureState, pairs: list[tuple[str, str]], variant: str) -> float:
    """Root of the oracle bound on p|psi><psi| + (1-p) I/d**n, built as dense arrays."""
    dim = psi.d**psi.n
    vec = np.zeros(dim, dtype=complex)
    for digits, c in zip(psi.digits.tolist(), psi.amplitudes.tolist()):
        vec[int("".join(map(str, digits)), psi.d)] = c
    proj = np.outer(vec, vec.conj())
    noise = np.eye(dim) / dim

    def f(p: float) -> float:
        rho = p * proj + (1.0 - p) * noise
        return oracles.witness_value_direct(pairs, rho, psi.n, psi.d, variant)

    return brentq(f, 0.0, 1.0, xtol=1e-14)


NOISY_TARGETS = (
    [(f"w{n}", make_w_state, (n,)) for n in range(3, 9)]
    + [(f"ghz{n}", make_ghz_state, (n, 2)) for n in range(3, 9)]
    + [(f"ghz{n}-d3", make_ghz_state, (n, 3)) for n in (3, 4, 5)]
    + [("dicke-4-3-2", make_dicke_state, (4, 3, 2)), ("dicke-5-3-2", make_dicke_state, (5, 3, 2))]
    + [("singlet4", make_singlet4, ())]
    + [(f"isotropic-d{d}", _max_entangled, (d,)) for d in (2, 3, 4)]
)


@pytest.mark.parametrize(
    "make, args", [t[1:] for t in NOISY_TARGETS], ids=[t[0] for t in NOISY_TARGETS]
)
def test_threshold_matches_dense_oracle_root(make, args):
    """Thresholds read through the noisy-pure view agree with a dense oracle root."""
    psi = make(*args)
    r = auto_select_R(psi)
    pairs = [tuple(p) for p in r.as_strings()]
    for variant in NRVariant:
        got = noise_threshold(compile_witness(r, variant), psi)
        want = _dense_oracle_threshold(psi, pairs, variant.value)
        assert got == pytest.approx(want, abs=1e-12)


@dataclass(frozen=True)
class _PointwiseNoise:
    """White noise on a pure state as NoisyPureState read it before families:
    the pure entries gathered on every read, then the same arithmetic."""

    pure: PureState
    p: float

    @property
    def n(self) -> int:
        return self.pure.n

    @property
    def d(self) -> int:
        return self.pure.d

    def elements(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        pure = self.pure.elements(rows, cols)
        noise = (1.0 - self.p) / self.pure.d**self.pure.n
        out = np.empty(rows.shape, dtype=complex)
        out.real = self.p * pure.real + np.where(rows == cols, noise, 0.0)
        out.imag = self.p * pure.imag
        return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 3),
    st.integers(1, 8),
    st.integers(0, 2**31),
    st.sampled_from(list(NRVariant)),
    st.sampled_from(["all", "singles"]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_white_noise_family_reads_bit_for_bit(n, d, size, seed, variant, delta, ps):
    """One family per witness, read at several weights: every witness value
    and Q has the bits of a single-point NoisyPureState and of the
    gather-per-read arithmetic, on random sparse targets."""
    rng = np.random.default_rng(seed)
    target = reproduce._random_sparse_pure(rng, n, d)
    try:
        w = compile_witness(PairSet.from_strings(_random_selection(n, d, size, rng), n, d), variant)
    except DegenerateSelectionError:
        return
    spec = DickeWitnessSpec(n, d, 1 + seed % (n - 1), delta_subsets=delta)
    w_family, q_family = w.reads.family(target), spec.reads.family(target)
    for p in ps:
        want = evaluate(w, _PointwiseNoise(target, p)).hex()
        assert evaluate(w, w_family.at(p)).hex() == want
        assert evaluate(w, NoisyPureState(target, p)).hex() == want
        want = q_witness(spec, _PointwiseNoise(target, p)).hex()
        assert q_witness(spec, q_family.at(p)).hex() == want
        assert q_witness(spec, NoisyPureState(target, p)).hex() == want


def test_a_threshold_gathers_the_target_once(monkeypatch):
    """Every step of a root search reads the one family gathered before it."""
    gathers = []
    elements = PureState.elements

    def counted(self, rows, cols):
        gathers.append(len(rows))
        return elements(self, rows, cols)

    monkeypatch.setattr(PureState, "elements", counted)
    target = make_singlet4()
    w = compile_witness(PairSet.from_strings(SINGLET_R, 4, 2))
    spec = DickeWitnessSpec(4, 2, 2)
    for threshold in (lambda: noise_threshold(w, target), lambda: noise_threshold_q(spec, target)):
        gathers.clear()
        threshold()
        assert len(gathers) == 1
    # a single-point view gathers on each read, as before
    gathers.clear()
    evaluate(w, NoisyPureState(target, 0.5))
    evaluate(w, NoisyPureState(target, 0.5))
    assert len(gathers) == 2


def test_a_family_member_reads_other_entries_as_a_single_point():
    target, other = make_w_state(4), make_ghz_state(4)
    w = compile_witness(auto_select_R(target))
    member = compile_witness(auto_select_R(other)).reads.family(target).at(0.6)
    assert evaluate(w, member).hex() == evaluate(w, NoisyPureState(target, 0.6)).hex()
    with pytest.raises(InvalidInputError, match="outside"):
        w.reads.family(target).at(1.5)
    with pytest.raises(InvalidInputError, match=r"witness over \(n=4, d=2\), state over \(n=3"):
        w.reads.family(make_w_state(3))


SIGN_TARGETS = (
    [(f"ghz{n}", make_ghz_state(n)) for n in range(3, 7)]
    + [(f"w{n}", make_w_state(n)) for n in range(3, 7)]
    + [("singlet4", make_singlet4()), ("dicke-4-2-2", make_dicke_state(4, 2, 2))]
)


def _sign_grid(root: float) -> np.ndarray:
    """401 even points on [0, 1] and two points 1e-6 either side of the root,
    leaving out any within 1e-9 of it, where a rounding may flip the sign."""
    grid = np.concatenate([np.linspace(0.0, 1.0, 401), [root - 1e-6, root + 1e-6]])
    return grid[(grid >= 0.0) & (grid <= 1.0) & (np.abs(grid - root) > 1e-9)]


@pytest.mark.parametrize("target", [t[1] for t in SIGN_TARGETS], ids=[t[0] for t in SIGN_TARGETS])
def test_threshold_is_the_only_sign_change(target):
    """f(p) = bound at weight p is convex on the white-noise line (see
    noise_threshold), so it is negative below p* and positive above it."""
    r = auto_select_R(target)
    for variant in NRVariant:
        w = compile_witness(r, variant)
        root = noise_threshold(w, target)
        assert 0.0 < root < 1.0
        grid = _sign_grid(root)
        values = np.array([evaluate(w, NoisyPureState(target, p)) for p in grid])
        assert (values[grid > root] > 0.0).all()
        assert (values[grid < root] < 0.0).all()


@pytest.mark.parametrize("target", [make_singlet4(), make_dicke_state(4, 2, 2)],
                         ids=["singlet4", "dicke-4-2-2"])
def test_q_threshold_is_the_only_sign_change(target):
    spec = DickeWitnessSpec(4, 2, 2)
    root = noise_threshold_q(spec, target)
    grid = _sign_grid(root)
    values = np.array([q_witness(spec, NoisyPureState(target, p)) for p in grid])
    assert (values[grid > root] > 0.0).all()
    assert (values[grid < root] < 0.0).all()
