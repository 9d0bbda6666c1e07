"""Dimensionality witness Q: calibration, counts, thresholds, bounds."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles

import gmebound.dicke_witness as dicke_module
import gmebound.witness as witness_module
from gmebound.dicke_witness import (
    DickeWitnessSpec,
    dimensionality_certificate,
    em_bound_from_q,
    noise_threshold_q,
    q_witness,
    r_sigma_size,
)
from gmebound.errors import InvalidInputError, NotDetectingError
from gmebound.indices import rank_digits
from gmebound.states import (
    DensityMatrix,
    NoisyPureState,
    PureState,
    embed_pure,
    make_dicke_state,
    make_singlet4,
    white_noise_mix,
)
from gmebound.witness import NRVariant

CALIBRATION = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2), (3, 3, 1), (4, 3, 2)]
R_SIGMA_SIZES = {(3, 2, 1): 3, (4, 2, 1): 6, (4, 2, 2): 12,
                 (5, 2, 2): 30, (3, 3, 1): 12, (4, 3, 2): 48}

# measured zero-crossing of Q on the white-noise singlet line (27/43); kept
# frozen so any change to the noise bookkeeping shows up here
SINGLET_Q_CROSSING = 27.0 / 43.0


@pytest.mark.parametrize("n,d,m", CALIBRATION)
def test_q_is_maximal_on_the_matching_dicke_state(n, d, m):
    spec = DickeWitnessSpec(n, d, m)
    rho = make_dicke_state(n, d, m).density()
    assert q_witness(spec, rho) == pytest.approx(d - 1, abs=1e-9)


@pytest.mark.parametrize("n,d,m", CALIBRATION)
def test_r_sigma_count_matches_closed_form(n, d, m):
    spec = DickeWitnessSpec(n, d, m)
    assert r_sigma_size(spec) == R_SIGMA_SIZES[(n, d, m)]
    assert em_bound_from_q(spec, 1.0).r_size == r_sigma_size(spec)
    # closed form: (d-1)^2 * C(n,m) * m * (n-m) / 2
    assert r_sigma_size(spec) == (d - 1) ** 2 * math.comb(n, m) * m * (n - m) // 2


# How the Q defaults (ordered sigma, delta "all") were pinned: only ordered
# sigma reaches the d-1 calibration on the targets and the singlet crossing;
# "singles" coincides with "all" at n = 3 and subtracts less for n >= 4.
UNORDERED_Q = {(4, 2, 1): -0.5, (5, 2, 2): -0.5}


@pytest.mark.parametrize("delta", ["all", "singles"])
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("n,d,m", CALIBRATION)
def test_q_convention_table(n, d, m, ordered, delta):
    spec = DickeWitnessSpec(n, d, m, sigma_ordered=ordered, delta_subsets=delta)
    want = d - 1 if ordered else UNORDERED_Q.get((n, d, m), 0.0)
    assert q_witness(spec, make_dicke_state(n, d, m)) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("delta", ["all", "singles"])
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
def test_singlet_crossing_per_convention(ordered, delta):
    spec = DickeWitnessSpec(4, 2, 2, sigma_ordered=ordered, delta_subsets=delta)
    if ordered:
        assert noise_threshold_q(spec, make_singlet4()) == pytest.approx(
            SINGLET_Q_CROSSING, abs=1e-9
        )
    else:
        with pytest.raises(NotDetectingError):
            noise_threshold_q(spec, make_singlet4())


def test_noise_weight_formula():
    assert DickeWitnessSpec(4, 2, 2).noise_weight == 2
    assert DickeWitnessSpec(4, 3, 2).noise_weight == 4
    assert DickeWitnessSpec(5, 2, 2).noise_weight == 4


def test_singlet_q_value_and_crossing():
    s4 = make_singlet4()
    spec = DickeWitnessSpec(4, 2, 2)
    assert q_witness(spec, s4.density()) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert noise_threshold_q(spec, s4) == pytest.approx(SINGLET_Q_CROSSING, abs=1e-9)


def test_noise_threshold_q_refuses_undetected_target():
    spec = DickeWitnessSpec(3, 2, 1)
    product = PureState(3, 2, [[0, 0, 0]], [1.0])
    with pytest.raises(NotDetectingError):
        noise_threshold_q(spec, product)


def test_q_witness_refuses_a_state_of_another_shape():
    spec = DickeWitnessSpec(4, 2, 2)
    with pytest.raises(InvalidInputError, match=r"^witness over \(n=4, d=2\), state over \(n=4, d=3\)$"):
        q_witness(spec, embed_pure(make_singlet4(), 3))


def test_q_witness_refuses_another_shape_before_building_its_reads():
    spec = DickeWitnessSpec(4, 3, 2)
    with pytest.raises(InvalidInputError, match=r"^witness over \(n=4, d=3\), state over \(n=4, d=2\)$"):
        q_witness(spec, make_singlet4())
    assert "reads" not in spec.__dict__


def test_embedded_dicke_rows_3_3_1():
    spec = DickeWitnessSpec(3, 3, 1)
    rows = {}
    for f in (1, 2, 3):
        if f == 1:
            state = PureState(3, 3, [[0, 0, 0]], [1.0])
        else:
            state = embed_pure(make_dicke_state(3, f, 1), 3)
        rows[f] = q_witness(spec, state.density())
    assert rows[1] == pytest.approx(0.0, abs=1e-12)
    # the f=2 coherence mass (f-1)(n-m) exactly cancels the noise weight here
    assert rows[2] == pytest.approx(0.0, abs=1e-12)
    assert rows[3] == pytest.approx(2.0, abs=1e-12)


def test_certificate_steps():
    assert dimensionality_certificate(-0.3) == 1
    assert dimensionality_certificate(0.0) == 1
    assert dimensionality_certificate(0.4) == 2
    assert dimensionality_certificate(1.0) == 2  # boundary: within tol of 1
    assert dimensionality_certificate(1.2) == 3
    assert dimensionality_certificate(2.0) == 3
    assert dimensionality_certificate(1.0, tol=0.0) == 2
    assert dimensionality_certificate(1.5, tol=0.6) == 2


@pytest.mark.parametrize("tol", [-0.5, -1e-12, math.nan, math.inf, -math.inf])
def test_certificate_refuses_negative_or_nonfinite_tol(tol):
    # a negative tol would certify dimension 3 from Q = 1 on qubits
    with pytest.raises(InvalidInputError):
        dimensionality_certificate(1.0, tol=tol)


R_SIGMA_SHAPES = [(n, d, m) for n in range(2, 6) for d in (2, 3) for m in range(1, n)]


@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("n,d,m", R_SIGMA_SHAPES)
def test_r_sigma_matches_direct_oracle(monkeypatch, n, d, m, ordered):
    """The selection em_bound_from_q compiles is the oracle's R_sigma, for
    either sigma_ordered, and its N_R is the oracle's under both variants."""
    want = oracles.r_sigma_direct(n, d, m)
    compiled = []
    compile_witness = dicke_module.compile_witness

    def recording(r, variant):
        compiled.append(r)
        return compile_witness(r, variant)

    monkeypatch.setattr(dicke_module, "compile_witness", recording)
    spec = DickeWitnessSpec(n, d, m, sigma_ordered=ordered)
    for variant in NRVariant:
        bound = em_bound_from_q(spec, 1.0, variant)
        got = compiled[-1].as_strings()
        assert len(got) == bound.r_size == len(want) == r_sigma_size(spec)
        assert {frozenset(p) for p in got} == {frozenset(p) for p in want}
        assert bound.n_r == oracles.compiled_fields_direct(want, n, d, variant.value)["n_r"]


def test_em_bound_compiles_r_sigma_once_per_variant(monkeypatch):
    """R_sigma's cut images, the variant-free part of a compile, are built once per spec."""
    built = []
    cut_images = witness_module._cut_images

    def recording(r):
        built.append(r)
        return cut_images(r)

    monkeypatch.setattr(witness_module, "_cut_images", recording)
    spec = DickeWitnessSpec(4, 2, 2)
    bounds = [em_bound_from_q(spec, q) for q in (0.5, 1.0, 0.5)]
    em_bound_from_q(spec, 1.0, NRVariant.MAXIMAL)
    em_bound_from_q(spec, 0.5, NRVariant.MAXIMAL)
    assert len(built) == 1 and built[0] is spec.r_sigma
    assert bounds[0] == bounds[2] == em_bound_from_q(DickeWitnessSpec(4, 2, 2), 0.5)
    assert len(built) == 2


def test_em_bound_from_q_4_2_2():
    spec = DickeWitnessSpec(4, 2, 2)
    bound = em_bound_from_q(spec, 1.0, NRVariant.MINIMAL)
    assert bound.r_size == 12 and bound.n_r == 4
    assert bound.weak == pytest.approx(2.0 * math.sqrt(1.0 / 12.0), abs=1e-12)
    assert bound.strong == pytest.approx(2.0 * math.sqrt(1.0 / 8.0), abs=1e-12)
    # the maximal variant counts cross-pair cycles too
    hi = em_bound_from_q(spec, 1.0, NRVariant.MAXIMAL)
    assert hi.n_r == 6


def test_delta_modes_agree_at_n3():
    rng = np.random.default_rng(5)
    for _ in range(5):
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        rho = PureState(3, 2, rank_digits(np.arange(8), 3, 2), vec).density()
        q_all = q_witness(DickeWitnessSpec(3, 2, 1, delta_subsets="all"), rho)
        q_single = q_witness(DickeWitnessSpec(3, 2, 1, delta_subsets="singles"), rho)
        assert q_all == pytest.approx(q_single, abs=1e-12)


def test_delta_all_subtracts_more_at_n4():
    rng = np.random.default_rng(6)
    vec = rng.normal(size=81) + 1j * rng.normal(size=81)
    vec /= np.linalg.norm(vec)
    rho = PureState(4, 3, rank_digits(np.arange(81), 4, 3), vec).density()
    q_all = q_witness(DickeWitnessSpec(4, 3, 1, delta_subsets="all"), rho)
    q_single = q_witness(DickeWitnessSpec(4, 3, 1, delta_subsets="singles"), rho)
    assert q_all <= q_single + 1e-12


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        DickeWitnessSpec(3, 2, 3)  # m = n
    with pytest.raises(InvalidInputError):
        DickeWitnessSpec(3, 1, 1)  # d < 2
    with pytest.raises(InvalidInputError):
        DickeWitnessSpec(3, 2, 1, delta_subsets="everything")


def test_q_bisep_spot_check():
    # |0> x (bell pair) is biseparable across {1}: Q must not be positive
    bell = 1 / math.sqrt(2)
    rho = PureState(3, 2, [[0, 0, 0], [0, 1, 1]], [bell, bell]).density()
    for mode in ("all", "singles"):
        assert q_witness(DickeWitnessSpec(3, 2, 1, delta_subsets=mode), rho) <= 1e-9


def test_white_noise_decreases_q_monotonically():
    spec = DickeWitnessSpec(4, 2, 2)
    target = make_dicke_state(4, 2, 2)
    values = [q_witness(spec, white_noise_mix(target, p)) for p in (1.0, 0.8, 0.6, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))


# Q on the white-noise (4,3,2) Dicke line at p = 0.8, per (sigma_ordered, delta)
Q_AT_08 = {
    (True, "all"): 176.0 / 135.0,
    (True, "singles"): 184.0 / 135.0,
    (False, "all"): -24.0 / 135.0,
    (False, "singles"): -20.0 / 135.0,
}


@pytest.mark.parametrize("ordered,delta", sorted(Q_AT_08))
def test_q_on_noisy_view_matches_dense_route(ordered, delta):
    spec = DickeWitnessSpec(4, 3, 2, sigma_ordered=ordered, delta_subsets=delta)
    target = make_dicke_state(4, 3, 2)
    assert q_witness(spec, NoisyPureState(target, 0.8)) == pytest.approx(
        Q_AT_08[(ordered, delta)], abs=1e-12
    )
    for p in (0.0, 0.35, 1.0):
        assert q_witness(spec, NoisyPureState(target, p)) == pytest.approx(
            q_witness(spec, white_noise_mix(target, p)), abs=1e-12
        )
    if ordered:
        want = brentq(lambda p: q_witness(spec, white_noise_mix(target, p)), 0.0, 1.0, xtol=1e-14)
        assert noise_threshold_q(spec, target) == pytest.approx(want, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 5), st.integers(2, 3), st.booleans(), st.sampled_from(["all", "singles"]), st.data()
)
def test_q_matches_direct_oracle(n, d, ordered, delta, data):
    """Q against a recomputation on digit strings, on random dense states."""
    m = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    mat = oracles.random_density(n, d, rng, rank=int(rng.integers(1, 4)))
    spec = DickeWitnessSpec(n, d, m, sigma_ordered=ordered, delta_subsets=delta)
    got = q_witness(spec, DensityMatrix(n, d, mat, validate=False))
    assert got == pytest.approx(oracles.q_value_direct(mat, n, d, m, ordered, delta), abs=1e-12)


# recorded before Q's read list was built from digit arrays: float.hex of Q
# per state ("q"), and a digest of the read list, in order ("reads").  Moving
# one subtraction of ~0.01 within a running sum near 1 rarely changes the
# rounded Q, so the digest is what catches a change of term order.
Q_PINS = json.loads((Path(__file__).parent / "q_pins.json").read_text())


def _pinned_states(n, d, m):
    target = make_dicke_state(n, d, m)
    rng = np.random.default_rng([Q_PINS["seed"], n, d, m])
    dense = DensityMatrix(n, d, oracles.random_density(n, d, rng), validate=False)
    return {"target": target, "noisy-0.7": NoisyPureState(target, 0.7), "dense": dense}


@pytest.mark.parametrize("delta", ["all", "singles"])
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("n,d,m", CALIBRATION)
def test_q_matches_recorded_bits(n, d, m, ordered, delta):
    spec = DickeWitnessSpec(n, d, m, sigma_ordered=ordered, delta_subsets=delta)
    prefix = f"{n},{d},{m}/{'ordered' if ordered else 'unordered'}/{delta}"
    for name, rho in _pinned_states(n, d, m).items():
        assert float.hex(q_witness(spec, rho)) == Q_PINS["q"][f"{prefix}/{name}"], name


@pytest.mark.parametrize("variant", list(NRVariant), ids=["min", "max"])
@pytest.mark.parametrize("n,d,m", CALIBRATION)
def test_em_bound_matches_recorded_bits(n, d, m, variant):
    """EmBound from Q under the default conventions, as recorded when R_sigma
    was still built from MultiIndex/IndexPair objects ("em_bound")."""
    spec = DickeWitnessSpec(n, d, m)
    for name, rho in _pinned_states(n, d, m).items():
        bound = em_bound_from_q(spec, q_witness(spec, rho), variant)
        got = {
            "weak": float.hex(bound.weak),
            "strong": float.hex(bound.strong),
            "r_size": bound.r_size,
            "n_r": bound.n_r,
        }
        assert got == Q_PINS["em_bound"][f"{n},{d},{m}/{variant.value}/{name}"], name


@pytest.mark.parametrize("delta", ["all", "singles"])
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("n,d,m", CALIBRATION)
def test_q_read_order_matches_recorded_digest(n, d, m, ordered, delta):
    """The coherences, their images and the diagonals, in reading order; each
    image pair as (lower, higher) rank, since Q is symmetric in the two."""
    reads = DickeWitnessSpec(n, d, m, sigma_ordered=ordered, delta_subsets=delta).reads
    k, images = len(reads.coherence_at), len(reads.image_at)
    first, second = reads.rows[k : k + images], reads.rows[k + images : k + 2 * images]
    ranks = np.concatenate(
        [reads.rows[:k], np.minimum(first, second), np.maximum(first, second), reads.diagonals]
    )
    cols = np.concatenate([reads.cols[:k], ranks[k:]])
    blob = np.concatenate([ranks, cols, reads.coherence_at, reads.image_at]).astype("<i8")
    key = f"{n},{d},{m}/{'ordered' if ordered else 'unordered'}/{delta}"
    assert hashlib.sha256(blob.tobytes()).hexdigest() == Q_PINS["reads"][key]
