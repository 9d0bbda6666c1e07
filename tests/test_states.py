import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gmebound.errors import InvalidInputError
from gmebound.indices import Bipartition, MultiIndex
from gmebound.states import (
    DensityMatrix,
    NoisyPureState,
    PureState,
    embed_pure,
    load_state_json,
    make_dicke_state,
    make_ghz_state,
    make_isotropic,
    make_singlet4,
    make_w_state,
    partial_trace,
    partial_transpose,
    white_noise_mix,
)


def test_w_state_support():
    w = make_w_state(3)
    assert sorted(str(e) for e in w.amplitudes) == ["001", "010", "100"]
    assert all(abs(a - 1 / math.sqrt(3)) < 1e-15 for a in w.amplitudes.values())


def test_ghz_defaults():
    g = make_ghz_state(3, 3)
    assert sorted(str(e) for e in g.amplitudes) == ["000", "222"]


def test_dicke_state_term_count_and_norm():
    # (d-1) excitation levels, C(n,m) site subsets each
    psi = make_dicke_state(4, 3, 2)
    assert len(psi.amplitudes) == 2 * 6
    vec = psi.to_vector()
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_singlet4_amplitudes():
    s = make_singlet4()
    amp = {str(e): a for e, a in s.amplitudes.items()}
    assert set(amp) == {"0011", "1100", "0101", "0110", "1001", "1010"}
    assert amp["0011"] == pytest.approx(1 / math.sqrt(3))
    assert amp["0101"] == pytest.approx(-0.5 / math.sqrt(3))
    norm = sum(abs(a) ** 2 for a in amp.values())
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_pure_state_rejects_bad_norm():
    with pytest.raises(InvalidInputError):
        PureState(2, 2, {MultiIndex.from_string("00", 2): 0.5})


def test_embed_pure_widens_digits():
    psi = make_ghz_state(2, 2)
    wide = embed_pure(psi, 4)
    assert wide.d == 4
    assert sorted(str(e) for e in wide.amplitudes) == ["00", "11"]


def test_white_noise_mix_trace_and_interpolation():
    w = make_w_state(3)
    rho = white_noise_mix(w, 0.25)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    expect = 0.25 * w.density().matrix + 0.75 * np.eye(8) / 8
    assert np.allclose(rho.matrix, expect, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(2, 3),
    st.integers(0, 2**31),
    st.floats(0.0, 1.0),
)
def test_noisy_view_matches_dense_mixture(n, d, seed, p):
    """The never-materialised view reads the entries of white_noise_mix."""
    rng = np.random.default_rng(seed)
    dim = d**n
    k = int(rng.integers(1, min(dim, 8) + 1))
    ranks = rng.choice(dim, size=k, replace=False)
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps /= np.linalg.norm(amps)
    psi = PureState(
        n, d, {MultiIndex.from_rank(int(r), n, d): complex(a) for r, a in zip(ranks, amps)}
    )
    rows, cols = (g.ravel() for g in np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij"))
    for state, dense in (
        (NoisyPureState(psi, p), white_noise_mix(psi, p).matrix),
        (psi, psi.density().matrix),
    ):
        elements = state.elements(rows, cols).reshape(dim, dim)
        assert np.allclose(elements, dense, rtol=0.0, atol=1e-15)
        # one entry read alone equals the same entry read in bulk, bit for bit
        for r, c in zip(rng.integers(dim, size=4).tolist(), rng.integers(dim, size=4).tolist()):
            assert state.elements(np.array([r]), np.array([c]))[0] == elements[r, c]


@pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
def test_noisy_view_rejects_weight_outside_unit_interval(p):
    with pytest.raises(InvalidInputError):
        NoisyPureState(make_w_state(3), p)


def test_isotropic_is_white_noise_on_max_entangled_pair():
    d = 3
    phi = PureState(2, d, {MultiIndex((j, j), d): 1 / math.sqrt(d) for j in range(d)})
    assert np.allclose(
        make_isotropic(d, 0.37).matrix, white_noise_mix(phi, 0.37).matrix, atol=1e-14
    )


def test_density_matrix_validation():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.2  # not Hermitian
    with pytest.raises(InvalidInputError):
        DensityMatrix(2, 2, mat)
    with pytest.raises(InvalidInputError):
        DensityMatrix(2, 2, np.eye(4, dtype=complex))  # trace 4


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(2, 3), st.data())
def test_partial_trace_matches_dense_oracle(n, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    vec = oracles.random_pure_dense(n, d, rng)
    rho = DensityMatrix(n, d, np.outer(vec, vec.conj()))
    parties = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    g = Bipartition.of(parties, n)
    got = partial_trace(rho, g).matrix
    want = oracles.reduced_density(vec, n, d, frozenset(parties))
    assert np.allclose(got, want, atol=1e-12)


def test_partial_transpose_involution_and_full_transpose():
    rng = np.random.default_rng(7)
    rho = DensityMatrix(2, 3, oracles.random_density(2, 3, rng))
    g1 = Bipartition.of({1}, 2)
    once = partial_transpose(rho, g1)
    twice = partial_transpose(DensityMatrix(2, 3, once, validate=False), g1)
    assert np.allclose(twice, rho.matrix, atol=1e-14)
    # transposing party 1 and then party 2 is the full transpose
    g2 = Bipartition.of({2}, 2)
    composed = partial_transpose(DensityMatrix(2, 3, once, validate=False), g2)
    assert np.allclose(composed, rho.matrix.T, atol=1e-14)


def test_load_state_json_pure_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    payload = {
        "n": 2,
        "d": 2,
        "kind": "pure",
        "amplitudes": [
            {"index": "00", "re": 1 / math.sqrt(2), "im": 0.0},
            {"index": "11", "re": 0.0, "im": 1 / math.sqrt(2)},
        ],
    }
    path.write_text(json.dumps(payload))
    st_loaded = load_state_json(path)
    assert isinstance(st_loaded, PureState)
    assert st_loaded.amplitudes[MultiIndex.from_string("11", 2)] == pytest.approx(
        1j / math.sqrt(2)
    )


def test_load_state_json_mixed_roundtrip(tmp_path):
    path = tmp_path / "mixed.json"
    mat = np.eye(4) / 4
    payload = {
        "n": 2,
        "d": 2,
        "kind": "mixed",
        "matrix": [[[v.real, 0.0] for v in row] for row in mat],
    }
    path.write_text(json.dumps(payload))
    rho = load_state_json(path)
    assert isinstance(rho, DensityMatrix)
    assert np.allclose(rho.matrix, mat, atol=1e-14)


def test_load_state_json_rejects_unknown_kind(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"n": 1, "d": 2, "kind": "wv", "amplitudes": []}))
    with pytest.raises(InvalidInputError):
        load_state_json(path)
