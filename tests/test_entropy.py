"""Entropy routes: the sparse coefficient formula against dense linear algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gmebound.entropy import gme_measure_pure, linear_entropy_coeff, linear_entropy_trace
from gmebound.errors import InvalidInputError
from gmebound.indices import cut_labels, cut_masks, rank_digits
from gmebound.states import PureState, make_ghz_state, make_singlet4, make_w_state

W_CUT_ENTROPY = 8.0 / 9.0  # every cut of |W_3| reduces to eigenvalues (1/3, 2/3)


def test_w_state_profile_and_measure():
    report = gme_measure_pure(make_w_state(3))
    assert all(v == pytest.approx(W_CUT_ENTROPY, abs=1e-12) for v in report.entropies.values())
    assert report.e_m == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


def test_ghz_measure_is_one():
    report = gme_measure_pure(make_ghz_state(3, 2))
    assert report.e_m == pytest.approx(1.0, abs=1e-12)


def test_product_state_measure_is_zero():
    psi = PureState(3, 2, [[0, 1, 0]], [1.0])
    assert gme_measure_pure(psi).e_m == 0.0


def test_singlet4_minimum_sits_on_the_13_14_cuts():
    report = gme_measure_pure(make_singlet4())
    assert report.entropies["13|24"] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert report.entropies["14|23"] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert report.e_m == pytest.approx(math.sqrt(5.0 / 6.0), abs=1e-12)
    assert cut_labels(4)[report.best] in {"13|24", "14|23"}


def _random_sparse(n, d, size, rng):
    ranks = rng.choice(d**n, size=min(size, d**n), replace=False)
    amps = rng.normal(size=len(ranks)) + 1j * rng.normal(size=len(ranks))
    amps /= np.linalg.norm(amps)
    return PureState(n, d, rank_digits(ranks, n, d), amps)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.integers(2, 8), st.integers(0, 2**31))
def test_coeff_route_matches_trace_route(n, d, size, seed):
    psi = _random_sparse(n, d, size, np.random.default_rng(seed))
    vec = psi.to_vector()
    for g in cut_masks(n):
        a = linear_entropy_coeff(psi, g)
        b = linear_entropy_trace(psi, g)
        want = oracles.linear_entropy_dense(vec, n, d, frozenset((np.flatnonzero(g) + 1).tolist()))
        assert a == pytest.approx(want, abs=1e-12)
        assert b == pytest.approx(want, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 2**31))
@example(n=4, d=2, seed=536870913)  # product across {1}: the oracle's S_L is ~4e-16, not 0
def test_measure_matches_eigenvalue_oracle(n, d, seed):
    psi = _random_sparse(n, d, 6, np.random.default_rng(seed))
    got = gme_measure_pure(psi).e_m
    want = oracles.gme_measure_eigen(psi.to_vector(), n, d)
    # compare S_L = E_m**2: the square root would blow round-off near 0 up to ~1e-8
    assert got**2 == pytest.approx(want**2, abs=1e-12)


def test_trace_route_single_cut_against_dense():
    rng = np.random.default_rng(11)
    psi = _random_sparse(3, 3, 9, rng)
    want = oracles.linear_entropy_dense(psi.to_vector(), 3, 3, frozenset({1, 3}))
    assert linear_entropy_trace(psi, np.array([1, 0, 1])) == pytest.approx(want, abs=1e-12)



def test_unknown_method_is_refused():
    with pytest.raises(InvalidInputError, match=r"^unknown entropy method 'x'$"):
        gme_measure_pure(make_w_state(3), method="x")


@pytest.mark.parametrize("size", [5, 40])
def test_chunked_coeff_route_matches_unchunked(monkeypatch, size):
    """Cut chunks (support 5) and row chunks carrying the running total
    (support 40) give the same floats, and so does one cut at a time."""
    import gmebound.indices as indices_module

    psi = _random_sparse(6, 2, size, np.random.default_rng(5))
    whole = gme_measure_pure(psi).entropies
    assert [linear_entropy_coeff(psi, g) for g in cut_masks(6)] == list(whole.values())
    monkeypatch.setattr(indices_module, "CHUNK_ENTRIES", 100)
    assert gme_measure_pure(psi).entropies == whole


def _unchunked_trace_entropy(psi: PureState, gamma: np.ndarray) -> float:
    """The trace route with the whole (a, b, a) product array at once."""
    keep = np.flatnonzero(gamma).tolist()
    drop = np.flatnonzero(np.asarray(gamma) == 0).tolist()
    psi_matrix = psi.to_vector().reshape((psi.d,) * psi.n).transpose(keep + drop)
    psi_matrix = psi_matrix.reshape(psi.d ** len(keep), -1)
    products = psi_matrix[:, :, None] * np.ascontiguousarray(psi_matrix.conj().T)[None, :, :]
    reduced = np.einsum("ikj->ij", products)
    return 2.0 * (1.0 - float((reduced.real**2 + reduced.imag**2).sum()))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    d=st.integers(2, 3),
    seed=st.integers(0, 2**31),
    chunk=st.sampled_from([1, 7, 64, 1 << 14]),
)
@example(n=6, d=3, seed=0, chunk=1 << 14)
def test_chunked_trace_route_matches_unchunked_bits(n, d, seed, chunk):
    """Rows of the reduced matrix formed a block at a time keep each entry's
    sequential sum over k, so every cut's entropy has the same bits."""
    import gmebound.indices as indices_module

    rng = np.random.default_rng(seed)
    psi = _random_sparse(n, d, d**n, rng)
    states = [psi, make_w_state(n), make_ghz_state(n, d)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indices_module, "CHUNK_ENTRIES", chunk)
        for state in states:
            for g in cut_masks(n):
                assert linear_entropy_trace(state, g).hex() == _unchunked_trace_entropy(state, g).hex()
