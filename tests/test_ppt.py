import math

import numpy as np
import pytest

import oracles
from gmebound.errors import InvalidInputError
from gmebound.ppt import (
    build_ppt_witness,
    compare_with_witness_bracket,
    enumerate_ghz_pairs,
    ppt_expectation,
)
from gmebound.states import (
    DensityMatrix,
    NoisyPureState,
    make_ghz_state,
    make_singlet4,
    white_noise_mix,
)


def _pair(a: str, b: str) -> np.ndarray:
    return np.array([[int(x) for x in a], [int(x) for x in b]])


def _cut(parties: set[int], n: int) -> np.ndarray:
    return np.array([int(p in parties) for p in range(1, n + 1)])


def test_operator_matrix_001_110_gamma1():
    """The transposed projector has two +1/2 diagonals and one -1/2 coherence."""
    w = build_ppt_witness(_pair("001", "110"), 2, _cut({1}, 3))
    want = np.zeros((8, 8), dtype=complex)
    want[2, 2] = 0.5   # |010><010|
    want[5, 5] = 0.5   # |101><101|
    want[1, 6] = -0.5  # |001><110|
    want[6, 1] = -0.5
    assert np.allclose(w.operator, want, atol=1e-15)


def test_routes_agree_on_random_states():
    rng = np.random.default_rng(21)
    w = build_ppt_witness(_pair("001", "110"), 2, _cut({1}, 3))
    for _ in range(20):
        rho = DensityMatrix(3, 2, oracles.random_density(3, 2, rng))
        assert ppt_expectation(w, rho) == pytest.approx(
            compare_with_witness_bracket(w, rho).omega, abs=1e-12
        )


def test_ghz_omega_is_minus_half():
    rho = make_ghz_state(3, 2).density()
    cmp = compare_with_witness_bracket(build_ppt_witness(_pair("000", "111"), 2, _cut({1}, 3)), rho)
    assert cmp.omega == pytest.approx(-0.5, abs=1e-12)
    assert cmp.minus_w == pytest.approx(-0.5, abs=1e-12)
    assert cmp.dominance


def test_maximally_mixed_values():
    rho = white_noise_mix(make_ghz_state(3, 2), 0.0)
    cmp = compare_with_witness_bracket(build_ppt_witness(_pair("000", "111"), 2, _cut({1}, 3)), rho)
    assert cmp.omega == pytest.approx(0.125, abs=1e-12)
    assert cmp.minus_w == pytest.approx(0.125, abs=1e-12)


def test_dominance_holds_on_seeded_states():
    """-W(rho) <= Omega(rho): the PPT route is never harder to satisfy."""
    rng = np.random.default_rng(23)
    w = build_ppt_witness(_pair("01", "10"), 2, _cut({1}, 2))
    for _ in range(100):
        rho = DensityMatrix(2, 2, oracles.random_density(2, 2, rng))
        cmp = compare_with_witness_bracket(w, rho)
        assert cmp.minus_w <= cmp.omega + 1e-12
        assert cmp.dominance


def test_rejects_non_antipodal_pair():
    with pytest.raises(InvalidInputError, match=r"pair \(001,011\) is not antipodal"):
        build_ppt_witness(_pair("001", "011"), 2, _cut({1}, 3))


@pytest.mark.parametrize("kind", ["pure", "noisy", "dense"])
def test_witness_refuses_a_state_of_another_shape(kind):
    """A 3-party witness read against GHZ n = 4 is refused, not answered with
    zeros from the wrong entries."""
    ghz4 = make_ghz_state(4, 2)
    rho = {"pure": ghz4, "noisy": NoisyPureState(ghz4, 0.7), "dense": white_noise_mix(ghz4, 0.7)}[kind]
    w = build_ppt_witness(_pair("000", "111"), 2, _cut({1}, 3))
    message = r"^witness over \(n=3, d=2\), state over \(n=4, d=2\)$"
    with pytest.raises(InvalidInputError, match=message):
        compare_with_witness_bracket(w, rho)


def test_enumerate_ghz_pairs_counts():
    assert len(enumerate_ghz_pairs(3, 2)) == 4
    assert len(enumerate_ghz_pairs(2, 3)) == 4
    assert len(enumerate_ghz_pairs(3, 3)) == 13
    assert len(enumerate_ghz_pairs(2, 2)) == 2


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3, 4) for d in (2, 3, 4)])
def test_enumerate_ghz_pairs_matches_object_loop_oracle(n, d):
    pairs = enumerate_ghz_pairs(n, d)
    assert (pairs.n, pairs.d) == (n, d)
    assert pairs.as_strings() == [list(p) for p in oracles.ghz_pairs_direct(n, d)]


def test_enumerate_ghz_pairs_are_antipodal():
    for first, second in enumerate_ghz_pairs(3, 3).digits.tolist():
        assert all(a + b == 2 for a, b in zip(first, second))


def test_expectation_via_dense_partial_transpose():
    """Independent route: Tr[rho (|l-><l-|)^T_gamma] from raw numpy."""
    rng = np.random.default_rng(29)
    w = build_ppt_witness(_pair("001", "110"), 2, _cut({1}, 3))
    rho_mat = oracles.random_density(3, 2, rng)

    lam = np.zeros(8, dtype=complex)
    lam[int("101", 2)] = 1 / math.sqrt(2)   # 001 with party 1 swapped
    lam[int("010", 2)] = -1 / math.sqrt(2)  # 110 with party 1 swapped
    proj = np.outer(lam, lam.conj())
    t = proj.reshape((2,) * 6)
    t = np.transpose(t, (3, 1, 2, 0, 4, 5))  # transpose party 1 (axes 0 and 3)
    op = t.reshape(8, 8)

    want = float(np.real(np.trace(rho_mat @ op)))
    got = ppt_expectation(w, DensityMatrix(3, 2, rho_mat))
    assert got == pytest.approx(want, abs=1e-12)


class _CountingSource:
    """An element source that only answers ``elements()``, and counts the calls."""

    def __init__(self, rho):
        self.rho, self.n, self.d, self.gathers = rho, rho.n, rho.d, []

    def elements(self, rows, cols):
        self.gathers.append(len(rows))
        return self.rho.elements(rows, cols)


@pytest.mark.parametrize("kind", ["pure", "noisy", "dense"])
def test_bracket_reads_one_gather_with_scalar_values(kind):
    """The pair's entry and both image diagonals come from one elements() call,
    and Omega and -W equal the values read entry by entry, to the last bit."""
    psi = make_singlet4()
    rho = {"pure": psi, "noisy": NoisyPureState(psi, 0.7), "dense": white_noise_mix(psi, 0.7)}[kind]
    w = build_ppt_witness(_pair("0011", "1100"), 2, _cut({1, 3}, 4))
    img1, img2 = (int(s, 2) for s in oracles._swap_digits("0011", "1100", frozenset({1, 3})))
    counting = _CountingSource(rho)
    got = compare_with_witness_bracket(w, counting)
    assert counting.gathers == [3]

    def entry(row, col):
        return complex(rho.elements(np.array([row]), np.array([col]))[0])

    coherence = entry(int("0011", 2), int("1100", 2))
    diag1, diag2 = entry(img1, img1).real, entry(img2, img2).real
    assert got.omega == 0.5 * (diag1 + diag2) - coherence.real
    assert got.minus_w == math.sqrt(max(diag1, 0.0) * max(diag2, 0.0)) - abs(coherence)
