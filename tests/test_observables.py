"""Local-operator decompositions and measurement-setting planning."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gmebound.errors import DegenerateSelectionError
from gmebound.indices import IndexPair, MultiIndex
from gmebound.observables import (
    _product_terms,
    _site_factor,
    decompose_diagonal,
    decompose_offdiagonal,
    op_matrix,
    plan_settings,
    reconstruct,
    term_operator,
)
from gmebound.states import DensityMatrix, make_w_state
from gmebound.witness import (
    NRVariant,
    PairSet,
    auto_select_R,
    compile_witness,
    isotropic_pairset,
)

# diagonal |0><0| x |1><1| over the product-diagonal basis, exact values
QUTRIT_01_ROW = {
    (None, None): 1.0 / 9.0,
    (None, "d1"): -1.0 / 6.0,
    (None, "d2"): 1.0 / (6.0 * math.sqrt(3.0)),
    ("d1", None): 1.0 / 6.0,
    ("d1", "d1"): -1.0 / 4.0,
    ("d1", "d2"): 1.0 / (4.0 * math.sqrt(3.0)),
    ("d2", None): 1.0 / (6.0 * math.sqrt(3.0)),
    ("d2", "d1"): -1.0 / (4.0 * math.sqrt(3.0)),
    ("d2", "d2"): 1.0 / 12.0,
}


def _basis_labels(d):
    """The d**2 labels: identity, all s/a pairs, the d-1 diagonal ones."""
    pairs = [f"{j}:{k}" for j in range(d) for k in range(j + 1, d)]
    return ["id"] + [f"s{p}" for p in pairs] + [f"a{p}" for p in pairs] + [
        f"d{l}" for l in range(1, d)
    ]


def test_basis_size_and_orthogonality():
    for d in (2, 3, 4):
        labels = _basis_labels(d)
        assert len(labels) == d * d
        mats = [op_matrix(lab, d) for lab in labels]
        for i, a in enumerate(mats):
            assert np.allclose(a, a.conj().T, atol=1e-14)
            for j, b in enumerate(mats):
                tr = np.trace(a @ b)
                if i == j:
                    assert tr.real > 0
                else:
                    assert abs(tr) < 1e-13


def test_qubit_ops_are_paulis():
    assert np.allclose(op_matrix("s0:1", 2), [[0, 1], [1, 0]], atol=1e-15)
    assert np.allclose(op_matrix("a0:1", 2), [[0, -1j], [1j, 0]], atol=1e-15)
    assert np.allclose(op_matrix("d1", 2), [[1, 0], [0, -1]], atol=1e-15)


def test_qutrit_diagonal_row_01():
    eta = MultiIndex.from_string("01", 3)
    got = {labs: c for c, labs in decompose_diagonal(eta)}
    assert set(got) == set(QUTRIT_01_ROW)
    for labs, want in QUTRIT_01_ROW.items():
        assert got[labs] == pytest.approx(want, abs=1e-14), labs


def test_diagonal_row_reassembles_projector():
    """Sum of <labels> with these weights equals rho_{eta,eta} on any state."""
    rng = np.random.default_rng(31)
    eta = MultiIndex.from_string("01", 3)
    terms = decompose_diagonal(eta)
    for _ in range(10):
        rho = oracles.random_density(2, 3, rng)
        want = rho[eta.rank, eta.rank].real
        got = sum(c * oracles.expectation(labs, rho, 3) for c, labs in terms)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d,strings", [(2, ("01", "10")), (3, ("02", "20")), (3, ("01", "12"))])
def test_offdiagonal_parts_reconstruct_element(d, strings):
    rng = np.random.default_rng(37)
    a, b = strings
    pair = IndexPair.of(MultiIndex.from_string(a, d), MultiIndex.from_string(b, d))
    re_terms = decompose_offdiagonal(pair, "re")
    im_terms = decompose_offdiagonal(pair, "im")
    for _ in range(10):
        mat = oracles.random_density(2, d, rng)
        rho = DensityMatrix(2, d, mat)
        element = mat[pair.first.rank, pair.second.rank]
        assert reconstruct(re_terms, rho) == pytest.approx(element.real, abs=1e-12)
        assert reconstruct(im_terms, rho) == pytest.approx(element.imag, abs=1e-12)


def _loop_terms(first, second, d):
    """Every tensor term of |second><first| as a term-by-term product loop."""
    factors = [list(zip(*_site_factor(a, b, d))) for a, b in zip(first, second)]
    out = []
    for combo in product(*factors):
        z = 1.0 + 0.0j
        for coeff, _ in combo:
            z *= complex(coeff)
        out.append((z, tuple(lab for _, lab in combo)))
    return out


def _bits(terms):
    return [(float.hex(c), labels) for c, labels in terms]


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (2, 3)])
def test_kronecker_weights_match_the_product_loop_bit_for_bit(n, d):
    """The Kronecker-built weights are the loop's floats, in the loop's
    order, and the zero filter drops the same terms."""
    digits = list(product(range(d), repeat=n))
    for first, second in product(digits, repeat=2):
        want = _loop_terms(first, second, d)
        z, labels = _product_terms(first, second, d)
        assert labels == [labs for _, labs in want]
        assert [(c.real.hex(), c.imag.hex()) for c in z.tolist()] == [
            (c.real.hex(), c.imag.hex()) for c, _ in want
        ]
        if first == second:
            got = decompose_diagonal(MultiIndex(first, d))
            assert _bits(got) == _bits((c.real, labs) for c, labs in want if c.real != 0.0)
        elif first < second:
            pair = IndexPair(MultiIndex(first, d), MultiIndex(second, d))
            for part, take in (("re", lambda c: c.real), ("im", lambda c: c.imag)):
                got = decompose_offdiagonal(pair, part)
                assert _bits(got) == _bits((take(c), labs) for c, labs in want if take(c) != 0.0)


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (2, 3)])
def test_term_operator_equals_a_kron_loop_bit_for_bit(n, d):
    """Every label tuple, the identity slot both ways, against np.kron."""
    for labels in product([None, *_basis_labels(d)], repeat=n):
        want = np.array([[1.0 + 0.0j]])
        for lab in labels:
            want = np.kron(want, op_matrix(lab, d))
        got = term_operator(labels, d)
        assert got.shape == want.shape == (d**n, d**n)
        assert (got.view(np.int64) == want.view(np.int64)).all(), labels


def test_reconstruct_agrees_with_dense_expectations():
    rng = np.random.default_rng(41)
    pair = IndexPair.of(MultiIndex.from_string("001", 2), MultiIndex.from_string("010", 2))
    terms = decompose_offdiagonal(pair, "re")
    mat = oracles.random_density(3, 2, rng)
    rho = DensityMatrix(3, 2, mat)
    want = sum(c * oracles.expectation(labs, mat, 2) for c, labs in terms)
    assert reconstruct(terms, rho) == pytest.approx(want, abs=1e-12)


def test_qutrit_isotropic_plan_counts():
    w = compile_witness(isotropic_pairset(3), NRVariant.MINIMAL)
    plan = plan_settings(w)
    assert plan.element_count == 9
    assert plan.setting_count == 10


def test_w_witness_plan_counts():
    w = compile_witness(auto_select_R(make_w_state(3)), NRVariant.MINIMAL)
    plan = plan_settings(w)
    assert plan.element_count == 10
    assert plan.setting_count == 7


def test_every_element_folds_into_a_setting():
    w = compile_witness(auto_select_R(make_w_state(3)), NRVariant.MINIMAL)
    plan = plan_settings(w)

    def fits(labels, setting):
        return all(a is None or a == b for a, b in zip(labels, setting))

    for el in plan.elements:
        for _, labels in el.terms:
            assert any(fits(labels, s) for s in plan.settings), (el.kind, labels)


def test_include_imag_doubles_offdiagonal_elements():
    w = compile_witness(isotropic_pairset(3), NRVariant.MINIMAL)
    base = plan_settings(w)
    full = plan_settings(w, include_imag=True)
    offdiag = sum(1 for el in base.elements if el.kind == "offdiag_re")
    assert full.element_count == base.element_count + offdiag


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 4),
    st.integers(1, 6),
    st.integers(0, 2**31),
    st.sampled_from(list(NRVariant)),
    st.booleans(),
)
def test_settings_are_the_maximal_label_keys(n, d, size, seed, variant, include_imag):
    """The identity-free keys are exactly what the all-pairs fold keeps."""
    rng = np.random.default_rng(seed)
    ranks = {tuple(sorted(rng.choice(d**n, size=2, replace=False))) for _ in range(size)}
    r = PairSet.of([[MultiIndex.from_rank(int(k), n, d).digits for k in p] for p in ranks], n, d)
    try:
        w = compile_witness(r, variant)
    except DegenerateSelectionError:
        return
    plan = plan_settings(w, include_imag=include_imag)
    keys = [labels for el in plan.elements for _, labels in el.terms]
    assert list(plan.settings) == oracles.maximal_label_keys(keys)
