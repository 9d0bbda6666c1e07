"""Local-operator decompositions and measurement-setting planning."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gmebound.errors import DegenerateSelectionError
from gmebound.indices import parse_index, rank_digits
from gmebound.observables import (
    _alphabet,
    _product,
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
    ("id", "id"): 1.0 / 9.0,
    ("id", "d1"): -1.0 / 6.0,
    ("id", "d2"): 1.0 / (6.0 * math.sqrt(3.0)),
    ("d1", "id"): 1.0 / 6.0,
    ("d1", "d1"): -1.0 / 4.0,
    ("d1", "d2"): 1.0 / (4.0 * math.sqrt(3.0)),
    ("d2", "id"): 1.0 / (6.0 * math.sqrt(3.0)),
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


def test_identity_is_spelled_id_everywhere():
    """decompose_*, plan terms and op_matrix all name the identity slot "id"."""
    for d in (2, 3):
        assert (op_matrix("id", d) == np.eye(d)).all()
    assert ("id", "id") in [labels for _, labels in decompose_diagonal([0, 0], 2)]
    plan = plan_settings(compile_witness(auto_select_R(make_w_state(3)), NRVariant.MINIMAL))
    labels = {lab for el in plan.elements for _, labs in plan.terms_of(el) for lab in labs}
    assert "id" in labels and None not in labels


def test_qubit_ops_are_paulis():
    assert np.allclose(op_matrix("s0:1", 2), [[0, 1], [1, 0]], atol=1e-15)
    assert np.allclose(op_matrix("a0:1", 2), [[0, -1j], [1j, 0]], atol=1e-15)
    assert np.allclose(op_matrix("d1", 2), [[1, 0], [0, -1]], atol=1e-15)


def test_qutrit_diagonal_row_01():
    got = {labs: c for c, labs in decompose_diagonal(parse_index("01", 3, 2), 3)}
    assert set(got) == set(QUTRIT_01_ROW)
    for labs, want in QUTRIT_01_ROW.items():
        assert got[labs] == pytest.approx(want, abs=1e-14), labs


def test_diagonal_row_reassembles_projector():
    """Sum of <labels> with these weights equals rho_{eta,eta} on any state."""
    rng = np.random.default_rng(31)
    terms = decompose_diagonal(parse_index("01", 3, 2), 3)
    for _ in range(10):
        rho = oracles.random_density(2, 3, rng)
        want = rho[int("01", 3), int("01", 3)].real
        got = sum(c * oracles.expectation(labs, rho, 3) for c, labs in terms)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d,strings", [(2, ("01", "10")), (3, ("02", "20")), (3, ("01", "12"))])
def test_offdiagonal_parts_reconstruct_element(d, strings):
    rng = np.random.default_rng(37)
    a, b = strings
    first, second = parse_index(a, d, 2), parse_index(b, d, 2)
    re_terms = decompose_offdiagonal(first, second, d, "re")
    im_terms = decompose_offdiagonal(first, second, d, "im")
    for _ in range(10):
        mat = oracles.random_density(2, d, rng)
        rho = DensityMatrix(2, d, mat)
        element = mat[int(a, d), int(b, d)]
        assert reconstruct(re_terms, rho) == pytest.approx(element.real, abs=1e-12)
        assert reconstruct(im_terms, rho) == pytest.approx(element.imag, abs=1e-12)


def _loop_terms(first, second, d):
    """Every tensor term of |second><first| as a term-by-term product loop."""
    factors = [_site_factor(a, b, d) for a, b in zip(first, second)]
    out = []
    for combo in product(*factors):
        z = 1.0 + 0.0j
        for coeff, _ in combo:
            z *= complex(coeff)
        out.append((z, tuple(lab for _, lab in combo)))
    return out


def _bits(terms):
    return [(float.hex(c), labels) for c, labels in terms]


def _weight_bits(weights):
    return [(c.real.hex(), c.imag.hex()) for c in weights]


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (2, 3)])
def test_kronecker_weights_match_the_product_loop_bit_for_bit(n, d):
    """The Kronecker-built weights are the loop's floats, in the loop's
    order, for one element and for every element of one factor shape in one
    call, and the zero filter drops the same terms."""
    digits = list(product(range(d), repeat=n))
    names = _alphabet(d)
    shapes: dict = {}
    for first, second in product(digits, repeat=2):
        want = _loop_terms(first, second, d)
        shape = tuple(len(_site_factor(a, b, d)) for a, b in zip(first, second))
        shapes.setdefault(shape, []).append((first, second, want))
        z, codes = _product(np.array([first]), np.array([second]), d)
        assert [tuple(names[c] for c in col) for col in codes[:, 0].T.tolist()] == [
            labs for _, labs in want
        ]
        assert _weight_bits(z[0].tolist()) == _weight_bits(c for c, _ in want)
        if first == second:
            got = decompose_diagonal(first, d)
            assert _bits(got) == _bits((c.real, labs) for c, labs in want if c.real != 0.0)
        elif first < second:
            for part, take in (("re", lambda c: c.real), ("im", lambda c: c.imag)):
                got = decompose_offdiagonal(first, second, d, part)
                assert _bits(got) == _bits((take(c), labs) for c, labs in want if take(c) != 0.0)
    for members in shapes.values():
        bra, ket, wants = zip(*members)
        z, codes = _product(np.array(bra), np.array(ket), d)
        per_element = codes.transpose(1, 2, 0).tolist()
        for weights, element_codes, want in zip(z.tolist(), per_element, wants):
            assert _weight_bits(weights) == _weight_bits(c for c, _ in want)
            assert [tuple(names[c] for c in row) for row in element_codes] == [l for _, l in want]


def test_label_codes_order_as_label_text():
    """A label's code is its rank in text order, over all d*d labels."""
    for d in (2, 3, 4, 10):
        assert list(_alphabet(d)) == sorted(_basis_labels(d))


def test_decompositions_past_256_site_labels():
    """At d = 17 a site has 289 labels, more than one byte of code holds;
    the terms still sum to |eta><eta| and to |second><first|."""
    d, eta, first, second = 17, [16, 3], [16, 0], [3, 16]
    projector = sum(c * term_operator(labs, d) for c, labs in decompose_diagonal(eta, d))
    want = np.zeros((d * d, d * d), dtype=complex)
    want[eta[0] * d + eta[1], eta[0] * d + eta[1]] = 1.0
    assert np.allclose(projector, want, atol=1e-12)
    parts = {
        part: sum(c * term_operator(labs, d) for c, labs in decompose_offdiagonal(first, second, d, part))
        for part in ("re", "im")
    }
    want = np.zeros((d * d, d * d), dtype=complex)
    want[second[0] * d + second[1], first[0] * d + first[1]] = 1.0
    assert np.allclose(parts["re"] + 1j * parts["im"], want, atol=1e-12)


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (2, 3)])
def test_term_operator_equals_a_kron_loop_bit_for_bit(n, d):
    """Every label tuple against np.kron."""
    for labels in product(_basis_labels(d), repeat=n):
        want = np.array([[1.0 + 0.0j]])
        for lab in labels:
            want = np.kron(want, op_matrix(lab, d))
        got = term_operator(labels, d)
        assert got.shape == want.shape == (d**n, d**n)
        assert (got.view(np.int64) == want.view(np.int64)).all(), labels


def test_reconstruct_agrees_with_dense_expectations():
    rng = np.random.default_rng(41)
    terms = decompose_offdiagonal(parse_index("001", 2, 3), parse_index("010", 2, 3), 2, "re")
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
        return all(a == "id" or a == b for a, b in zip(labels, setting))

    for el in plan.elements:
        for _, labels in plan.terms_of(el):
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
    r = PairSet.of(rank_digits(np.array([k for p in ranks for k in p]), n, d), n, d)
    try:
        w = compile_witness(r, variant)
    except DegenerateSelectionError:
        return
    plan = plan_settings(w, include_imag=include_imag)
    keys = [labels for el in plan.elements for _, labels in plan.terms_of(el)]
    assert list(plan.settings) == oracles.maximal_label_keys(keys)


def _check_table(plan, w):
    """Each element's rows give its decomposition, and the table holds each
    (coeff, labels) term once, in label order."""
    assert len(set(plan.table)) == len(plan.table)
    assert [labels for _, labels in plan.table] == sorted(labels for _, labels in plan.table)
    digits = {text: parse_index(text, w.d, w.n) for el in plan.elements for text in el.indices}
    for el in plan.elements:
        rows = [digits[text] for text in el.indices]
        if el.kind == "diag":
            want = decompose_diagonal(rows[0], w.d)
        else:
            want = decompose_offdiagonal(*rows, w.d, "re" if el.kind == "offdiag_re" else "im")
        assert plan.terms_of(el) == want, el.indices


@pytest.mark.parametrize("include_imag", [False, True])
def test_plan_rows_give_each_elements_decomposition(include_imag):
    for w in (
        compile_witness(isotropic_pairset(3), NRVariant.MINIMAL),
        compile_witness(auto_select_R(make_w_state(4)), NRVariant.MINIMAL),
    ):
        _check_table(plan_settings(w, include_imag=include_imag), w)


def test_plan_keys_stay_exact_past_int64():
    """At d = 10 a label key over n = 10 sites takes up to 100**10 > 2**63
    values, and terms that differ only past the ninth site must stay apart."""
    r = PairSet.from_strings([["8999999998", "9999999999"]], 10, 10)
    w = compile_witness(r, NRVariant.MINIMAL)
    plan = plan_settings(w)
    assert (plan.element_count, plan.setting_count) == (5, 6)
    assert sum(len(el.terms) for el in plan.elements) == 6912
    _check_table(plan, w)
    keys = [labels for el in plan.elements for _, labels in plan.terms_of(el)]
    assert list(plan.settings) == oracles.maximal_label_keys(keys)
