import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gmebound.entropy import linear_entropy_coeff, linear_entropy_trace
from gmebound.errors import InvalidInputError
from gmebound.indices import digit_strings, rank_digits
from gmebound.ppt import build_ppt_witness
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


def _support(psi: PureState) -> list[str]:
    return digit_strings(psi.ranks, psi.n, psi.d)


def test_w_state_support():
    w = make_w_state(3)
    assert _support(w) == ["001", "010", "100"]
    assert all(abs(a - 1 / math.sqrt(3)) < 1e-15 for a in w.amplitudes)


def test_ghz_defaults():
    g = make_ghz_state(3, 3)
    assert _support(g) == ["000", "222"]


def test_dicke_state_term_count_and_norm():
    # (d-1) excitation levels, C(n,m) site subsets each
    psi = make_dicke_state(4, 3, 2)
    assert len(psi.amplitudes) == 2 * 6
    vec = psi.to_vector()
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_singlet4_amplitudes():
    s = make_singlet4()
    amp = dict(zip(_support(s), s.amplitudes.tolist()))
    assert set(amp) == {"0011", "1100", "0101", "0110", "1001", "1010"}
    assert amp["0011"] == pytest.approx(1 / math.sqrt(3))
    assert amp["0101"] == pytest.approx(-0.5 / math.sqrt(3))
    norm = sum(abs(a) ** 2 for a in amp.values())
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_pure_state_rejects_bad_norm():
    with pytest.raises(InvalidInputError):
        PureState(2, 2, [[0, 0]], [0.5])


HALF = 0.5**0.5


@pytest.mark.parametrize(
    "digits, amplitudes, message",
    [
        ([[0, 1], [0, 1]], [HALF, HALF], "duplicate amplitude index 01"),
        ([[0, 2]], [1.0], "digits (0, 2) out of range for d=2"),
        ([[0, -1]], [1.0], "digits (0, -1) out of range for d=2"),
        ([[0, 0], [1, 1]], [1.0], "do not fit n=2"),
        ([[0, 0, 0]], [1.0], "do not fit n=2"),
        ([[0, 0], [1, 1]], [HALF, float("nan")], "amplitude of 11 is not finite: (nan+0j)"),
        ([[0, 0]], [0.5], "state not normalized: |psi|^2 = 0.25"),
    ],
    ids=["repeated-row", "digit-too-large", "negative-digit", "length-mismatch", "wrong-n",
         "nan-amplitude", "quarter-norm"],
)
def test_pure_state_refuses_malformed_arrays(digits, amplitudes, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        PureState(2, 2, digits, amplitudes)


def test_pure_state_keeps_rows_in_rank_order():
    psi = PureState(2, 2, [[1, 1], [0, 1], [1, 0]], [0.6, 0.0, 0.8j])
    assert psi.digits.tolist() == [[0, 1], [1, 0], [1, 1]]
    assert psi.amplitudes.tolist() == [0.0, 0.8j, 0.6]
    assert psi.ranks.tolist() == [1, 2, 3]
    assert _support(psi) == ["01", "10", "11"]


def test_embed_pure_widens_digits():
    psi = make_ghz_state(2, 2)
    wide = embed_pure(psi, 4)
    assert wide.d == 4
    assert _support(wide) == ["00", "11"]


def test_embed_pure_refuses_a_smaller_d():
    with pytest.raises(InvalidInputError, match=r"^cannot embed d=3 into smaller d=2$"):
        embed_pure(make_ghz_state(2, 3), 2)


def test_white_noise_mix_refuses_a_weight_outside_0_1():
    with pytest.raises(InvalidInputError, match=r"^mixing weight p=1\.5 outside \[0, 1\]$"):
        white_noise_mix(make_w_state(3), 1.5)


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
    psi = PureState(n, d, rank_digits(ranks, n, d), amps)
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
    phi = PureState(2, d, [[j, j] for j in range(d)], [1 / math.sqrt(d)] * d)
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
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 3], mat[3, 0] = 0.2, 0.2 - 1.5e-6  # off by 1.5e6 times the tolerance
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        DensityMatrix(2, 2, mat)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): INF},  # passes an allclose Hermiticity test; only the trace is wrong
        {(0, 0): INF, (1, 1): -INF},
        {(0, 1): INF, (1, 0): INF},
        {(0, 1): complex(0, INF), (1, 0): complex(0, -INF)},
        {(0, 1): NAN, (1, 0): NAN},
        {(2, 2): NAN},
        {(0, 0): complex(0.25, INF)},
    ],
    ids=["inf-diagonal", "inf-minus-inf", "inf-pair", "imag-inf-pair", "nan-pair",
         "nan-diagonal", "imag-inf-diagonal"],
)
def test_density_matrix_refuses_non_finite_entries(entries):
    """Each is refused before the trace or positivity is looked at, with no
    warning and no linear-algebra error."""
    mat = np.eye(4, dtype=complex) / 4
    for at, value in entries.items():
        mat[at] = value
    with pytest.raises(InvalidInputError, match="^density matrix has a non-finite entry$"):
        DensityMatrix(2, 2, mat)


def _planted(n: int, d: int, eigmin: float, rng: np.random.Generator, spread: float = 1.0) -> np.ndarray:
    """An exactly Hermitian trace-1 matrix whose smallest eigenvalue is
    ``eigmin``, in an eigenbasis that is the identity at ``spread`` 0 and a
    random unitary at ``spread`` 1."""
    dim = d**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(np.eye(dim) + spread * g)
    rest = rng.uniform(0.1, 1.0, dim - 1)
    ev = np.concatenate([[eigmin], rest / rest.sum() * (1.0 - eigmin)])
    m = (q * ev) @ q.conj().T
    return (m + m.conj().T) / 2


def test_density_matrix_refuses_a_negative_eigenvalue_and_names_it():
    m = _planted(2, 2, -2e-10, np.random.default_rng(3))
    with pytest.raises(InvalidInputError, match="negative eigenvalue") as info:
        DensityMatrix(2, 2, m)
    named = float(str(info.value).rsplit(" ", 1)[1])
    assert named == pytest.approx(-2e-10, abs=1e-14)


@pytest.mark.parametrize("eigmin", [-5e-11, 0.0, 1e-3])
@pytest.mark.parametrize("spread", [0.0, 1.0])
def test_density_matrix_accepts_eigenvalues_within_tolerance(eigmin, spread):
    m = _planted(2, 3, eigmin, np.random.default_rng(5), spread)
    DensityMatrix(2, 3, m)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    d=st.integers(2, 3),
    eigmin=st.floats(-1e-9, 1e-9),
    spread=st.sampled_from([0.0, 1e-3, 1.0]),
    seed=st.integers(0, 2**31),
)
def test_positivity_verdict_matches_eigvalsh_oracle(n, d, eigmin, spread, seed):
    m = _planted(n, d, eigmin, np.random.default_rng(seed), spread)
    try:
        DensityMatrix(n, d, m)
    except InvalidInputError as exc:
        assert "negative eigenvalue" in str(exc)
        accepted = False
    else:
        accepted = True
    assert accepted == oracles.density_matrix_verdict(m)


def test_eigvalsh_runs_only_where_gershgorin_does_not_accept(monkeypatch, tmp_path):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    n, p, coherence = 4, 0.8, 0.4 * complex(math.cos(0.3), math.sin(0.3))
    rows = [[[((1 - p) / 16 + (p / 2 if i in (5, 10) else 0.0)) if i == j else 0.0, 0.0]
             for j in range(16)] for i in range(16)]
    rows[5][10], rows[10][5] = [coherence.real, -coherence.imag], [coherence.real, coherence.imag]
    path = tmp_path / "noisy_ghz.json"
    path.write_text(json.dumps({"n": n, "d": 2, "kind": "mixed", "matrix": rows}))
    load_state_json(path)
    DensityMatrix(2, 2, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))  # floor exactly 0
    assert calls == []
    DensityMatrix(3, 2, make_w_state(3).density().matrix)  # Gershgorin fails, eigvalsh accepts
    assert calls == [(8, 8)]
    with pytest.raises(InvalidInputError, match="negative eigenvalue"):
        DensityMatrix(2, 2, _planted(2, 2, -2e-10, np.random.default_rng(3)))
    assert calls == [(8, 8), (4, 4)]


def _whole_matrix_floor(m: np.ndarray) -> float:
    """The Gershgorin floor of the lower triangle over the whole matrix at once."""
    lower = np.tril(np.abs(m), -1)
    return float((m.diagonal().real - lower.sum(axis=1) - lower.sum(axis=0)).min())


def _whole_matrix_refusal(m: np.ndarray) -> str | None:
    """DensityMatrix's checks, each over the whole matrix at once: the
    refusal's text, or None for a density matrix."""
    with np.errstate(invalid="ignore"):
        spread = np.abs(m - m.conj().T).max()
    if not spread <= 1e-12:
        finite = np.isfinite(m).all()
        return "density matrix is not Hermitian" if finite else "density matrix has a non-finite entry"
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-12:
        return f"density matrix has trace {tr!r}, expected 1"
    if _whole_matrix_floor(m) < -5e-11:
        eigmin = float(np.linalg.eigvalsh(m).min())
        if eigmin < -1e-10:
            return f"density matrix has negative eigenvalue {eigmin!r}"
    return None


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from([(1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (5, 2), (3, 3), (2, 7), (5, 3), (8, 2)]),
    rows=st.one_of(st.integers(1, 12), st.just(None)),
    eigmin=st.sampled_from([-1e-3, -2e-10, 0.0, 1e-3]),
    fault=st.sampled_from(["none", "nan", "inf", "-inf", "imag-inf", "nan-pair", "inf-pair",
                           "non-hermitian", "trace", "indefinite"]),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_row_block_checks_match_whole_matrix_checks(shape, rows, eigmin, fault, seed, data):
    """Blocks of ``rows`` rows (the default size when None), D below, equal
    to and not a multiple of the block: the same refusal or acceptance as
    the checks over the whole matrix, and a Gershgorin floor with the same
    bits, a NaN anywhere included."""
    import gmebound.indices as indices_module
    from gmebound.states import _gershgorin_floor

    n, d = shape
    dim = d**n
    m = _planted(n, d, eigmin, np.random.default_rng(seed), data.draw(st.sampled_from([0.0, 1.0])))
    block = rows or max(1, indices_module.CHUNK_ENTRIES // dim)
    # a row in the first, a middle or the last block, and a column anywhere
    i = data.draw(st.sampled_from(sorted({0, min(block, dim - 1), dim // 2, dim - 1})))
    j = data.draw(st.sampled_from(sorted({0, i, dim // 2, dim - 1})))
    bad = {"nan": NAN, "inf": INF, "-inf": -INF, "imag-inf": complex(0.0, INF)}
    if fault in bad:
        m[i, j] = bad[fault]
    elif fault in ("nan-pair", "inf-pair"):
        m[i, j] = m[j, i] = NAN if fault == "nan-pair" else INF
    elif fault == "non-hermitian":
        m[i, j] += 1e-9 if i != j else 1e-9j
    elif fault == "trace":
        m = m * (1 + 1e-9)
    elif fault == "indefinite":  # the trace kept, the smallest eigenvalues lowered
        m = m - np.eye(dim) * 1e-3
        m[0, 0] += dim * 1e-3
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(indices_module, "CHUNK_ENTRIES", rows * dim)
        try:
            DensityMatrix(n, d, m)
            refusal = None
        except InvalidInputError as exc:
            refusal = str(exc)
        floor = _gershgorin_floor(m)
    assert refusal == _whole_matrix_refusal(m)
    want = _whole_matrix_floor(m)
    assert floor.hex() == want.hex() or (math.isnan(floor) and math.isnan(want))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(2, 3), st.data())
def test_partial_trace_matches_dense_oracle(n, d, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    vec = oracles.random_pure_dense(n, d, rng)
    rho = DensityMatrix(n, d, np.outer(vec, vec.conj()))
    parties = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    g = np.array([int(p in parties) for p in range(1, n + 1)])
    got = partial_trace(rho, g).matrix
    want = oracles.reduced_density(vec, n, d, frozenset(parties))
    assert np.allclose(got, want, atol=1e-12)


def test_partial_transpose_involution_and_full_transpose():
    rng = np.random.default_rng(7)
    rho = DensityMatrix(2, 3, oracles.random_density(2, 3, rng))
    g1 = np.array([1, 0])
    once = partial_transpose(rho, g1)
    twice = partial_transpose(DensityMatrix(2, 3, once, validate=False), g1)
    assert np.allclose(twice, rho.matrix, atol=1e-14)
    # transposing party 1 and then party 2 is the full transpose
    g2 = np.array([0, 1])
    composed = partial_transpose(DensityMatrix(2, 3, once, validate=False), g2)
    assert np.allclose(composed, rho.matrix.T, atol=1e-14)


_GHZ3 = make_ghz_state(3, 2)
_CUT_TAKERS = {
    "partial_trace": lambda g: partial_trace(_GHZ3.density(), g),
    "partial_transpose": lambda g: partial_transpose(_GHZ3.density(), g),
    "linear_entropy_trace": lambda g: linear_entropy_trace(_GHZ3, g),
    "linear_entropy_coeff": lambda g: linear_entropy_coeff(_GHZ3, g),
    "build_ppt_witness": lambda g: build_ppt_witness(np.array([[0, 0, 0], [1, 1, 1]]), 2, g),
}


@pytest.mark.parametrize("name", sorted(_CUT_TAKERS))
@pytest.mark.parametrize("mask", [[1, 0], [1, 0, 0, 1]], ids=["short", "long"])
def test_cut_mask_of_the_wrong_length_is_refused(name, mask):
    with pytest.raises(InvalidInputError, match=rf"^gamma over n={len(mask)}, (state|pair) over n=3$"):
        _CUT_TAKERS[name](np.array(mask))


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
    assert dict(zip(_support(st_loaded), st_loaded.amplitudes))["11"] == pytest.approx(
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


# ---------------------------------------------------------------------------
# mixed-state files: the byte parser against json.loads and the strict rules

ZERO_SPELLINGS = ["0", "-0", "0.0", "-0.0", "0e0", "-0E+5", "0.000e-3"]
SPACES = st.sampled_from(["", " ", "\t", "\n", "\r\n", " \n\t "])
NUMBER_FORMATS = [repr, "{:.16e}".format, "{:.16E}".format, "{:.17g}".format]


@st.composite
def mixed_texts(draw, zeros=ZERO_SPELLINGS, kinds=("zero", "tiny", "value"), most_qubits=2):
    """A density-matrix file: probabilities on the diagonal, exact Hermitian
    pairs off it (small enough to keep it positive), numbers spelled as ints,
    exponents, -0, 5e-324 or 17 digits, and whitespace between any tokens.
    Zeros are spelled from ``zeros``; each pair off the diagonal is of a kind
    drawn from ``kinds``; n is at most ``most_qubits``."""
    n = draw(st.integers(1, most_qubits))
    dim = 2**n
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=dim, max_size=dim))
    probs = [w / sum(weights) for w in weights]

    def spell(x):
        return draw(st.sampled_from(NUMBER_FORMATS))(x)

    def zero():
        return draw(st.sampled_from(zeros))

    entries = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        entries[i][i] = (spell(probs[i]), zero())
        for j in range(i + 1, dim):
            kind = draw(st.sampled_from(kinds))
            if kind == "zero":
                entries[i][j] = entries[j][i] = (zero(), zero())
                continue
            if kind == "tiny":
                re, im = draw(st.sampled_from([5e-324, -5e-324, 0.0, -0.0])), 5e-324
            else:
                scale = math.sqrt(probs[i] * probs[j]) / (2 * dim)
                re, im = (draw(st.floats(-1.0, 1.0)) * scale for _ in range(2))
            entries[i][j] = (spell(re), spell(im))
            entries[j][i] = (spell(re), spell(-im))

    def sp():
        return draw(SPACES)

    rows = [
        f"[{sp()}" + f"{sp()},{sp()}".join(f"[{sp()}{a}{sp()},{sp()}{b}{sp()}]" for a, b in row) + f"{sp()}]"
        for row in entries
    ]
    fields = {"n": str(n), "d": "2", "kind": '"mixed"', "matrix": f"[{sp()}" + f",{sp()}".join(rows) + f"{sp()}]"}
    keys = draw(st.permutations(list(fields)))
    return "{" + f",{sp()}".join(f'"{key}":{sp()}{fields[key]}' for key in keys) + f"{sp()}}}"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(text=mixed_texts())
def test_mixed_file_matches_oracle_bits(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(text)
    assert _same_bits(load_state_json(path).matrix, oracles.mixed_matrix_oracle(text))


MUTATION_BYTES = '[],.-+eE0 "tnNI'


def _mutate(text: str, data) -> str:
    """``text`` with one byte substituted, inserted or deleted: among others
    "0 .0", "0.0 0.0", "00.0", "0.", ".0" and "-0.0" from "0.0, 0.0"."""
    pos = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(["substitute", "insert", "delete"]))
    new = "" if edit == "delete" else data.draw(st.sampled_from(MUTATION_BYTES))
    return text[:pos] + new + text[pos + (edit != "insert") :]


def _assert_oracles_verdict(path, text: str) -> None:
    """A file the oracle reads (and whose matrix is a density matrix) loads
    to the same bits; every other file is refused with InvalidInputError."""
    try:
        want = oracles.mixed_matrix_oracle(text)
    except ValueError:
        want = None
    if want is None or not oracles.density_matrix_verdict(want):
        with pytest.raises(InvalidInputError):
            load_state_json(path)
    else:
        assert _same_bits(load_state_json(path).matrix, want)


@settings(max_examples=400, deadline=None)
@given(text=mixed_texts(), data=st.data())
def test_single_byte_mutations_get_the_oracles_verdict(tmp_path_factory, text, data):
    """One byte substituted, inserted or deleted: the oracle's bits or its refusal."""
    mutated = _mutate(text, data)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(mutated)
    _assert_oracles_verdict(path, mutated)


@settings(max_examples=300, deadline=None)
@given(
    text=mixed_texts(
        zeros=["0.0"] * 48 + ["0"] * 24 + ["-0.0", "-0"], kinds=("zero",) * 31 + ("value",), most_qubits=3
    ),
    data=st.data(),
)
def test_zero_tokens_in_short_slices_get_the_oracles_verdict(tmp_path_factory, text, data):
    """Files mostly of the zero tokens "0.0" and "0" (and "-0.0" and "-0",
    which json reads, -0.0 keeping its sign), walked in slices of 1 to 40
    bytes or of up to the whole matrix, so that a slice holds only zero
    tokens, only other numbers or both, and maybe one byte edit: the
    oracle's bits or its refusal."""
    import gmebound.states as states_module

    if data.draw(st.booleans()):
        text = _mutate(text, data)
    path = tmp_path_factory.getbasetemp() / "zeros.json"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states_module, "_SLICE_BYTES", data.draw(st.integers(1, 40) | st.integers(41, 3000)))
        _assert_oracles_verdict(path, text)


@pytest.mark.parametrize(
    "spelling", ["000", "0-0", "0+0", "0e0", "0E0", "00", "0.", ".0", "0.00", "00.0", "-0.0", "-0", "0..0"]
)
def test_spellings_near_a_zero_token_get_the_oracles_verdict(tmp_path, spelling):
    """A number a byte away from "0.0" or "0" among the zero tokens of a
    file whose other numbers json does not read: the oracle's bits (-0.0
    keeping its sign) or its refusal."""
    text = _mixed_text({(1, 2): f"[{spelling}, 0.0]"})
    path = tmp_path / "state.json"
    path.write_text(text)
    _assert_oracles_verdict(path, text)


def test_zero_tokens_are_not_read_by_json(tmp_path, monkeypatch):
    """Of a dense GHZ n = 6 file json reads only the numbers that are not
    spelled "0.0": the four 0.5 on the corners of the matrix."""
    import gmebound.states as states_module

    path = tmp_path / "ghz6.json"
    path.write_text(_dense_ghz_text(6))
    want = load_state_json(path).matrix
    read = []
    loads = states_module.json.loads

    def counted(text, **kwargs):
        value = loads(text, **kwargs)
        if isinstance(value, list):
            read.extend(value)
        return value

    monkeypatch.setattr(states_module.json, "loads", counted)
    assert _same_bits(load_state_json(path).matrix, want)
    assert read == [0.5] * 4


@pytest.mark.parametrize(
    "entry, problem",
    [
        ("[0.25, 0.0, 7]", "is not [re, im] with two JSON numbers"),
        ("[0.25]", "is not [re, im] with two JSON numbers"),
        ("[true, false]", "is not [re, im] with two JSON numbers"),
        ('["0.25", 0.0]', "is not [re, im] with two JSON numbers"),
        ("[0.25,] 0.0", "is not [re, im] with two JSON numbers"),
        ("0.25 [, 0.0]", "is not [re, im] with two JSON numbers"),
        ("[NaN, 0.0]", "is not a finite number"),
        ("[0.25, Infinity]", "is not a finite number"),
        ("[0.25, -Infinity]", "is not a finite number"),
        ("[1e400, 0.0]", "is not a finite number"),
        ("[" + "9" * 400 + ", 0.0]", "is not a finite number"),
        ("[" + "9" * 5000 + ", 0.0]", "is not a finite number"),
    ],
)
def test_mixed_file_names_the_bad_entry(tmp_path, entry, problem):
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[2][2] = "ENTRY"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "kind": "mixed", "matrix": rows}).replace('"ENTRY"', entry))
    with pytest.raises(InvalidInputError, match=rf"row 2, column 2 {re.escape(problem)}"):
        load_state_json(path)


@pytest.mark.parametrize(
    "number",
    ["1.", ".5", "+1", "01", "-01", "1e", "1e+", "1.5.5", "1e5e5", "1e5.5", "0x10", "1 2", "1_0", "- 1"],
)
def test_mixed_file_refuses_what_json_refuses(tmp_path, number):
    """``np.fromstring`` reads all of these; JSON reads none."""
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n": 1, "d": 2, "kind": "mixed", "matrix": [[[%s, 0], [0, 0]], [[0, 0], [0, 0]]]}' % number
    )
    with pytest.raises(InvalidInputError, match="row 0, column 0"):
        load_state_json(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"n": 1, "d": 2, "kind": "mixed", "matrix": 5}', '"matrix" is not an array'),
        (b'{"n": 1, "d": 2, "kind": "mixed", "matrix": [[[1, 0]]]}', "is not 2 rows of 2"),
        (b'{"n": 1, "d": 2, "d": 2, "kind": "mixed", "matrix": [[[1, 0]]]}', "repeats the key 'd'"),
        (b'{"n": 1, "d": 2, "kind": "pure", "amplitudes": []} \xff', "is not valid JSON"),
        (b'{"n": 3000000, "d": 3, "kind": "mixed", "matrix": [[[1, 0]]]}', "has no 3**3000000 rows"),
        (b'{"n": ' + b"1" * 5000 + b', "d": 2, "kind": "mixed", "matrix": [[[1, 0]]]}', "is not valid JSON"),
        (b'{"n": 1, "d": 2, "kind": "pure", "amplitudes": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "is not valid JSON"),
        (b'{"n": 1, "d": 2, "kind": "mixed", "matrix": [1[[,0],[0,0]],[[0,0],[0.5,0]]]}',
         "row 0, column 0 is not [re, im] with two JSON numbers"),
        (b'{"n": 2.9, "d": 2, "kind": "pure", "amplitudes": [{"index": "00", "re": 1}]}',
         '"n" must be a JSON integer, not float'),
        (b'{"n": true, "d": 2, "kind": "pure", "amplitudes": [{"index": "0", "re": 1}]}',
         '"n" must be a JSON integer, not bool'),
        (b'{"n": 1, "d": "2", "kind": "pure", "amplitudes": [{"index": "0", "re": 1}]}',
         '"d" must be a JSON integer, not str'),
    ],
    ids=["matrix-not-array", "wrong-shape", "repeated-key", "not-utf8", "huge-shape", "huge-int",
         "nested-too-deep", "number-before-row", "float-n", "bool-n", "string-d"],
)
def test_state_file_structure_errors(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        load_state_json(path)


def test_mixed_file_layouts_the_byte_search_skips(tmp_path):
    """An escaped key, a nested "matrix" key or an indented file still loads,
    through the whole-file parse where the byte search cannot vouch for a span."""
    rows = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, -0.0]]]
    want = np.array([[0.5, 0.0], [0.0, complex(0.5, -0.0)]])
    texts = [
        '{"n": 1, "d": 2, "kind": "mixed", "m\\u0061trix": %s}' % json.dumps(rows),
        '{"meta": {"matrix": [[[9]]]}, "n": 1, "d": 2, "kind": "mixed", "matrix": %s}' % json.dumps(rows),
        json.dumps({"n": 1, "d": 2, "kind": "mixed", "matrix": rows}, indent=2),
    ]
    for k, text in enumerate(texts):
        path = tmp_path / f"layout{k}.json"
        path.write_text(text)
        assert _same_bits(load_state_json(path).matrix, want)
    # a nested "matrix" must not stand in for a top-level one that is not an array
    path = tmp_path / "nested.json"
    path.write_text('{"meta": {"matrix": %s}, "n": 1, "d": 2, "kind": "mixed", "matrix": null}' % json.dumps(rows))
    with pytest.raises(InvalidInputError, match="not an array"):
        load_state_json(path)


def _dense_ghz_text(n: int) -> str:
    """A dense GHZ n-qubit file as ``json.dumps`` writes it, built row by row."""
    dim = 2**n
    rows = []
    for i in range(dim):
        row = ["[0.0, 0.0]"] * dim
        if i in (0, dim - 1):
            row[0] = row[-1] = "[0.5, 0.0]"
        rows.append("[" + ", ".join(row) + "]")
    return '{"n": %d, "d": 2, "kind": "mixed", "matrix": [%s]}' % (n, ", ".join(rows))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_random_text(n: int, seed: int = 0) -> str:
    """A random full-rank n-qubit density matrix as ``json.dumps`` writes
    it: every number nonzero but the diagonal's imaginary parts."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = g @ g.conj().T
    m = (m + m.conj().T) / (2 * np.trace(m).real)
    rows = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    return json.dumps({"n": n, "d": 2, "kind": "mixed", "matrix": rows})


def test_mixed_file_loader_peak_memory(tmp_path):
    """tracemalloc peak of loading a dense file, validation included: GHZ at
    n = 8 (0.8 MB of JSON) and n = 9 (3.2 MB), and a random matrix with no
    zero to skip at n = 8 (3.2 MB), each the file's bytes and the matrix (16
    bytes an entry) and at most 1 MB more.  Through json.loads and one
    complex() per entry GHZ n = 8 was 13.2 MB; with each check run over the
    whole text 3.4 and 12.7 MB."""
    texts = {"ghz8": _dense_ghz_text(8), "ghz9": _dense_ghz_text(9), "random8": _dense_random_text(8)}
    for name, text in texts.items():
        n = int(name[-1])
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        peak = _traced_peak(lambda: load_state_json(path))
        assert peak < path.stat().st_size + 16 * 4**n + 1e6, name


def test_refusing_the_last_entry_stays_within_the_loader_bound(tmp_path):
    """A malformed last entry of a dense GHZ n = 9 file is refused, at its
    row and column, within the same bound as a load; locating it by counting
    the brackets of the whole text peaked at 85 MB."""
    text = _dense_ghz_text(9)
    last = text.rindex("0.0")
    path = tmp_path / "ghz9_bad.json"
    path.write_text(text[:last] + "0.x" + text[last + 3 :])
    del text

    def refuse():
        with pytest.raises(InvalidInputError, match=re.escape(f"row 511, column 511 {NOT_A_PAIR}")):
            load_state_json(path)

    assert _traced_peak(refuse) < path.stat().st_size + 16 * 4**9 + 1e6


def _whole_file_refusal(path, text: str) -> str:
    """The loader's words for what ``json.loads`` of the whole file says."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"state file {path} is not valid JSON: {exc}"
    raise AssertionError("the file is JSON")


def test_refusing_a_bad_rest_builds_no_lists_of_the_matrix(tmp_path):
    """A dense GHZ n = 9 file whose closing "}" became ",}" is refused with
    the whole-file parse's message, within the loader's bound; that parse
    peaked at 77 MB (ru_maxrss) against 38 MB for the valid file."""
    text = _dense_ghz_text(9)[:-1] + ",}"
    path = tmp_path / "ghz9_rest.json"
    path.write_text(text)
    want = _whole_file_refusal(path, text)
    del text

    def refuse():
        with pytest.raises(InvalidInputError) as refusal:
            load_state_json(path)
        assert str(refusal.value) == want

    assert _traced_peak(refuse) < path.stat().st_size + 16 * 4**9 + 1e6


@pytest.mark.parametrize("indent", [None, 1])
@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text[:-1] + ",}",
        lambda text: text.replace('"d": 2', '"d": 2,', 1),
        lambda text: text.replace('"n"', '"note": "éé", "n"', 1)[:-1] + ", 7}",
        lambda text: text.replace("1.0", "0.x", 1)[:-1] + ",}",
        lambda text: text.replace("1.0", "1e400", 1)[:-1] + ",}",
        lambda text: text.replace("1.0", "1 0", 1)[:-1] + ",}",
    ],
    ids=["after-the-matrix", "before-the-matrix", "after-non-ascii", "matrix-not-json-first",
         "matrix-json-reads", "matrix-json-refuses"],
)
def test_a_bad_rest_is_refused_as_the_whole_file_parse_refuses_it(tmp_path, indent, edit):
    """Where the rest of the object is not JSON, the message is the whole
    file's, line and column included, whether or not the matrix is."""
    text = edit(_mixed_text({}, indent=indent))
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidInputError) as refusal:
        load_state_json(path)
    assert str(refusal.value) == _whole_file_refusal(path, text)


def test_a_key_repeated_after_the_matrix_is_named(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(_mixed_text({})[:-1] + ', "n": 2}')
    with pytest.raises(InvalidInputError, match=r"repeats the key 'n'$"):
        load_state_json(path)


def test_the_matrix_end_at_the_file_tail_stands_only_where_the_walk_closes(tmp_path):
    """A file that ends with "]]]" and "}" has its matrix end, as every file
    does, at the first "]]]" after the key, not at the file's tail: a matrix
    followed by other arrays still loads, or is refused as that first "]]]"
    says."""
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0
    meta = ', "meta": [[[1]]]}'
    for k, text in enumerate([_mixed_text({})[:-1] + meta, _mixed_text({})[:-1] + ', "meta": [[[1]], [[2]]]}']):
        path = tmp_path / f"loads{k}.json"
        path.write_text(text)
        assert _same_bits(load_state_json(path).matrix, want)
    path = tmp_path / "bad_entry.json"
    path.write_text(_mixed_text({(3, 1): "[0.0 0.0]"})[:-1] + meta)
    with pytest.raises(InvalidInputError, match=re.escape(f"row 3, column 1 {NOT_A_PAIR}")):
        load_state_json(path)
    # the first "]]]" closes a valid matrix, and a stray "]" follows it
    text = _mixed_text({(3, 3): "[0.0, 0.0]]]], "})[:-1] + meta[2:]
    path = tmp_path / "bad_rest.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as refusal:
        load_state_json(path)
    assert str(refusal.value) == _whole_file_refusal(path, text)


NOT_A_PAIR = "is not [re, im] with two JSON numbers"


def _mixed_text(entries: dict[tuple[int, int], str], indent=None) -> str:
    """The two-qubit |10><10| file with some entries' text replaced."""
    rows = [[[1.0 if i == j == 2 else 0.0, 0.0] for j in range(4)] for i in range(4)]
    for at in entries:
        rows[at[0]][at[1]] = f"ENTRY{at[0]}{at[1]}"
    text = json.dumps({"n": 2, "d": 2, "kind": "mixed", "matrix": rows}, indent=indent)
    for (i, j), entry in entries.items():
        text = text.replace(f'"ENTRY{i}{j}"', entry)
    return text


@pytest.mark.parametrize(
    "text, problem",
    [
        (_mixed_text({(2, 2): "[ 1.0 ,\n\t  0.0 ]", (0, 1): "[0.0,    -0.0]"}), None),
        (_mixed_text({(2, 2): "[1.0, 0.0] 7"}), f"row 2, column 2 {NOT_A_PAIR}"),
        (_mixed_text({(2, 3): "7 [0.0, 0.0]"}), f"row 2, column 3 {NOT_A_PAIR}"),
        (_mixed_text({(1, 0): "[01, 0.0]", (3, 3): "[0.0, 0.0, 0.0]"}), f"row 3, column 3 {NOT_A_PAIR}"),
        (_mixed_text({(0, 0): "[0.0, 0.0, 0.0]", (3, 1): "[0.0, 0.x]"}), f"row 3, column 1 {NOT_A_PAIR}"),
        (_mixed_text({(0, 2): "[1e400, 0.0]", (3, 0): "[0.0 0.0, 1]"}), f"row 3, column 0 {NOT_A_PAIR}"),
        (_mixed_text({(0, 2): "[1e400, 0.0]", (3, 0): "[NaN, 1]"}), "row 3, column 0 is not a finite number"),
        (_mixed_text({(1, 1): "[01, 0.0]", (2, 0): "[0.0, 0.0] 7"}), f"row 2, column 0 {NOT_A_PAIR}"),
        (_mixed_text({(1, 2): "[1e400, 0.0]", (3, 3): "[-1e400, 0.0]"}), "row 1, column 2 is not a finite number"),
        # cut after the entry's comma, "]0" or "0[" opens a slice; cut after
        # the next comma, "0[" ends one
        (_mixed_text({(1, 2): "[0.0,] 0.0"}), f"row 1, column 2 {NOT_A_PAIR}"),
        (_mixed_text({(1, 2): "7 [, 0.0]"}), f"row 1, column 2 {NOT_A_PAIR}"),
        (_mixed_text({(1, 2): "0.0 [, 0.0]"}), f"row 1, column 2 {NOT_A_PAIR}"),
        # one slot holding two numbers and the next none: as many numbers as
        # commas allow, which only json's reading of the whole slice refuses
        (_mixed_text({(1, 2): "[1 2,]"}), f"row 1, column 2 {NOT_A_PAIR}"),
        (_mixed_text({(1, 2): "[0.0 0.0,]"}), f"row 1, column 2 {NOT_A_PAIR}"),
        (_mixed_text({(1, 2): "[, 0.0]"}), f"row 1, column 2 {NOT_A_PAIR}"),
        (_mixed_text({(1, 2): "[0 .0,]"}), f"row 1, column 2 {NOT_A_PAIR}"),
        (_mixed_text({}).replace("]]]", "] ]\n]"), None),
        (_mixed_text({})[:-1] + ', "meta": [[[1]]]}', None),
        (_mixed_text({}) + "\r\n \n", None),
    ],
    ids=["whitespace-in-entries", "number-after-bracket", "number-before-bracket",
         "json-number-then-skeleton", "skeleton-then-stray", "infinite-then-json-number",
         "infinite-then-nan", "json-number-then-moved", "two-infinite", "bracket-then-number",
         "digit-then-bracket", "number-then-bracket", "two-numbers-then-none", "two-zeros-then-none",
         "no-number-then-zero", "spaced-zero-then-none", "spaced-close", "arrays-after-the-matrix",
         "bytes-after-the-object"],
)
def test_refusals_do_not_depend_on_where_slices_are_cut(tmp_path, monkeypatch, text, problem):
    """Every slice length from one byte up gives the verdict of the walk in
    one slice, which is that of each check run over the whole array in turn:
    a cut inside an entry's whitespace, a moved number right at a cut, and
    files with two faults, where the earlier check's fault wins wherever the
    faults fall."""
    import gmebound.states as states_module

    path = tmp_path / "state.json"
    path.write_text(text)
    want = load_state_json(path).matrix if problem is None else None
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(states_module, "_SLICE_BYTES", size)
        if problem is None:
            assert _same_bits(load_state_json(path).matrix, want)
        else:
            with pytest.raises(InvalidInputError, match=re.escape(problem)):
                load_state_json(path)


@pytest.mark.parametrize(
    "entries, where",
    [
        ({(0, 0): "[0.0, 0.0" + " " * 66000 + "]", (0, 1): "[" + " " * 66000 + ", 0.0]"}, "row 0, column 1"),
        ({(3, 3): "[0.0" + " " * 66000 + ", ]"}, "row 3, column 3"),
    ],
    ids=["cut-after", "last"],
)
def test_an_empty_slot_alone_in_a_slice_is_refused(tmp_path, entries, where):
    """A slot holding only whitespace that is all of a slice's list, the
    slice cut after its comma or the last one, is refused where json refuses
    it.  It was read as no number at all: the matrix kept a number short, its
    last entry unset, and the last case loaded."""
    path = tmp_path / "state.json"
    path.write_text(_mixed_text(entries))
    with pytest.raises(InvalidInputError, match=re.escape(f"{where} {NOT_A_PAIR}")):
        load_state_json(path)


@settings(max_examples=150, deadline=None)
@given(text=mixed_texts(), data=st.data())
def test_sliced_walk_gives_the_one_slice_verdict(tmp_path_factory, text, data):
    """Up to three byte mutations anywhere: the loader's verdict and message
    at a short drawn slice length equal those of one slice."""
    import gmebound.states as states_module

    chars = list(text)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(chars) - 1))
        chars[at] = data.draw(st.sampled_from(MUTATION_BYTES + "x"))
    path = tmp_path_factory.getbasetemp() / "sliced.json"
    path.write_text("".join(chars))

    def outcome():
        try:
            return load_state_json(path).matrix.view(np.int64).tobytes()
        except InvalidInputError as exc:
            return str(exc)

    whole = outcome()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states_module, "_SLICE_BYTES", data.draw(st.integers(1, 40)))
        assert outcome() == whole
