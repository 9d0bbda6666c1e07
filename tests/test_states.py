import json
import math
import re
import tracemalloc

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


# ---------------------------------------------------------------------------
# mixed-state files: the byte parser against json.loads and the strict rules

ZERO_SPELLINGS = ["0", "-0", "0.0", "-0.0", "0e0", "-0E+5", "0.000e-3"]
SPACES = st.sampled_from(["", " ", "\t", "\n", "\r\n", " \n\t "])
NUMBER_FORMATS = [repr, "{:.16e}".format, "{:.16E}".format, "{:.17g}".format]


@st.composite
def mixed_texts(draw):
    """A density-matrix file: probabilities on the diagonal, exact Hermitian
    pairs off it (small enough to keep it positive), numbers spelled as ints,
    exponents, -0, 5e-324 or 17 digits, and whitespace between any tokens."""
    n = draw(st.integers(1, 2))
    dim = 2**n
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=dim, max_size=dim))
    probs = [w / sum(weights) for w in weights]

    def spell(x):
        return draw(st.sampled_from(NUMBER_FORMATS))(x)

    def zero():
        return draw(st.sampled_from(ZERO_SPELLINGS))

    entries = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        entries[i][i] = (spell(probs[i]), zero())
        for j in range(i + 1, dim):
            kind = draw(st.sampled_from(["zero", "tiny", "value"]))
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


@settings(max_examples=400, deadline=None)
@given(text=mixed_texts(), data=st.data())
def test_single_byte_mutations_get_the_oracles_verdict(tmp_path_factory, text, data):
    """A file the oracle reads (and whose matrix is a density matrix) loads
    to the same bits; every other file is refused with InvalidInputError."""
    pos = data.draw(st.integers(0, len(text) - 1))
    mutated = text[:pos] + data.draw(st.sampled_from(MUTATION_BYTES)) + text[pos + 1 :]
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(mutated)
    try:
        want = oracles.mixed_matrix_oracle(mutated)
        DensityMatrix(1, len(want), want)
    except ValueError:  # InvalidInputError is one too
        with pytest.raises(InvalidInputError):
            load_state_json(path)
    else:
        assert _same_bits(load_state_json(path).matrix, want)


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


def test_mixed_file_loader_peak_memory(tmp_path):
    """tracemalloc peak of loading a dense GHZ n = 8 file (1.2 MB of JSON),
    validation included.  Through json.loads and one complex() per entry it
    was 13.2 MB; reading the bytes it is about 4.5 MB."""
    dim = 2**8
    rows = [[[0.5 if i in (0, dim - 1) and j in (0, dim - 1) else 0.0, 0.0] for j in range(dim)]
            for i in range(dim)]
    path = tmp_path / "ghz8.json"
    path.write_text(json.dumps({"n": 8, "d": 2, "kind": "mixed", "matrix": rows}))
    del rows
    tracemalloc.start()
    try:
        load_state_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.2e6 / 2
