"""End-to-end CLI coverage through main(argv) with captured output."""

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gmebound.cli as cli
import oracles
from gmebound.cli import main

SINGLET_R = [["0011", "0101"], ["0011", "0110"], ["0011", "1001"], ["0011", "1010"]]


@pytest.fixture
def singlet_r_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(SINGLET_R))
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_entropy_w_preset(capsys):
    code, payload = _run_json(capsys, ["entropy", "--preset", "w"])
    assert code == 0
    assert payload["e_m"] == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-9)
    assert payload["minimizer"] == "1|23"
    assert set(payload["entropies"]) == {"1|23", "12|3", "13|2"}


def test_entropy_rejects_mixed_input(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    dim = 4
    payload = {
        "n": 2,
        "d": 2,
        "kind": "mixed",
        "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(dim)] for i in range(dim)],
    }
    path.write_text(json.dumps(payload))
    assert main(["entropy", "--state", str(path)]) == 2
    assert "pure" in capsys.readouterr().err


def test_malformed_state_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["entropy", "--state", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_bound_straddles_singlet_threshold(capsys, singlet_r_file):
    code, hot = _run_json(
        capsys,
        ["bound", "--preset", "singlet4", "--r-set", singlet_r_file, "--p", "0.8"],
    )
    assert code == 0 and hot["detects_gme"] is True
    code, cold = _run_json(
        capsys,
        ["bound", "--preset", "singlet4", "--r-set", singlet_r_file, "--p", "0.7"],
    )
    assert code == 0 and cold["detects_gme"] is False


def test_bound_auto_selection_on_ghz(capsys):
    code, payload = _run_json(capsys, ["bound", "--preset", "ghz"])
    assert code == 0
    assert payload["pairs"] == [["000", "111"]]
    assert payload["value"] == pytest.approx(1.0, abs=1e-9)
    assert payload["n_r"] == 0


def test_bound_degenerate_selection_is_analysis_error(tmp_path, capsys):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps([["000", "100"]]))
    assert main(["bound", "--preset", "ghz", "--r-set", str(path)]) == 1


def test_threshold_singlet_with_dicke_comparison(capsys, singlet_r_file):
    code, payload = _run_json(
        capsys,
        [
            "threshold", "--preset", "singlet4", "--r-set", singlet_r_file,
            "--compare-dicke", "--m", "2",
        ],
    )
    assert code == 0
    assert payload["threshold"] == pytest.approx(21.0 / 29.0, abs=1e-6)
    assert payload["dicke_threshold"] == pytest.approx(27.0 / 43.0, abs=1e-6)


def test_threshold_isotropic_quartile(capsys):
    code, payload = _run_json(capsys, ["threshold", "--preset", "isotropic", "--d", "3"])
    assert code == 0
    assert payload["threshold"] == pytest.approx(0.25, abs=1e-9)


def test_threshold_sweep_csv(capsys, singlet_r_file):
    code = main(
        [
            "threshold", "--preset", "singlet4", "--r-set", singlet_r_file,
            "--p-grid", "0:1:5",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,witness"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    assert last[1] == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_threshold_nondetecting_exits_1(capsys, tmp_path):
    # the W selection cannot detect GHZ: analysis error, exit code 1
    path = tmp_path / "rw.json"
    path.write_text(json.dumps([["001", "010"], ["001", "100"], ["010", "100"]]))
    assert main(["threshold", "--preset", "ghz", "--r-set", str(path)]) == 1


def test_dicke_subcommand_defaults_to_pure_target(capsys):
    code, payload = _run_json(capsys, ["dicke", "--n", "4", "--d", "2", "--m", "2"])
    assert code == 0
    assert payload["q"] == pytest.approx(1.0, abs=1e-9)
    assert payload["certificate"] == 2
    assert payload["em_bound"]["r_size"] == 12
    assert payload["em_bound"]["weak"] == pytest.approx(2.0 / math.sqrt(12.0), abs=1e-9)


def test_ppt_compare_ghz(capsys):
    code, payload = _run_json(
        capsys,
        ["ppt-compare", "--preset", "ghz", "--pair", "000,111", "--gamma", "1"],
    )
    assert code == 0
    assert payload["omega"] == pytest.approx(-0.5, abs=1e-9)
    assert payload["minus_w"] == pytest.approx(-0.5, abs=1e-9)
    assert payload["dominance"] is True


def test_shapes_beyond_int64_ranks_are_answered(capsys):
    """2**64 and 10**19 basis states: ranks past int64 are exact Python integers."""
    code, payload = _run_json(capsys, ["dimensionality", "--n", "64", "--d", "2", "--m", "1"])
    assert code == 0
    rows = [(row["f"], row["q"], row["certificate"]) for row in payload["rows"]]
    assert rows == [(1, 0.0, 1), (2, 1.0, 2)]
    ghz = ["--preset", "ghz", "--n", "19", "--d", "10"]
    pair = "0" * 19 + "," + "9" * 19
    code, payload = _run_json(capsys, ["ppt-compare", *ghz, "--pair", pair, "--gamma", "1,2"])
    assert code == 0
    assert (payload["omega"], payload["minus_w"], payload["dominance"]) == (-0.5, -0.5, True)
    code, payload = _run_json(capsys, ["threshold", *ghz])
    assert code == 0
    assert payload["threshold"] == 0.0


def test_ppt_compare_rejects_non_antipodal(capsys):
    assert main(["ppt-compare", "--preset", "ghz", "--pair", "000,110", "--gamma", "1"]) == 2


def test_measure_plan_w(capsys):
    code, payload = _run_json(capsys, ["measure-plan", "--preset", "w"])
    assert code == 0
    assert payload["element_count"] == 10
    assert payload["setting_count"] == 7
    kinds = {el["kind"] for el in payload["elements"]}
    assert kinds == {"offdiag_re", "diag"}


def test_dimensionality_table_331(capsys):
    code, payload = _run_json(capsys, ["dimensionality", "--n", "3", "--d", "3", "--m", "1"])
    assert code == 0
    rows = {row["f"]: row for row in payload["rows"]}
    assert rows[1]["q"] == pytest.approx(0.0, abs=1e-12)
    assert rows[3]["q"] == pytest.approx(2.0, abs=1e-12)
    assert rows[3]["certificate"] == 3


def test_json_output_is_deterministic(capsys, singlet_r_file):
    argv = ["bound", "--preset", "singlet4", "--r-set", singlet_r_file, "--p", "0.8"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_output_file_flag(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["entropy", "--preset", "ghz", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["e_m"] == pytest.approx(1.0, abs=1e-12)


def test_state_and_preset_together_rejected(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{}")
    assert main(["entropy", "--preset", "w", "--state", str(path)]) == 2


def test_missing_input_is_input_error(capsys):
    assert main(["bound"]) == 2


@pytest.mark.parametrize("xtol", ["-1", "0", "nan", "inf"])
def test_threshold_rejects_nonsense_xtol(capsys, xtol):
    assert main(["threshold", "--preset", "ghz", "--xtol", xtol]) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "dicke --n 4 --d 2 --m 2 --tol nan",
        "dimensionality --n 4 --d 2 --m 2 --tol nan",
        "bound --preset w --n 3 --tol nan",
        "bound --preset w --n 3 --tau nan",
        "bound --preset ghz --n 3 --p 0.2 --tol -1",
        "bound --preset w --n 3 --tau -1",
        "dicke --n 4 --d 2 --m 2 --tol -0.5",
        "dimensionality --n 4 --d 2 --m 2 --tol -0.5",
        "ppt-compare --preset ghz --n 3 --pair 000111 --gamma 1",
        "ppt-compare --preset ghz --n 3 --pair 000,111 --gamma x",
        "threshold --preset w --n 3 --p-grid a,b",
        "threshold --preset w --n 3 --p-grid 0:1:x",
        "threshold --preset w --n 3 --p-grid 0:1:100000000000",
        "bound --preset w --n 0",
        "bound --preset w --n -2",
        "bound --preset ghz --d 0",
        "bound --preset isotropic --d 0",
    ],
)
def test_malformed_flags_are_input_errors(capsys, argv):
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def _pure_file(tmp_path, records, d=2):
    path = tmp_path / "pure.json"
    path.write_text(json.dumps({"n": 2, "d": d, "kind": "pure", "amplitudes": records}))
    return str(path)


BELL = [{"index": "00", "re": 0.5**0.5}, {"index": "11", "re": 0.5**0.5}]
BAD_PURE_FILES = {
    "nan amplitude": (
        [{"index": "00", "re": float("nan")}, {"index": "11", "re": 1.0}],
        "not finite",
    ),
    "duplicate index": (BELL + [{"index": "00", "re": 0.0}], "duplicate"),
}


@pytest.mark.parametrize("command", ["entropy", "bound"])
@pytest.mark.parametrize("case", sorted(BAD_PURE_FILES))
def test_malformed_pure_records_are_input_errors(tmp_path, capsys, command, case):
    records, message = BAD_PURE_FILES[case]
    code = main([command, "--state", _pure_file(tmp_path, records)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "entries",
    [[["0011"]], [1, 2], [["0011", 5]], ["0011"], [["0011", "0101", "0110"]]],
    ids=["one index", "bare numbers", "number index", "bare string", "three indices"],
)
def test_malformed_pair_entries_are_input_errors(tmp_path, capsys, entries):
    """Every --r-set entry must be a list of two index strings."""
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(entries))
    code = main(["bound", "--preset", "singlet4", "--r-set", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--preset", "ghz", "--n", "3", "--d", "11"],
        ["entropy", "--state", "{state}"],
        ["measure-plan", "--r-set", "{pairs}", "--n", "2", "--d", "11"],
    ],
    ids=["preset", "state file", "r-set"],
)
def test_digit_strings_reject_d_above_10(tmp_path, capsys, argv):
    """Indices print one character per digit, so d = 11 would be ambiguous."""
    state = _pure_file(tmp_path, BELL, d=11)
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([["00", "11"]]))
    code = main([a.format(state=state, pairs=pairs) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "d <= 10" in captured.err
    assert captured.out == ""


def test_pure_inputs_never_build_a_dense_matrix(monkeypatch, tmp_path, singlet_r_file):
    """Thresholds, --p, sweeps, bounds, the Q witness and the statevector
    entropy route read the pure state or its noisy view."""
    import gmebound.states as states

    def dense(*args, **kwargs):
        raise AssertionError("dense d**n x d**n build on a pure-input path")

    monkeypatch.setattr(states.PureState, "density", dense)
    monkeypatch.setattr(states, "white_noise_mix", dense)
    runs = [
        ["threshold", "--preset", "ghz", "--n", "14"],
        ["bound", "--preset", "ghz", "--n", "12", "--p", "0.7"],
        ["threshold", "--preset", "singlet4", "--r-set", singlet_r_file,
         "--compare-dicke", "--m", "2", "--p-grid", "0:1:11"],
        ["dicke", "--n", "5", "--d", "3", "--m", "2", "--p", "0.8"],
        ["ppt-compare", "--preset", "ghz", "--n", "10", "--p", "0.6",
         "--pair", "0000000000,1111111111", "--gamma", "1"],
        ["dimensionality", "--n", "4", "--d", "3", "--m", "2"],
        ["entropy", "--preset", "w", "--n", "8", "--method", "trace"],
        ["bound", "--preset", "w", "--n", "10"],
    ]
    for i, argv in enumerate(runs):
        assert main(argv + ["--output", str(tmp_path / f"{i}.out")]) == 0, argv


PINS = json.loads((Path(__file__).parent / "output_pins.json").read_text())


@pytest.mark.parametrize("command", sorted(PINS))
def test_output_matches_recorded_digest(capsys, command):
    """sha256 of the stdout each command gave at 0556fd2, the commit before the
    one-walk emitter and the array-built payloads; output must stay byte for byte."""
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS[command]


LEAVES = (
    st.text()
    | st.booleans()
    | st.none()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e16, 1e-7, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2])
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(PAYLOADS, st.lists(st.text(), max_size=3).map(tuple))
def test_dump_matches_stdlib_json(payload, labels):
    """One walk gives what the stdlib gives after rounding; ``labels`` sits at
    two depths, so a tuple's cached text must be keyed by its indent."""
    for doc in (payload, {"top": labels, "deep": [[labels, payload], labels]}):
        assert cli._dump(doc) == json.dumps(oracles.round12_oracle(doc), indent=2, allow_nan=False)


def test_non_finite_output_is_analysis_error(monkeypatch, tmp_path, capsys):
    """A NaN in a payload exits 1 naming its key, and writes no --output file."""
    monkeypatch.setattr(cli, "evaluate", lambda w, rho: math.nan)
    out = tmp_path / "bound.json"
    assert main(["bound", "--preset", "ghz", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "'value'" in captured.err and "Traceback" not in captured.err
    assert not out.exists()
    report = SimpleNamespace(values=(0.5, math.inf, 0.5), best=0, e_m=0.5)
    monkeypatch.setattr(cli, "gme_measure_pure", lambda psi, method: report)
    assert main(["entropy", "--preset", "w"]) == 1
    assert "'entropies/12|3'" in capsys.readouterr().err


def _product_state_text() -> str:
    """|10><10| over two qubits; its one nonzero entry is row 2, column 2."""
    rows = [[[1.0 if i == j == 2 else 0.0, 0.0] for j in range(4)] for i in range(4)]
    return json.dumps({"n": 2, "d": 2, "kind": "mixed", "matrix": rows})


@pytest.mark.parametrize(
    "text, message",
    [
        (_product_state_text(), None),
        ('{"n": 1, "d": 2, "kind": "mixed"}', 'has no "matrix"'),
        ('{"n": 2, "d": 2, "kind": "pure"}', 'has no "amplitudes"'),
        (_product_state_text().replace("[1.0, 0.0]", "[1.0, 0.0, 7]"),
         "row 2, column 2 is not [re, im] with two JSON numbers"),
        (_product_state_text().replace("[1.0, 0.0]", "[true, false]"),
         "row 2, column 2 is not [re, im] with two JSON numbers"),
        (_product_state_text().replace("[1.0, 0.0]", "[NaN, 0.0]"), "row 2, column 2 is not a finite number"),
        (_product_state_text().replace("[1.0, 0.0]", "[1.0, Infinity]"), "row 2, column 2 is not a finite number"),
        (_product_state_text().replace('"matrix"', '"matrix": [], "matrix"'), "repeats the key 'matrix'"),
        ('{"n": 2, "d": 2, "kind": "pure", "amplitudes": [{"index": "00", "re": 0.0, "re": 1.0}]}',
         "repeats the key 're'"),
        (_product_state_text().replace("[1.0, 0.0]", "[1.0,] 0.0"),
         "row 2, column 2 is not [re, im] with two JSON numbers"),
        (_product_state_text().replace("[1.0, 0.0]", "1.0 [, 0.0]"),
         "row 2, column 2 is not [re, im] with two JSON numbers"),
    ],
    ids=["valid", "no-matrix", "no-amplitudes", "three-numbers", "booleans", "nan", "infinity",
         "two-matrix-keys", "two-re-keys", "number-after-bracket", "number-before-bracket"],
)
def test_state_file_errors_exit_2(tmp_path, capsys, text, message):
    state = tmp_path / "state.json"
    state.write_text(text)
    pairs = tmp_path / "r.json"
    pairs.write_text(json.dumps([["00", "11"]]))
    code = main(["bound", "--state", str(state), "--r-set", str(pairs)])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0, err
    else:
        assert code == 2 and message in err and "Traceback" not in err, err
