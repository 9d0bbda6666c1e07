"""End-to-end CLI coverage through main(argv) with captured output."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gmebound.cli as cli
import gmebound.witness as witness
import oracles
from gmebound.cli import main
from gmebound.entropy import EntropyReport
from gmebound.errors import DegenerateSelectionError
from gmebound.indices import digit_strings
from gmebound.observables import plan_settings
from gmebound.witness import NRVariant, PairSet, compile_witness

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


@pytest.mark.parametrize(
    "value, message",
    [
        (lambda w, rho: math.nan, "error: witness value nan at p = 1.0 is not a number"),
        (lambda w, rho: 1.0 if rho.p > 1e-300 else -1.0,
         "error: noise threshold did not converge in 100 steps"),
    ],
    ids=["nan", "no-convergence"],
)
def test_threshold_search_failures_exit_1(monkeypatch, capsys, value, message):
    monkeypatch.setattr(witness, "evaluate", value)
    assert main(["threshold", "--preset", "ghz", "--xtol", "5e-324"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--p", "w"],
        ["entropy", "--preset", "w", "--p", "0.5"],
        ["measure-plan", "--preset", "w", "--p", "0.5"],
        ["threshold", "--preset", "w", "--xt", "1e-9"],
        ["bound", "--pre", "w"],
    ],
)
def test_flag_prefixes_are_not_abbreviations(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_run_imports_no_scipy():
    """The package needs numpy alone: a threshold run loads no scipy module."""
    code = (
        "import sys\n"
        "from gmebound.cli import main\n"
        "rc = main(['threshold', '--preset', 'singlet4', '--compare-dicke', '--m', '2'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(rc, loaded, file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip().splitlines()[-1] == "0 []"
    assert json.loads(res.stdout)["threshold"] > 0.0


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
    assert capsys.readouterr().err == (
        "error: pair (000,110) is not antipodal: digits must sum to d-1 = 1 sitewise\n"
    )


@pytest.mark.parametrize(
    "gamma, err",
    [
        ("0", "error: party labels [0] out of range for n=3\n"),
        ("4", "error: party labels [4] out of range for n=3\n"),
        ("-1", "error: party labels [-1] out of range for n=3\n"),
        ("1,2,3", "error: gamma must be a nonempty proper subset of the parties\n"),
    ],
)
def test_ppt_compare_refuses_bad_cuts(capsys, gamma, err):
    ghz = ["ppt-compare", "--preset", "ghz", "--pair", "000,111"]
    assert main([*ghz, "--gamma", gamma]) == 2
    assert capsys.readouterr().err == err


def test_ppt_compare_refuses_a_single_party_state(tmp_path, capsys):
    path = tmp_path / "one.json"
    amplitudes = [{"index": "0", "re": 0.6}, {"index": "1", "re": 0.8}]
    path.write_text(json.dumps({"n": 1, "d": 2, "kind": "pure", "amplitudes": amplitudes}))
    assert main(["ppt-compare", "--state", str(path), "--pair", "0,1", "--gamma", "1"]) == 2
    assert capsys.readouterr().err == "error: need at least 2 parties, got n=1\n"


def test_ppt_compare_reports_the_side_given(capsys):
    """--gamma 2 names the side without party 1, and the output keeps it."""
    argv = ["ppt-compare", "--preset", "ghz", "--pair", "000,111", "--gamma", "2"]
    code, payload = _run_json(capsys, argv)
    assert code == 0
    assert payload["gamma"] == [2]


@pytest.mark.parametrize("gamma", ["1,1", "2,1,2", "1, 1"])
def test_ppt_compare_rejects_repeated_party(capsys, gamma):
    """A party listed twice is a typo, not the cut of the parties listed once."""
    ghz = ["ppt-compare", "--preset", "ghz", "--n", "3", "--pair", "000,111"]
    assert main([*ghz, "--gamma", gamma]) == 2
    party = gamma.replace(" ", "").split(",")[-1]
    assert capsys.readouterr().err == f"error: --gamma names party {party} more than once\n"


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
    # a sweep finds no root, yet a nonsense --xtol is still refused before any work
    for grid in ([], ["--n", "3", "--p-grid", "0:1:3"]):
        assert main(["threshold", "--preset", "ghz", "--xtol", xtol] + grid) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        ("bound --preset dicke --n 4 --d 2", "--preset dicke needs --n, --d and --m"),
        ("bound --state MIXED --r-set R2 --p 0.5", "--p mixes white noise into a pure state"),
        ("bound --state MIXED", "no --r-set given and the input is mixed"),
        ("threshold --preset w --n 3 --p-grid 0:1", "grid '0:1' is not start:stop:count"),
        ("threshold --preset w --n 3 --p-grid 0:1:1", "grid needs at least 2 points"),
        ("threshold --state MIXED --r-set R2",
         "threshold sweeps mix white noise into a pure target"),
        ("threshold --preset singlet4 --compare-dicke", "--compare-dicke needs --m"),
        ("dicke --n 4 --d 2", "dicke needs --n, --d and --m"),
        ("measure-plan --r-set R2", "measure-plan needs --state/--preset or --r-set with --n --d"),
        ("dicke --preset singlet4 --n 4 --d 3 --m 2",
         "witness over (n=4, d=3), state over (n=4, d=2)"),
        ("dicke --state MIXED --n 3 --d 2 --m 1", "witness over (n=3, d=2), state over (n=2, d=2)"),
        ("bound --preset singlet4 --r-set NOFILE", "cannot read pair file {NOFILE}: "),
        ("bound --preset singlet4 --r-set NOTJSON",
         "pair file {NOTJSON} is not valid JSON: Expecting value"),
        ("bound --preset singlet4 --r-set OBJECT",
         "pair file {OBJECT} must hold a list of [a, b] entries"),
        ("bound --preset singlet4 --r-set EMPTY", "empty pair selection"),
        ("bound --state NOFILE", "cannot read state file {NOFILE}: "),
        ("bound --state NOAMPS", "state not normalized: |psi|^2 = 0"),
        ("bound --state D0", "state file {D0}: d**n = 0**2 is not a matrix size"),
        ("entropy --state N1", "need at least 2 parties, got n=1"),
        ("bound --preset dicke --n 4 --d 2 --m 4", "need 1 <= m <= n-1, got m=4, n=4"),
        ("reproduce-paper --seed -1", "seed must be nonnegative, got -1"),
        ("bound --preset ghz --n 3 --output NODIR", "[Errno 2] No such file or directory"),
    ],
    ids=["dicke-preset-without-m", "p-on-mixed", "mixed-without-r-set", "grid-two-fields",
         "grid-one-point", "threshold-on-mixed", "compare-dicke-without-m", "dicke-without-m",
         "measure-plan-without-shape", "dicke-preset-shape-differs", "dicke-state-shape-differs",
         "r-set-missing", "r-set-not-json", "r-set-object", "r-set-empty", "state-missing",
         "pure-without-amplitudes", "mixed-d-0", "entropy-one-party", "dicke-preset-m-equals-n",
         "negative-seed", "output-dir-missing"],
)
def test_cli_refusals_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    files = {
        "MIXED": _product_state_text(),
        "R2": json.dumps([["00", "11"]]),
        "NOTJSON": "[[",
        "OBJECT": json.dumps({"pairs": [["00", "11"]]}),
        "EMPTY": "[]",
        "NOAMPS": json.dumps({"n": 2, "d": 2, "kind": "pure", "amplitudes": []}),
        "D0": json.dumps({"n": 2, "d": 0, "kind": "mixed", "matrix": [[[1.0, 0.0]]]}),
        "N1": json.dumps({"n": 1, "d": 2, "kind": "pure", "amplitudes": [{"index": "0", "re": 1.0}]}),
    }
    paths = {"NOFILE": str(tmp_path / "absent.json"), "NODIR": str(tmp_path / "absent" / "out")}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        paths[name] = str(tmp_path / f"{name}.json")
    assert main([paths.get(a, a) for a in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message.format(**paths)}")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "absent").exists()


def test_compare_dicke_without_m_is_refused_before_any_selection(monkeypatch, capsys):
    def called(*args, **kwargs):
        raise AssertionError("selection or compilation ran before the --m check")

    monkeypatch.setattr(cli, "auto_select_R", called)
    monkeypatch.setattr(cli, "compile_witness", called)
    assert main(["threshold", "--preset", "ghz", "--n", "18", "--compare-dicke"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --compare-dicke needs --m (excitation number)\n"


def test_dicke_on_a_preset_of_the_witness_shape(capsys):
    code, payload = _run_json(capsys, ["dicke", "--preset", "singlet4", "--n", "4", "--d", "2",
                                       "--m", "2"])
    assert code == 0
    assert payload["q"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_tau_above_every_amplitude_says_so(capsys):
    """A --tau that drops the support is named as the cause, not the state."""
    assert main(["bound", "--preset", "w", "--n", "3", "--tau", "0.9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: only 0 of 3 amplitudes reach tau = 0.9")


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
        "ppt-compare --preset ghz --n 3 --pair \u0660\u0660\u0660,111 --gamma 1",
        "ppt-compare --preset ghz --n 3 --pair 000,111 --gamma 1,1",
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
    "non-ascii digit": ([{"index": "0\u0661", "re": 1.0}], "contains a non-digit"),
    "string amplitude": (
        [{"index": "00", "re": "0.7071067811865476", "im": False}, BELL[1]],
        'amplitude record {"index": "00", "re": "0.7071067811865476", "im": false} needs',
    ),
    "string im": (
        [{"index": "00", "re": 0.5**0.5, "im": "0"}, BELL[1]],
        'amplitude record {"index": "00", "re": 0.7071067811865476, "im": "0"} needs',
    ),
    "huge number": ([{"index": "00", "re": 10**400}], "int too large to convert to float"),
    "bool im": (
        [{"index": "00", "re": 0.5**0.5, "im": False}, BELL[1]],
        'amplitude record {"index": "00", "re": 0.7071067811865476, "im": false} needs',
    ),
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
    [[["0011"]], [1, 2], [["0011", 5]], ["0011"], [["0011", "0101", "0110"]],
     [["0\u066011", "0101"]]],
    ids=["one index", "bare numbers", "number index", "bare string", "three indices",
         "non-ascii digit"],
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


# (entry point, indices, d, n, message): a --r-set file, ppt-compare --pair,
# or the amplitude records of a pure-state file
INDEX_REFUSALS = [
    *[
        (entry, indices, d, 2, message)
        for entry in ("r-set", "pair")
        for indices, d, message in [
            (("01", "01"), 2, "pair members must differ, got (01, 01)"),
            (("11", "11"), 3, "pair members must differ, got (11, 11)"),  # antipodal at d = 3
            (("011", "10"), 2, "index '011' has length 3, expected 2"),
            (("01", "1"), 2, "index '1' has length 1, expected 2"),
            (("0\u0661", "10"), 2, "index '0\u0661' contains a non-digit"),
            (("02", "10"), 2, "digits (0, 2) out of range for d=2"),
            (("01", "13"), 3, "digits (1, 3) out of range for d=3"),
        ]
    ],
    ("state", ("011", "10"), 2, 2, "index '011' has length 3, expected 2"),
    ("state", ("0\u0661", "10"), 2, 2, "index '0\u0661' contains a non-digit"),
    ("state", ("02", "10"), 2, 2, "digits (0, 2) out of range for d=2"),
    ("state", ("00",), 1, 2, "local dimension must be >= 2, got 1"),
    ("state", ("",), 2, 0, "empty digit tuple"),
]


@pytest.mark.parametrize(
    "entry, indices, d, n, message",
    INDEX_REFUSALS,
    ids=[f"{entry}-{','.join(indices)}-d{d}" for entry, indices, d, _, _ in INDEX_REFUSALS],
)
def test_index_refusals_at_each_entry_point(tmp_path, capsys, entry, indices, d, n, message):
    """Every index string goes through one parser, which refuses a wrong
    length, a non-ASCII digit, d < 2, an empty index and a digit >= d, in that
    order; a pair of equal indices is refused after both parse."""
    ghz = ["--preset", "ghz", "--n", str(n), "--d", str(d)]
    if entry == "r-set":
        path = tmp_path / "r.json"
        path.write_text(json.dumps([list(indices)]))
        argv = ["bound", *ghz, "--r-set", str(path)]
    elif entry == "pair":
        argv = ["ppt-compare", *ghz, "--pair", ",".join(indices), "--gamma", "1"]
    else:
        path = tmp_path / "pure.json"
        records = [{"index": i, "re": len(indices) ** -0.5} for i in indices]
        path.write_text(json.dumps({"n": n, "d": d, "kind": "pure", "amplitudes": records}))
        argv = ["entropy", "--state", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


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
    """Thresholds, --p, sweeps, bounds, the Q witness, the statevector
    entropy route and the PPT comparison read the pure state or its noisy
    view; ppt-compare builds no dense operator either."""
    import gmebound.ppt as ppt
    import gmebound.states as states

    def dense(*args, **kwargs):
        raise AssertionError("dense d**n x d**n build on a pure-input path")

    monkeypatch.setattr(states.PureState, "density", dense)
    monkeypatch.setattr(states, "white_noise_mix", dense)
    monkeypatch.setattr(ppt, "partial_transpose", dense)
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
    """sha256 of the stdout each command gave; output must stay byte for byte.

    The ten pins without ``--include-imag`` on GHZ qutrits or singlet4 were
    recorded at 0556fd2, the commit before the one-walk emitter and the
    array-built payloads; the two measure-plan pins for ``--preset ghz --n 4
    --d 3 --include-imag`` and ``--preset singlet4 --include-imag`` at 8a93f85,
    the commit before term records were rendered once per distinct term; the
    three ``threshold`` pins without ``--p-grid`` at 739aeab, the last commit
    that found roots with scipy.optimize.brentq; the three ``--p-grid`` sweep
    pins at e775f20, the last commit that wrote sweeps through the csv module."""
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINS[command]


# the battery table as printed at e775f20, the last commit with a writer of its
# own for it; every "(0.12s)" and "elapsed 0.001s" timing is masked
BATTERY_TABLE = """\
[PASS] #1 four-qubit singlet noise threshold  (…s)
[FAIL] #2 dimensionality-witness singlet threshold  (…s)
        measured zero-crossing 0.627906976744, quoted 27/35 = 0.771428571429 \
(faithful evaluation gives 27/43 = 0.627906976744), elapsed …s
[PASS] #3 isotropic qutrit closed form and tightness  (…s)
[PASS] #4 Dicke witness calibration Q = d-1  (…s)
[PASS] #5 W-state entropy/measure/witness chain  (…s)
[PASS] #6 PPT witness entries, routes, dominance  (…s)
[PASS] #7 measurement plan sizes and reconstructions  (…s)
[PASS] #8 soundness sweeps  (…s)
[PASS] #9 pair-selection counts and Q-derived measure bounds  (…s)
8/9 criteria passed
"""


def _mask_timings(text: str) -> str:
    return re.sub(r"(?<=\()\d+\.\d+(?=s\))|(?<=elapsed )\d+\.\d+(?=s)", "…", text)


def test_reproduce_paper_table_is_pinned(tmp_path, capsys):
    """The same bytes reach stdout and --output; exit 1 while criterion 2 fails."""
    assert main(["reproduce-paper"]) == 1
    assert _mask_timings(capsys.readouterr().out) == BATTERY_TABLE
    out = tmp_path / "battery.txt"
    assert main(["reproduce-paper", "--output", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert _mask_timings(out.read_text(encoding="utf-8")) == BATTERY_TABLE


# each subcommand's option strings as declared at e775f20
OPTIONS = {
    "entropy": "--d --m --method --n --output --preset --state",
    "bound": "--d --m --n --nr --output --p --preset --r-set --state --tau --tol",
    "threshold": "--compare-dicke --d --delta --m --n --nr --output --p-grid --preset --r-set "
    "--state --tau --xtol",
    "dicke": "--d --delta --m --n --nr --output --p --preset --state --tol",
    "ppt-compare": "--d --gamma --m --n --output --p --pair --preset --state",
    "measure-plan": "--d --include-imag --m --n --nr --output --preset --r-set --state --tau",
    "dimensionality": "--d --delta --m --n --output --tol",
    "reproduce-paper": "--output --seed",
}


def test_every_subcommand_keeps_its_options():
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert got == {name: set(flags.split()) for name, flags in OPTIONS.items()}


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
    """One walk gives what the stdlib gives after rounding; ``labels`` and a
    shared record sit at two depths, so a cached text must be keyed by its
    indent."""
    shared = cli._Shared(coeff=0.1 + 0.2, labels=labels, payload=payload)
    deep = {"top": labels, "deep": [[labels, payload], labels], "records": [shared, [shared]]}
    for doc in (payload, deep, shared):
        assert cli._dump(doc) == json.dumps(oracles.round12_oracle(doc), indent=2, allow_nan=False)


def _random_witness(rng):
    """A random pair selection at n <= 4, d <= 3 that compiles."""
    while True:
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        pairs = [rng.choice(d**n, size=2, replace=False) for _ in range(rng.integers(1, 6))]
        entries = [digit_strings(pair, n, d) for pair in pairs]
        try:
            return entries, compile_witness(PairSet.from_strings(entries, n, d), NRVariant.MINIMAL)
        except DegenerateSelectionError:
            continue


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("include_imag", [False, True])
def test_measure_plan_text_is_the_plan_through_stdlib_json(tmp_path, capsys, seed, include_imag):
    """Each term record is rendered once and shared, yet the text is what
    ``json.dumps`` gives for the plan written out in full."""
    entries, w = _random_witness(np.random.default_rng(seed))
    path = tmp_path / "r.json"
    path.write_text(json.dumps(entries))
    argv = ["measure-plan", "--r-set", str(path), "--n", str(w.n), "--d", str(w.d)]
    assert main(argv + ["--include-imag"] * include_imag) == 0
    plan = plan_settings(w, include_imag=include_imag)
    reference = {
        "n": plan.n,
        "d": plan.d,
        "element_count": len(plan.elements),
        "setting_count": len(plan.settings),
        "settings": [list(s) for s in plan.settings],
        "elements": [
            {
                "kind": el.kind,
                "indices": list(el.indices),
                "terms": [
                    {"coeff": float(f"{c:.12g}"), "labels": list(labs)}
                    for c, labs in el.terms
                ],
            }
            for el in plan.elements
        ],
    }
    assert capsys.readouterr().out == json.dumps(reference, indent=2) + "\n"


def test_non_finite_output_is_analysis_error(monkeypatch, tmp_path, capsys):
    """A NaN in a payload exits 1 naming its key, and writes no --output file."""
    monkeypatch.setattr(cli, "evaluate", lambda w, rho: math.nan)
    out = tmp_path / "bound.json"
    assert main(["bound", "--preset", "ghz", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "'value'" in captured.err and "Traceback" not in captured.err
    assert not out.exists()
    report = EntropyReport(3, (0.5, math.inf, 0.5), 0, 0.5)
    monkeypatch.setattr(cli, "gme_measure_pure", lambda psi, method: report)
    assert main(["entropy", "--preset", "w"]) == 1
    assert "'entropies/12|3'" in capsys.readouterr().err


def _product_state_text() -> str:
    """|10><10| over two qubits; its one nonzero entry is row 2, column 2."""
    rows = [[[1.0 if i == j == 2 else 0.0, 0.0] for j in range(4)] for i in range(4)]
    return json.dumps({"n": 2, "d": 2, "kind": "mixed", "matrix": rows})


def _near_hermitian_text() -> str:
    """Two qubits whose [0, 3] and [3, 0] entries differ by 1.5e-6: Hermitian
    only to a relative tolerance, not to the absolute 1e-12."""
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][3], rows[3][0] = [0.2, 0.0], [0.2 - 1.5e-6, 0.0]
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
        (_near_hermitian_text(), "density matrix is not Hermitian"),
    ],
    ids=["valid", "no-matrix", "no-amplitudes", "three-numbers", "booleans", "nan", "infinity",
         "two-matrix-keys", "two-re-keys", "number-after-bracket", "number-before-bracket",
         "near-hermitian"],
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
