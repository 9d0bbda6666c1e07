"""Tests of the benchmark itself: checks, tracer, inputs and the runner's guards.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gmebound.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from checks import load_golden  # noqa: E402
from workloads import NOISY, WORKLOADS, battery, noisy_inputs  # noqa: E402


def _op(name):
    return next(op for w in WORKLOADS.values() for op in w.ops if op.name == name)


def _runner(tmp_path, op, golden):
    return run.Runner([(op, op.resolve({}))], {}, str(tmp_path), golden)


def test_correct_reference_passes(tmp_path):
    runner = _runner(tmp_path, _op("threshold-ghz-10"), load_golden())
    runner.run_pass(1)
    assert (runner.attempted, runner.failed) == (1, 0)


def test_wrong_golden_reference_counts_as_failed_op(tmp_path):
    golden = copy.deepcopy(load_golden())
    golden["threshold-ghz-10"]["floats"][0] *= 1 + 1e-6
    runner = _runner(tmp_path, _op("threshold-ghz-10"), golden)
    runner.run_pass(1)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "float #0" in runner.failures[0]


def test_wrong_closed_form_counts_as_failed_op(tmp_path):
    op = _op("threshold-ghz-10")
    wrong = type(op)(op.name, ("threshold", "--preset", "ghz", "--n", "9"), op.check, op.golden)
    runner = _runner(tmp_path, wrong, load_golden())
    runner.run_pass(1)
    assert runner.failed == 1


def test_missing_golden_counts_as_failed_op(tmp_path):
    runner = _runner(tmp_path, _op("threshold-ghz-10"), {})
    runner.run_pass(1)
    assert runner.failed == 1


def test_battery_check_rejects_a_passing_criterion_2():
    text = "\n".join(
        [f"[PASS] #{k} check  (0.01s)" for k in range(1, 10)] + ["9/9 criteria passed"]
    )
    with pytest.raises(Exception):
        battery(text, {})


def _bindings():
    """Identity of every module binding, class method and list/set member."""
    snap = {}
    for key, module in sys.modules.items():
        if key != "gmebound" and not key.startswith("gmebound."):
            continue
        for name, value in vars(module).items():
            snap[(key, name)] = id(value)
            if isinstance(value, list):
                snap[(key, name, "items")] = [id(v) for v in value]
            elif isinstance(value, set):
                snap[(key, name, "members")] = sorted(id(v) for v in value)
            elif isinstance(value, type) and value.__module__ == key:
                for attr, member in vars(value).items():
                    snap[(key, name, attr)] = id(member)
    return snap


def test_tracer_restores_every_wrapped_name():
    import gmebound.reproduce as reproduce
    import gmebound.states as states
    import gmebound.witness as witness

    before = _bindings()
    originals = (gmebound.cli.main, witness.evaluate, states.PureState.density,
                 reproduce.ALL_CHECKS[0])
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        wrapped = (gmebound.cli.main, witness.evaluate, states.PureState.density,
                   reproduce.ALL_CHECKS[0])
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert reproduce.ALL_CHECKS[5] in reproduce._RANDOMIZED
        assert gmebound.cli.cmd_bound.__name__ == "cmd_bound"  # cli internals stay bare
        assert not hasattr(gmebound.cli.cmd_bound, "__wrapped__")
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_traced_op_records_nested_spans(tmp_path):
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.begin_op("t")
        rc = gmebound.cli.main(["threshold", "--preset", "ghz", "--n", "4",
                                "--output", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    by_id = {s.sid: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    evals = [s for s in tracer.spans if s.name == "witness.evaluate"]
    assert evals and all(by_id[s.parent].name == "witness.noise_threshold" for s in evals)
    selfs = tracer_mod.self_times(tracer.spans)
    assert all(-1e-9 <= selfs[s.sid] <= s.end - s.start + 1e-9 for s in tracer.spans)
    metrics = tracer_mod.layer_metrics(tracer.spans)
    assert metrics["witness.noise_threshold.evals"] == len(evals)
    assert metrics["cli.main.calls"] == 1
    assert metrics["states.dense_bytes"] > 0


def test_self_time_subtracts_union_of_overlapping_children():
    S = tracer_mod.Span
    spans = [S("a", 0.0, 10.0, None, "o", 1), S("b", 1.0, 4.0, 1, "o", 2),
             S("c", 3.0, 6.0, 1, "o", 3), S("d", 8.0, 9.0, 1, "o", 4)]
    assert tracer_mod.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def _read_all(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_input_generator_is_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = noisy_inputs(7, str(dirs[0]))
    second = noisy_inputs(7, str(dirs[1]))
    other = noisy_inputs(8, str(dirs[2]))
    assert first["dense_p"] == second["dense_p"] != other["dense_p"]
    assert _read_all(dirs[0]) == _read_all(dirs[1])
    assert _read_all(dirs[0])["dense_ghz.json"] != _read_all(dirs[2])["dense_ghz.json"]


def test_generated_dense_state_is_a_valid_density_matrix(tmp_path):
    from gmebound.states import DensityMatrix, load_state_json

    inputs = noisy_inputs(3, str(tmp_path))
    rho = load_state_json(inputs["dense_state"])  # validates trace, hermiticity, PSD
    assert isinstance(rho, DensityMatrix) and rho.n == 9


def test_tail_latency_ladder():
    assert run.tail_latency([float(i) for i in range(1, 51)]) == (38.0, 75.0, 12)
    assert run.tail_latency([float(i) for i in range(1, 61)]) == (45.0, 75.0, 15)
    assert run.tail_latency([float(i) for i in range(1, 101)]) == (75.0, 75.0, 25)
    assert run.tail_latency([float(i) for i in range(1, 9)]) == (4.0, 50.0, 4)


def test_every_op_of_noisy_workload_has_a_reference():
    golden = load_golden()
    for op in NOISY.ops:
        assert isinstance(op.check, types.FunctionType)
        assert op.golden is None or op.name in golden


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
