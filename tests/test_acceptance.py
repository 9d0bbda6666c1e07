"""Acceptance battery: one test per reproduction criterion.

Criterion 2 pins the published zero-crossing 27/35 for the dimensionality
witness on the white-noise singlet line.  Faithful evaluation of the Q
formula puts the crossing at 27/43 instead (see the check's details and the
README); the test states the published number and is expected to fail until
that discrepancy is resolved upstream.

``battery_pins.json`` pins every check's details string, timings masked, at
the default seed and at seed 1.
"""

import json
import re
from pathlib import Path

import pytest

from gmebound import reproduce
from gmebound.errors import InvalidInputError

BATTERY_PINS = json.loads((Path(__file__).parent / "battery_pins.json").read_text())


@pytest.fixture(scope="module")
def battery():
    results = reproduce.run_all()
    return {res.number: res for res in results}


def _assert_passed(res):
    assert res.passed, f"criterion {res.number} ({res.name}): {res.details}"


def test_criterion_1_singlet_threshold_21_29(battery):
    _assert_passed(battery[1])


def test_criterion_2_dicke_threshold_27_35(battery):
    _assert_passed(battery[2])


def test_criterion_3_isotropic_qutrit_formula(battery):
    _assert_passed(battery[3])


def test_criterion_4_dicke_calibration_d_minus_1(battery):
    _assert_passed(battery[4])


def test_criterion_5_w_state_chain(battery):
    _assert_passed(battery[5])


def test_criterion_6_ppt_routes_and_dominance(battery):
    _assert_passed(battery[6])


def test_criterion_7_measurement_plans(battery):
    _assert_passed(battery[7])


def test_criterion_8_soundness_sweeps(battery):
    _assert_passed(battery[8])


def test_criterion_9_pair_counts_and_em_bridge(battery):
    _assert_passed(battery[9])


@pytest.mark.parametrize("seed", [reproduce.SEED, 1])
def test_battery_details_match_pins(battery, seed):
    results = battery.values() if seed == reproduce.SEED else reproduce.run_all(seed=seed)
    details = [re.sub(r"elapsed [0-9.]+s", "elapsed …s", res.details) for res in results]
    assert details == BATTERY_PINS[str(seed)]


def test_total_runtime_under_budget(battery):
    assert sum(res.elapsed for res in battery.values()) < 60.0


def test_negative_seed_is_refused_before_any_check(monkeypatch):
    def called(*args, **kwargs):
        raise AssertionError("a check ran before the seed was refused")

    monkeypatch.setattr(reproduce, "ALL_CHECKS", [called] * len(reproduce.ALL_CHECKS))
    with pytest.raises(InvalidInputError, match=r"^seed must be nonnegative, got -1$"):
        reproduce.run_all(-1)
