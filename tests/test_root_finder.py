"""The noise-threshold root finder against scipy.optimize.brentq, step for step.

scipy is the independent oracle here: the package's Brent port must return the
same bits, evaluate the same points in the same order after the two endpoint
values, and fail to converge exactly where scipy does.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gmebound.errors import AnalysisError
from gmebound.witness import _noise_root

XTOLS = (1e-6, 1e-9, 1e-12, 1e-14, 5e-324)


def _family(kind: str, r: float, s: float, e: float):
    """A function of p in [0, 1] whose only sign change is at p = r."""
    if kind == "cubic":
        return lambda p: s * (p - r) + e * (p - r) ** 3
    if kind == "step":
        return lambda p: s if p > r else -s
    if kind == "tanh":
        return lambda p: math.tanh(s * (p - r))
    if kind == "tiny":
        return lambda p: 1e-300 * math.expm1(math.log1p(s) * (p - r))
    # a power law, flat or steep at the root: the extrapolating steps go astray
    return lambda p: s * math.copysign(abs(p - r) ** e, p - r)


ROOTS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from(
    [5e-324, 1e-300, 1e-12, 0.5, 1.0 - 2.0**-53]
)


def _recorded(f):
    points = []

    def g(p):
        points.append(p)
        return f(p)

    return g, points


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "step", "tanh", "tiny", "power"]),
    r=ROOTS,
    s=st.floats(1e-3, 1e3),
    e=st.floats(0.1, 5.0),
    xtol=st.sampled_from(XTOLS),
)
def test_matches_scipy_brentq_step_for_step(kind, r, s, e, xtol):
    f = _family(kind, r, s, e)
    assume(f(0.0) < 0.0 < f(1.0))
    theirs, their_points = _recorded(f)
    ours, our_points = _recorded(f)
    try:
        want = brentq(theirs, 0.0, 1.0, xtol=xtol)
    except RuntimeError:
        with pytest.raises(AnalysisError, match="did not converge in 100 steps"):
            _noise_root(ours, xtol, "value")
    else:
        assert _noise_root(ours, xtol, "value").hex() == want.hex()
    # scipy evaluates f(0) and f(1) itself; _noise_root reuses the two it checked
    assert our_points[:2] == [1.0, 0.0]
    assert our_points[2:] == their_points[2:]


def test_search_that_does_not_converge_is_refused():
    # a sign step just above p = 0: no step does better than halve the
    # bracket, and 100 halvings of [0, 1] do not get near 1e-300
    def step(p):
        return 1.0 if p > 1e-300 else -1.0

    with pytest.raises(RuntimeError):
        brentq(step, 0.0, 1.0, xtol=5e-324)
    f, points = _recorded(step)
    with pytest.raises(AnalysisError, match=r"did not converge in 100 steps \(last p = "):
        _noise_root(f, 5e-324, "value")
    assert len(points) == 102
    # the same step converges at an ordinary tolerance
    assert _noise_root(step, 1e-12, "value") == brentq(step, 0.0, 1.0, xtol=1e-12)


@pytest.mark.parametrize(
    "f, where",
    [
        (lambda p: math.nan, "1.0"),
        (lambda p: math.nan if p == 0.0 else 1.0, "0.0"),
        (lambda p: math.nan if 0.0 < p < 1.0 else p - 0.5, "0.5"),
    ],
    ids=["pure-target", "full-noise", "inside-search"],
)
def test_nan_value_is_refused(f, where):
    with pytest.raises(AnalysisError, match=rf"^Q = nan at p = {where} is not a number$"):
        _noise_root(f, 1e-12, "Q =")


def test_value_still_nonnegative_at_full_noise_gives_zero():
    """f(0) >= 0: every mixture is detected, so p* = 0 with no search step."""
    f, points = _recorded(lambda p: p)
    assert _noise_root(f, 1e-12, "value") == 0.0
    assert points == [1.0, 0.0]

