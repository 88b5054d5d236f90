"""Property tests of the extremum detector.

The constraint pass must give exactly the extrema of the rescanning
reference in ``oracles.py``, which is quadratic, so inputs stay at 200
frames or fewer.
"""

import numpy as np
import pytest

from echokit import beats
from echokit.beats import detect_extrema
from echokit.errors import EchokitError

from oracles import enforce_constraints_scan

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None)

# Small integer ranges give plateaus and ties; floats give everything else.
signals = st.one_of(
    st.lists(st.integers(0, 6), min_size=3, max_size=200),
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=200),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=200),
).map(lambda values: np.array(values, dtype=np.float64))
prominences = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
separations = st.integers(1, 40)


def outcome(values, min_separation, min_prominence):
    """The extrema, or the typed error that detection raises instead."""
    try:
        extrema = detect_extrema(values, min_separation=min_separation,
                                 min_prominence=min_prominence)
    except EchokitError as exc:
        return type(exc).__name__, str(exc)
    return extrema.maxima, extrema.minima


@SETTINGS
@given(signals, separations, prominences)
def test_detect_extrema_matches_scan(values, min_separation, min_prominence):
    got = outcome(values, min_separation, min_prominence)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beats, "_enforce_constraints", enforce_constraints_scan)
        assert got == outcome(values, min_separation, min_prominence)


@st.composite
def event_lists(draw):
    """Arbitrary maxima and minima, not alternating, over tied or NaN values."""
    n = draw(st.integers(1, 200))
    value = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, np.nan])
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    roles = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))  # bit 0 max, bit 1 min
    maxima = [i for i, role in enumerate(roles) if role & 1]
    minima = [i for i, role in enumerate(roles) if role & 2]
    return maxima, minima, values


@SETTINGS
@given(event_lists(), separations)
def test_constraint_pass_matches_scan_on_raw_events(events, min_separation):
    maxima, minima, values = events
    got = beats._enforce_constraints(maxima, minima, values, min_separation)
    assert got == enforce_constraints_scan(maxima, minima, values, min_separation)


@SETTINGS
@given(event_lists(), separations)
def test_kinds_alternate_and_same_kinds_are_separated(events, min_separation):
    maxima, minima = beats._enforce_constraints(*events, min_separation)
    kinds = [kind for _, kind in sorted([(i, 1) for i in maxima] + [(i, -1) for i in minima])]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    for idx in (maxima, minima):
        assert all(b - a >= min_separation for a, b in zip(idx, idx[1:]))


integer_signals = st.lists(st.integers(-1000, 1000), min_size=3, max_size=200).map(
    lambda values: np.array(values, dtype=np.float64)
)
# Dyadic prominences keep the walk's threshold, and so each comparison, exact.
dyadic_prominences = st.one_of(st.just(0.0), st.integers(1, 19).map(lambda m: m / 64))


@SETTINGS
@given(integer_signals, separations, dyadic_prominences, st.integers(-6, 6))
def test_invariant_to_power_of_two_scaling(values, min_separation, min_prominence, exponent):
    assert outcome(values * 2.0**exponent, min_separation, min_prominence) == outcome(
        values, min_separation, min_prominence
    )


@SETTINGS
@given(integer_signals, separations, dyadic_prominences, st.integers(-10**6, 10**6))
def test_invariant_to_integer_shift(values, min_separation, min_prominence, shift):
    assert outcome(values + shift, min_separation, min_prominence) == outcome(
        values, min_separation, min_prominence
    )
