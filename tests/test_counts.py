"""Exact per-call counts of one scenario.compare, as upper bounds.

A timing drifts with the host; a profiler count does not.  One compare on a
named scenario is counted as the Python line events in ctcsim's frames
(sys.settrace) and the calls into C from any frame (sys.setprofile), on a
preparation not evaluated before and after a warm-up compare of the same
circuit has compiled it: the path the compare_scalar benchmark times.

The counts hold for one interpreter and one numpy, since both decide which
calls are C calls (Python 3.11's profiler sees no ufunc or operator) and
numpy's Python-level wrappers make some of them.  A change that lowers a
count lowers its bound here too.
"""

import os
import sys

import numpy as np
import pytest

import ctcsim
from ctcsim import scenario
from ctcsim.qlinalg import PureStateParams

# name: (Python line events in ctcsim, C calls), measured on Python 3.11.7
# with numpy 2.4.6
BOUNDS = {
    "cz": (230, 75),
    "cnot": (217, 73),
    "chained_cnot_hadamard": (260, 88),
}
PREPARATIONS = ((0.3, 0.7), (0.8, -1.1), (0.15, 2.5))
PACKAGE = os.path.dirname(ctcsim.__file__) + os.sep

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or np.__version__.split(".")[:2] != ["2", "4"],
    reason="the bounds hold for Python 3.11 with numpy 2.4")


def compare_counts(spec: scenario.CircuitSpec) -> tuple[int, int]:
    """(line events in ctcsim frames, C calls) of scenario.compare(spec)."""
    lines = calls = 0

    def in_frame(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code.co_filename.startswith(PACKAGE) else None

    def on_profile(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and arg is not sys.setprofile  # not the one that stops it

    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(on_call)
    sys.setprofile(on_profile)
    try:
        scenario.compare(spec)
    finally:
        sys.setprofile(profile)
        sys.settrace(trace)
    return lines, calls


@pytest.mark.parametrize("name", scenario.scenario_names())
def test_compare_counts_stay_within_bounds(name):
    scenario.compare(scenario.named_scenario(name, PureStateParams(alpha2=0.6, theta=0.1)))
    counts = {compare_counts(scenario.named_scenario(name, PureStateParams(alpha2=a, theta=t)))
              for a, t in PREPARATIONS}
    assert len(counts) == 1, counts  # exact: the same on every preparation
    (lines, calls), = counts
    assert lines <= BOUNDS[name][0] and calls <= BOUNDS[name][1], (lines, calls)
