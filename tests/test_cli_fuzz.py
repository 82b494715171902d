"""Every CLI input ends in one of three outcomes, never a traceback or a warning.

A hypothesis property over argv and config text for run, sweep, compare and
geometry.  Each generated case must give exactly one of:

* records (a geometry verdict for `geometry`) on stdout and an empty
  stderr, with exit 0, or exit 1 for a geometry violation;
* exit 2 with exactly one `error:` line; an argparse usage error counts,
  as its usage text followed by one final `ctcsim ...: error:` line;
* exit 1 with exactly one `engine error:` line.

Warnings are raised as errors inside the call, so a numpy RuntimeWarning
that would reach stderr fails the property like a traceback does.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim.cli import main

# Ordinary, boundary, huge, subnormal and non-finite numbers, and junk.
NUMBERS = st.one_of(
    st.floats(0, 1).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "0", "1", "0.5", "0.75", "-1", "2", "1e308", "-1e308", "1.7976931348623157e+308",
        "5e-324", "-5e-324", "2.2250738585072014e-308", "nan", "-nan", "inf", "-inf",
        "-0.0", "x", "", "1,5", "0x10"]),
)
VECTORS = st.lists(NUMBERS, max_size=3).map(" ".join)
TARGETS = st.sampled_from(["cz", "cnot", "chained_cnot_hadamard", "cz", "grover", ""])

CONFIG_VALUES = {
    "prep.alpha2": NUMBERS,
    "prep.theta": NUMBERS,
    "block": st.sampled_from([
        "cz_swap", "cnot_swap bare", "swap", "i4 bare", "cnot with_swap", "cz_swap bare",
        "xx_swap", "h", "cz weird", "a b c", ""]),
    "locals": st.lists(st.sampled_from(["i2", "i", "h", "x", "y", "z", "s", "cnot", "q"]),
                       max_size=4).map(" ".join),
    "overlap.kind": st.sampled_from(["orthogonal_limit", "gaussian", "other"]),
    "overlap.d": NUMBERS,
    "overlap.tau": NUMBERS,
    "geometry.hi": VECTORS,
    "geometry.ho": VECTORS,
    "geometry.transit": NUMBERS,
    "geometry.c": NUMBERS,
    "geometry.tau": NUMBERS,
    "geometry.epsilon": VECTORS,
    "geometry.delta_t": NUMBERS,
}
CONFIG_LINES = st.one_of(
    st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
        lambda key: CONFIG_VALUES[key].map(lambda value: f"{key} = {value}")),
    st.sampled_from(["no equals sign", "# comment", "", "= 1", "block = cz_swap with_swap x"]),
)
# A valid base that later lines override (repeated "block" lines add blocks),
# so most configs get past the first missing field.
BASE_CONFIG = ["prep.alpha2 = 0.75", "block = cz_swap", "geometry.hi = 0 0",
               "geometry.ho = 3e8 0", "geometry.transit = 1.5"]
CONFIGS = st.tuples(st.booleans(), st.lists(CONFIG_LINES, max_size=6)).map(
    lambda pair: "\n".join((BASE_CONFIG if pair[0] else []) + pair[1]) + "\n")

FLAGS = st.dictionaries(st.sampled_from(["alpha2", "theta", "tau", "d"]), NUMBERS, max_size=3)
# Some valid choices are listed twice so that more cases get past argparse.
FORMATS = st.sampled_from(["table", "csv", "records", "csv", "xml"])
MODELS = st.sampled_from(["db", "heisenberg", "both", "both", "neither"])
# Steps are capped at 12 for run time only: a larger grid reaches no other
# code, and a sweep of billions of points is a size policy, not input checking.
STEPS = st.one_of(st.integers(2, 12).map(str), st.sampled_from(["1", "0", "-1", "x", "2.5", ""]))
# An ordered pair inside [0, 1], which every sweep accepts, a pair of huge
# floats around 0 (whose width may overflow), or any two numbers.
HUGE = st.floats(min_value=1e307, allow_infinity=False)
RANGES = st.one_of(
    st.lists(st.floats(0, 1), min_size=2, max_size=2, unique=True).map(
        lambda pair: tuple(map(repr, sorted(pair)))),
    st.tuples(HUGE, HUGE).map(lambda pair: (repr(-pair[0]), repr(pair[1]))),
    st.tuples(NUMBERS, NUMBERS),
)


@st.composite
def cases(draw):
    """(argv, config text or None); the config path is filled in by the test."""
    command = draw(st.sampled_from(["run", "sweep", "compare", "geometry"]))
    if command == "geometry":
        return ["geometry", "--config", "{config}"], draw(CONFIGS)
    config = draw(st.one_of(st.none(), CONFIGS))
    argv = [command]
    argv += [f"--{flag}={value}" for flag, value in draw(FLAGS).items()]
    argv.append(f"--format={draw(FORMATS)}")
    if command != "compare":
        argv.append(f"--model={draw(MODELS)}")
    if config is not None:
        argv += ["--config", "{config}"]
    argv += ["--", draw(TARGETS)]
    if command == "sweep":
        argv += [draw(st.sampled_from(["alpha2", "theta", "alpha2", "theta", "phi"])),
                 *draw(RANGES), draw(STEPS)]
    return argv, config


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.cfg"


def run_main(argv):
    """(exit code, stdout, stderr, whether argparse exited) for one call of main."""
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code, usage = exc.code, True
    return code, out.getvalue(), err.getvalue(), usage


@given(case=cases())
@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
def test_every_input_has_one_outcome(config_path, case):
    argv, config = case
    if config is not None:
        config_path.write_text(config)
        argv = [str(config_path) if a == "{config}" else a for a in argv]
    code, out, err, usage = run_main(argv)
    lines = err.splitlines()
    if usage:
        assert code == 2 and out == "", (argv, code, out, err)
        assert lines[0].startswith("usage: ctcsim"), err
        assert [line for line in lines if "error:" in line] == lines[-1:], err
        assert re.match(r"ctcsim( [a-z-]+)?: error: ", lines[-1]), err
    elif code == 0 or (code == 1 and out.startswith("violation")):
        assert err == "" and out, (argv, code, err)
    elif code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    else:
        assert code == 1 and out == "", (argv, code, out, err)
        assert len(lines) == 1 and lines[0].startswith("engine error: "), (argv, err)
