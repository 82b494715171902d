"""Every CLI input ends in one of three outcomes, never a traceback or a warning.

A hypothesis property over argv and config text for run, sweep, compare,
geometry and conjecture-check.  Each generated case must give exactly one
of:

* records (a geometry verdict for `geometry`) on stdout and an empty
  stderr, with exit 0, or exit 1 for a geometry violation;
* exit 2 with exactly one `error:` line; an argparse usage error counts,
  as its usage text followed by one final `ctcsim ...: error:` line;
* exit 1 with exactly one `engine error:` line.

Warnings are raised as errors inside the call, so a numpy RuntimeWarning
that would reach stderr fails the property like a traceback does.

A second property guards the key tables: a valid config with one key
renamed, repeated, or moved in from the other subcommand's table always
ends in exit 2 with one `error:` line that names the changed line.
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

CIRCUIT_VALUES = {
    "prep.alpha2": NUMBERS,
    "prep.theta": NUMBERS,
    "block": st.sampled_from([
        "cz_swap", "cnot_swap bare", "swap", "i4 bare", "cnot with_swap", "cz_swap bare",
        "xx_swap", "h", "cz weird", "a b c", ""]),
    "locals": st.lists(st.sampled_from(["i2", "i", "h", "x", "y", "z", "s", "cnot", "q"]),
                       min_size=1, max_size=4).map(" ".join),
    "overlap.kind": st.sampled_from(["orthogonal_limit", "gaussian", "other"]),
    "overlap.d": NUMBERS,
    "overlap.tau": NUMBERS,
}
GEOMETRY_VALUES = {
    "geometry.hi": VECTORS,
    "geometry.ho": VECTORS,
    "geometry.transit": NUMBERS,
    "geometry.c": NUMBERS,
}
# Valid configs for each table.  The strategies below redraw some of their
# values and add stray lines, so that most circuit configs reach the engines
# instead of stopping at a line no circuit reads.
CIRCUIT_BASE = {"prep.alpha2": "0.75", "prep.theta": "0.3", "block": "cz_swap",
                "locals": "i2 i2", "overlap.kind": "gaussian", "overlap.d": "0.5",
                "overlap.tau": "1.0"}
GEOMETRY_BASE = {"geometry.hi": "0 0", "geometry.ho": "3e8 0", "geometry.transit": "1.5",
                 "geometry.c": "3e8"}


def key_lines(values):
    return st.sampled_from(sorted(values)).flatmap(
        lambda key: values[key].map(lambda value: (key, value)))


# A line from either table (a moved or repeated key), a deleted or misspelt
# key, an extra block, or junk.
STRAY_LINES = st.one_of(
    key_lines({**CIRCUIT_VALUES, **GEOMETRY_VALUES}).map(" = ".join),
    st.sampled_from(["no equals sign", "# comment", "", "= 1", "block = cz_swap with_swap x",
                     "block = cnot_swap", "geometry.tau = 1", "geometry.epsilon = 1 0",
                     "prep.thta = 1.0", "locals ="]),
)


def configs(values, base):
    """The base (or nothing) with up to three values redrawn, then up to two stray lines.

    Most configs keep the base, and half get no stray line, as nearly every
    stray line is refused.
    """
    def text(keep_base, redrawn, strays):
        entries = {**(base if keep_base else {}), **dict(redrawn)}
        return "\n".join([f"{k} = {v}" for k, v in entries.items()] + strays) + "\n"

    return st.builds(text, st.sampled_from([True, True, True, False]),
                     st.lists(key_lines(values), max_size=3),
                     st.one_of(st.just([]), st.lists(STRAY_LINES, min_size=1, max_size=2)))


CIRCUIT_CONFIGS = configs(CIRCUIT_VALUES, CIRCUIT_BASE)
GEOMETRY_CONFIGS = configs(GEOMETRY_VALUES, GEOMETRY_BASE)

FLAGS = st.dictionaries(st.sampled_from(["alpha2", "theta", "tau", "d"]), NUMBERS, max_size=3)
# Some valid choices are listed twice so that more cases get past argparse.
FORMATS = st.sampled_from(["table", "csv", "records", "csv", "xml"])
MODELS = st.sampled_from(["db", "heisenberg", "both", "both", "neither"])
# Accepted steps are capped at 12 for run time only: a larger grid reaches no
# other code.  One more than cli.MAX_SWEEP_STEPS must be refused.
STEPS = st.one_of(st.integers(2, 12).map(str),
                  st.sampled_from(["1", "0", "-1", "x", "2.5", "", "100001"]))
SEEDS = st.one_of(st.integers(-2**70, 2**70).map(str), st.sampled_from(["-1", "0", "x", ""]))
TRIALS = st.one_of(st.integers(-3, 4).map(str), st.sampled_from(["-1", "2.5", "x", ""]))
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
    command = draw(st.sampled_from(["run", "sweep", "compare", "geometry", "conjecture-check"]))
    if command == "geometry":
        return ["geometry", "--config", "{config}"], draw(GEOMETRY_CONFIGS)
    if command == "conjecture-check":
        # trials are capped at a handful for run time; a negative one is an error
        return [command, f"--seed={draw(SEEDS)}", f"--trials={draw(TRIALS)}"], None
    config = draw(st.one_of(st.none(), CIRCUIT_CONFIGS))
    argv = [command]
    argv += [f"--{flag}={value}" for flag, value in draw(FLAGS).items()]
    argv.append(f"--format={draw(FORMATS)}")
    if command != "compare":
        argv.append(f"--model={draw(MODELS)}")
    if config is not None:
        argv += ["--config", "{config}"]
    # with a config the target is mostly left out, as a name given with one is refused
    argv += ["--", draw(TARGETS if config is None else st.sampled_from(["", "", "", "", "cz"]))]
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


# Minimal argv per command that reads a config, with the path filled in later.
CONFIG_ARGV = {
    "run": ["run", "--config", "{config}"],
    "sweep": ["sweep", "--config", "{config}", "alpha2", "0", "1", "2"],
    "compare": ["compare", "--config", "{config}"],
    "geometry": ["geometry", "--config", "{config}"],
}
KEY_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._", min_size=1, max_size=16)


def run_config(config_path, command, lines):
    config_path.write_text("\n".join(lines) + "\n")
    return run_main([str(config_path) if a == "{config}" else a for a in CONFIG_ARGV[command]])


@pytest.mark.parametrize("command", sorted(CONFIG_ARGV))
def test_base_configs_are_valid(config_path, command):
    base = GEOMETRY_BASE if command == "geometry" else CIRCUIT_BASE
    code, out, err, _ = run_config(config_path, command, [f"{k} = {v}" for k, v in base.items()])
    assert (code, err) == (0, "") and out, (command, err)


@given(command=st.sampled_from(sorted(CONFIG_ARGV)), data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_a_misplaced_key_is_refused(config_path, command, data):
    own, other = ((GEOMETRY_BASE, CIRCUIT_BASE) if command == "geometry"
                  else (CIRCUIT_BASE, GEOMETRY_BASE))
    lines = [f"{k} = {v}" for k, v in own.items()]
    key = data.draw(st.sampled_from(sorted(own)), label="key")
    where = data.draw(st.integers(0, len(lines)), label="where")
    mutation = data.draw(st.sampled_from(["rename", "repeat", "move"]), label="mutation")
    if mutation == "rename":
        typo = st.integers(0, len(key) - 1).map(lambda i: key[:i] + key[i + 1:])
        new = data.draw(st.one_of(typo, KEY_TEXT).filter(lambda k: k not in own), label="new")
        bad = list(own).index(key) + 1
        lines[bad - 1] = f"{new} = {own[key]}"
    elif mutation == "repeat":
        if key == "block":  # the one key that repeats by design
            key = "prep.alpha2"
        lines.insert(where, f"{key} = {own[key]}")
        bad = max(where, list(own).index(key) + 1) + 1  # the later of the two
    else:
        moved = data.draw(st.sampled_from(sorted(other)), label="moved")
        lines.insert(where, f"{moved} = {other[moved]}")
        bad = where + 1
    code, out, err, usage = run_config(config_path, command, lines)
    assert (code, out, usage) == (2, "", False), (lines, err)
    assert re.fullmatch(rf"error: line {bad}: [^\n]*\n", err), (lines, err)
