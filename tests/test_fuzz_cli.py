"""Argv fuzz: user input may make the CLI exit 0, 1 (usage) or 2 (validation),
never 3 (internal error). Inputs stay small (m <= 6, --trials <= 3, short
sweep ranges, --snr within +-5000 dB) so the whole run takes seconds."""

import contextlib
import functools
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimo3way.cli import main

# Strategies repeat their well-formed branches so that most inputs get past
# the parser and reach the computation.
_count = st.integers(-1, 6)
_rational = st.one_of(
    _count.map(str), _count.map(str), st.sampled_from(["1/3", "2/3", "5/2", "-1/3"]), st.sampled_from(["1/0", "x"])
)


def _csv(parts, extra):
    return st.one_of(st.lists(parts, min_size=1, max_size=4).map(",".join), st.sampled_from(extra))


_ordered = st.lists(_count, min_size=3, max_size=3).map(lambda t: ",".join(map(str, sorted(t, reverse=True))))
_m = st.one_of(
    _ordered,
    _ordered,
    _ordered,
    st.lists(_count, min_size=3, max_size=3).map(lambda t: ",".join(map(str, t))),
    st.lists(_count, min_size=1, max_size=4).map(lambda t: ",".join(map(str, t))),
)
_scheme = st.sampled_from(["uni-a", "uni-b", "bcast", "uni-a", "uni-b", "bcast", "zf"])
_msgs = st.sampled_from(["unicast", "broadcast"])
_db = st.one_of(st.integers(0, 60).map(float), st.floats(-5000, 5000, allow_nan=False))
_snr = st.one_of(
    st.lists(_db, min_size=2, max_size=4, unique=True).map(lambda v: ",".join(map(repr, sorted(v)))),
    _csv(_db.map(repr), ["30,inf", "nan", "30,x"]),
)
_range = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 5), st.sampled_from(["1/3", "1/2", "1"])).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"
    ),
    st.tuples(_rational, _rational, _rational).map(":".join),
)


def _req(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def _opt(flag, values):
    return st.one_of(st.just([]), _req(flag, values))


_sort = st.sampled_from([[], ["--sort"]])

_commands = st.one_of(
    st.tuples(st.just(["bounds"]), _req("--m", _m), st.just(["--allocate"]), _opt("--msgs", _msgs), _sort),
    st.tuples(st.just(["bounds"]), _req("--mt", _csv(_rational, ["3,1,1"])), _req("--mr", _csv(_rational, ["0,2,2"])),
              _opt("--msgs", _msgs)),
    st.tuples(st.just(["allocate"]), _req("--m", _m), _opt("--msgs", _msgs),
              _opt("--method", st.sampled_from(["closed", "enumerated", "brute", "lp"])),
              _opt("--denominator", st.integers(-1, 6)), _sort),
    st.tuples(st.just(["verify-scheme"]), _req("--m", _m), _req("--scheme", _scheme), _sort),
    st.tuples(st.just(["slope"]), _req("--m", _m), _req("--scheme", _scheme), _opt("--snr", _snr),
              _req("--trials", st.integers(-1, 3)), _opt("--tol", st.sampled_from(["0.2", "-1", "inf", "nan"])),
              _opt("--fit", st.sampled_from(["two-point", "lsq-top-half"])), _sort),
    st.tuples(st.just(["sweep"]), _opt("--ratio1", _range), _opt("--ratio2", _range),
              _opt("--m3", st.integers(-1, 3)), _opt("--msgs", _msgs)),
).map(lambda parts: [a for part in parts for a in part])

_argv = st.tuples(
    _commands,
    _opt("--format", st.sampled_from(["table", "json", "csv"])),
    _opt("--seed", st.integers(-2, 2**64)),
).map(lambda parts: [a for part in parts for a in part])


_X = str(10**4300 - 1)  # the most digits Python converts between int and str by default
_RECIPROCALS = ",".join(f"1/{10**1500 + k}" for k in (1, 3, 7))

# argv whose exact results once outgrew that limit, so that printing them exited 3
_TOO_LONG = [
    ["bounds", f"--mt={_X},{_X},{_X}", "--mr=1,1,1"],
    ["bounds", f"--mt={_X},{_X},{_X}", "--mr=1,1,1", "--format=json"],
    ["bounds", f"--mt={_X},{_X},{_X}", "--mr=1,1,1", "--format=csv"],
    ["bounds", f"--mt={_RECIPROCALS}", "--mr=1,1,1", "--format=json"],
    ["allocate", f"--m={_X},{_X},{_X}", "--format=json"],
    ["allocate", f"--m={_X},{_X},{_X}", "--msgs=broadcast", "--format=csv"],
    ["allocate", f"--m={_X},1,1", "--method=brute"],
    ["allocate", "--m=1,1,1", "--method=brute", f"--denominator={_X}"],
    ["sweep", f"--ratio1=1/{_X}:1:1/{_X}", "--format=json"],
]


def _examples(argvs):
    """Each of `argvs` as an explicit example of a @given test."""
    return lambda test: functools.reduce(lambda t, argv: example(argv)(t), argvs, test)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(_argv)
@example(["slope", "--m=2,1,1", "--scheme=uni-b", "--snr=3000,4000"])
@example(["slope", "--m=2,1,1", "--scheme=uni-b", "--snr=3000,3080", "--trials=2"])
@example(["slope", "--m=2,1,1", "--scheme=uni-b", "--snr=-4000,30", "--trials=2"])
@example(["sweep", "--ratio1=1:100000:1/3", "--ratio2=1:100000:1/3"])
@example(["verify-scheme", "--m=a,b,c", "--scheme=uni-a"])
@example(["allocate", "--m=3,,3", "--format=xml"])
@example(["bounds", f"--m=1{'0' * 400},5,5", "--allocate"])
@example(["allocate", f"--m=1{'0' * 400},1{'0' * 400},5"])
@example(["sweep", f"--ratio1={'9' * 401}:{'9' * 401}:1", "--ratio2=1:1:1", "--format=csv"])
@_examples(_TOO_LONG)
def test_user_input_never_exits_3(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())


@pytest.mark.parametrize("argv", _TOO_LONG, ids=range(len(_TOO_LONG)))
def test_numbers_past_the_digit_cap_exit_2_before_any_output(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error[validation]: ")
