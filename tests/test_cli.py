"""End-to-end CLI tests through main(argv)."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mimo3way.rates as rates_mod
from mimo3way import InternalError, SchemeTag
from mimo3way.rates import SlopeEstimate
from mimo3way.cli import _MAX_DIGITS, DEFAULT_SEED, _dec, _emit_json, main


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bounds_split_json(capsys):
    payload = _run_json(capsys, "bounds", "--mt", "3,1,1", "--mr", "0,2,2", "--format", "json")
    genie = payload["reports"]["genie"]
    assert genie["combined_genie"] == "4"
    assert "sum_rx" in genie["binding"]
    cut = payload["reports"]["cutset"]
    assert cut["combined_cutset"] == "4"
    assert payload["allocation"] is None


def test_bounds_zero_transmit_split(capsys):
    payload = _run_json(capsys, "bounds", "--mt", "0,0,0", "--mr", "1,1,1", "--format", "json")
    assert payload["reports"]["genie"]["combined_genie"] == "0"


def test_bounds_fractional_split(capsys):
    code, out, err = _run(capsys, "bounds", "--mt", "3,1/3,1", "--mr", "0,2/3,1")
    assert code == 0
    assert "combined" in out


def test_bounds_allocate_broadcast_table(capsys):
    code, out, err = _run(capsys, "bounds", "--m", "5,3,2", "--msgs", "broadcast", "--allocate")
    assert code == 0
    assert "allocated dof: 5.0000 (broadcast)" in out
    assert "combined = 5.0000" in out
    assert "sum_rx" in out


def test_bounds_csv_header(capsys):
    code, out, err = _run(capsys, "bounds", "--mt", "3,1,1", "--mr", "0,2,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,kind,label,value"
    assert any(line.startswith("genie,combined,") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds",),
        ("bounds", "--mt", "3,1,1"),
        ("bounds", "--allocate"),
        ("bounds", "--mt", "a,b,c", "--mr", "0,2,2"),
    ],
)
def test_bounds_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith("error[usage]:")


def test_allocate_table(capsys):
    code, out, err = _run(capsys, "allocate", "--m", "3,3,3")
    assert code == 0
    assert "optimal dof: 4.0000  [4]" in out
    assert "mt=(3, 1, 1) mr=(0, 2, 2)" in out
    assert "extension factor: 1" in out


def test_allocate_fractional_json(capsys):
    payload = _run_json(capsys, "allocate", "--m", "4,4,4", "--format", "json")
    assert payload["result"]["optimal_dof"] == "16/3"
    assert payload["result"]["extension_factor"] == 3


def test_allocate_methods_agree(capsys):
    values = []
    for method in ("closed", "enumerated", "brute"):
        payload = _run_json(capsys, "allocate", "--m", "5,4,2", "--method", method, "--format", "json")
        values.append(payload["result"]["optimal_dof"])
    assert values == ["16/3"] * 3


def test_allocate_brute_grid_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("mimo3way.allocation.BRUTEFORCE_MAX_CELLS", 100)
    code, out, err = _run(capsys, "allocate", "--m", "2,1,1", "--method", "brute")
    assert code == 2
    assert err.startswith("error[validation]:") and "over the limit of 100" in err


def test_allocate_broadcast_band(capsys):
    payload = _run_json(capsys, "allocate", "--m", "5,3,2", "--msgs", "broadcast", "--format", "json")
    assert payload["result"]["optimal_dof"] == "5"
    assert payload["result"]["broadcast_band"] == {"low": "3", "high": "5"}


def test_allocate_sort_flag(capsys):
    code, out, err = _run(capsys, "allocate", "--m", "2,3,4")
    assert code == 2
    assert err.startswith("error[validation]:")
    sorted_code, sorted_out, _ = _run(capsys, "allocate", "--m", "2,3,4", "--sort")
    plain_code, plain_out, _ = _run(capsys, "allocate", "--m", "4,3,2")
    assert sorted_code == plain_code == 0
    assert sorted_out == plain_out


def test_verify_scheme_valid_json_default(capsys):
    code, out, err = _run(capsys, "verify-scheme", "--m", "3,3,3", "--scheme", "uni-a", "--seed", "1")
    assert code == 0
    payload = json.loads(out)  # json is the default format here
    assert payload["report"]["valid"] is True
    assert payload["report"]["claimed_dof"] == "4"
    assert payload["scheme"] == "uni-a"
    assert payload["seed"] == 1


def test_verify_scheme_rejects_small_node(capsys):
    code, out, err = _run(capsys, "verify-scheme", "--m", "2,1,1", "--scheme", "uni-a")
    assert code == 2
    assert err.startswith("error[validation]:")
    assert "3 antennas" in err


def test_verify_scheme_unknown_scheme(capsys):
    code, out, err = _run(capsys, "verify-scheme", "--m", "3,3,3", "--scheme", "zf")
    assert code == 1
    assert "choose from" in err


def test_verify_scheme_byte_identical(capsys):
    _, first, _ = _run(capsys, "verify-scheme", "--m", "4,2,1", "--scheme", "uni-b")
    _, second, _ = _run(capsys, "verify-scheme", "--m", "4,2,1", "--scheme", "uni-b")
    assert first == second


def test_seed_env_override(capsys, monkeypatch):
    _, flagged, _ = _run(capsys, "verify-scheme", "--m", "3,3,3", "--scheme", "uni-a", "--seed", "9")
    monkeypatch.setenv("MIMO3WAY_SEED", "9")
    _, from_env, _ = _run(capsys, "verify-scheme", "--m", "3,3,3", "--scheme", "uni-a")
    assert from_env == flagged
    monkeypatch.setenv("MIMO3WAY_SEED", "not-a-seed")
    code, out, err = _run(capsys, "verify-scheme", "--m", "3,3,3", "--scheme", "uni-a")
    assert code == 1
    assert "MIMO3WAY_SEED" in err


def test_cached_parser_reads_the_seed_env_on_every_call(capsys, monkeypatch):
    argv = ("verify-scheme", "--m", "3,3,3", "--scheme", "uni-a")
    monkeypatch.setenv("MIMO3WAY_SEED", "9")
    assert _run_json(capsys, *argv)["seed"] == 9
    monkeypatch.delenv("MIMO3WAY_SEED")
    assert _run_json(capsys, *argv)["seed"] == DEFAULT_SEED
    monkeypatch.setenv("MIMO3WAY_SEED", "not-a-seed")
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert "MIMO3WAY_SEED" in err


@pytest.mark.parametrize(
    "bad",
    [("allocate", "--m", "4,2,1", "--method", "lp"), ("allocate",), ("bounds", "--mt", "1,1,1"), ("nope",)],
)
def test_usage_error_leaves_the_cached_parser_intact(capsys, bad):
    argv = ("allocate", "--m", "4,2,1", "--method", "enumerated", "--format", "json")
    want = _run_json(capsys, *argv)
    code, _, err = _run(capsys, *bad)
    assert code == 1, err
    assert err.startswith("error[usage]")
    got = _run_json(capsys, *argv)
    assert got == want
    assert got["result"]["optimal_dof"] == "3"


def test_phase1_templates_are_built_lazily():
    # importing the package and a closed-form call build no LP template
    script = (
        "import contextlib, io, mimo3way\n"
        "from mimo3way import allocation\n"
        "from mimo3way.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['allocate', '--m', '4,2,1', '--method', 'closed']) == 0\n"
        "print(allocation._template.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_default_seed_used(capsys):
    payload = _run_json(capsys, "verify-scheme", "--m", "3,3,3", "--scheme", "uni-a", "--format", "json")
    assert payload["seed"] == DEFAULT_SEED


def test_slope_within_tolerance(capsys):
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "4")
    assert code == 0
    assert "vs theoretical 2.0000" in out


def test_slope_tolerance_exceeded(capsys):
    code, out, err = _run(
        capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "4", "--tol", "1e-12",
    )
    assert code == 2
    assert "deviates" in err


@pytest.mark.parametrize("snr", ["30,abc", "30,,50", "30,inf", "nan,50", "-inf,30"])
def test_slope_bad_snr_is_usage_error(capsys, snr):
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "2", f"--snr={snr}")
    assert code == 1
    assert err.startswith("error[usage]: --snr")
    assert out == ""


def test_slope_over_the_gram_budget_exits_2_before_drawing(capsys, monkeypatch):
    def no_draw(*a, **k):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(rates_mod, "_draw", no_draw)
    snr = ",".join(map(str, range(600)))  # 10 trials x 600 points x 200^2: 240M entries, 3.8 GB a stack
    code, out, err = _run(capsys, "slope", "--m", "400,200,200", "--scheme", "uni-b", "--trials", "10", f"--snr={snr}")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error[validation]: 10 trials x 600 snr grid points")


@pytest.mark.parametrize("snr", ["3000,4000", "-4000,30"])
def test_slope_unrepresentable_snr_exits_2(capsys, snr):
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", f"--snr={snr}")
    assert code == 2
    assert err.startswith("error[validation]: snr")
    assert out == ""


@pytest.mark.parametrize("argv", [("slope", "--trials=2"), ("verify-scheme",)])
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = _run(capsys, *argv, "--m", "2,1,1", "--scheme", "uni-b", "--seed=-1")
    assert code == 2
    assert err.startswith("error[validation]: seed must be a nonnegative integer")
    assert out == ""


def test_slope_overflowing_rate_exits_2_without_warnings(capsys, recwarn):
    # 3080 dB is a finite linear SNR, but rho * G G^H overflows
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "2", "--snr", "3000,3080")
    assert (code, out) == (2, "")
    assert err.startswith("error[validation]: snr_linear 1e+308 overflows")
    assert not recwarn.list


@pytest.mark.parametrize("tol", ["inf", "-1"])
def test_slope_refuses_a_tolerance_that_passes_everything(capsys, tol):
    # with --tol inf a slope of 1.08 against a DoF of 2 exited 0
    code, out, err = _run(
        capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "2", "--snr", "0,1", "--tol", tol,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error[validation]: --tol must be a finite number >= 0")


@pytest.mark.parametrize("slope", [math.nan, math.inf])
@pytest.mark.parametrize("tol", ["0.2", "inf"])
def test_slope_gate_fails_closed_on_non_finite(capsys, monkeypatch, slope, tol):
    def fake(config, tag, snr, **kwargs):
        return SlopeEstimate(
            scheme=SchemeTag.UNI_B, snr_db=snr, mean_rates=(1.0, slope), slope=slope,
            theoretical_dof=Fraction(2), abs_error=abs(slope - 2.0), trials=1, invalid_trials=0, fit="two-point",
        )

    monkeypatch.setattr("mimo3way.cli.estimate_dof", fake)
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--tol", tol)
    assert code == 2
    assert err.startswith("error[validation]:")


def test_slope_json(capsys):
    payload = _run_json(
        capsys, "slope", "--m", "5,3,2", "--scheme", "bcast", "--trials", "4", "--format", "json",
    )
    est = payload["estimate"]
    assert est["scheme"] == "bcast"
    assert est["theoretical_dof"] == "5"
    assert est["abs_error"] <= 0.2


def test_slope_csv(capsys):
    code, out, err = _run(
        capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "snr_db,mean_rate"
    assert len(lines) == 3


def test_sweep_default_csv(capsys):
    code, out, err = _run(capsys, "sweep")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m1_over_m3,m2_over_m3,dof_over_m3"
    assert len(lines) == 50  # 49 ordered ratio pairs
    assert lines[1] == "1.0000,1.0000,1.3333"


def test_sweep_exact_rationals(capsys):
    payload = _run_json(capsys, "sweep", "--format", "json")
    points = {(p["m1_over_m3"], p["m2_over_m3"]): p["dof_over_m3"] for p in payload["points"]}
    assert points[("1", "1")] == "4/3"
    assert points[("2", "1")] == "2"  # both region formulas meet here
    assert points[("4", "2")] == "3"
    assert points[("5/3", "4/3")] == "17/9"
    assert len(points) == 49


def test_sweep_broadcast_region(capsys):
    payload = _run_json(capsys, "sweep", "--msgs", "broadcast", "--format", "json")
    points = {(p["m1_over_m3"], p["m2_over_m3"]): p["dof_over_m3"] for p in payload["points"]}
    assert points[("3", "2")] == "3"  # m2 + m3 over m3
    assert points[("1", "1")] == "2"


def test_sweep_point_cap(capsys, monkeypatch):
    monkeypatch.setattr("mimo3way.cli.SWEEP_MAX_POINTS", 70)  # the default grid is 10 x 7
    assert _run(capsys, "sweep")[0] == 0
    monkeypatch.setattr("mimo3way.cli.SWEEP_MAX_POINTS", 69)
    code, out, err = _run(capsys, "sweep")
    assert code == 2
    assert err.startswith("error[validation]:") and "70 points, over the limit of 69" in err
    assert out == ""


def test_sweep_refuses_huge_grid(capsys):
    code, out, err = _run(capsys, "sweep", "--ratio1", "1:100000:1/3", "--ratio2", "1:100000:1/3")
    assert code == 2
    assert "89998800004 points" in err  # 299,998 points per axis


def test_sweep_bad_range(capsys):
    code, out, err = _run(capsys, "sweep", "--ratio1", "4:1:1/3")
    assert code == 1
    assert "step" in err


def test_decimal_text_equals_float_formatting_on_small_rationals():
    # q = 32 puts exact ties (p/32 for odd p) on the grid; -1/100000 prints -0.0000
    extra = (Fraction(0), Fraction(-1, 100000), Fraction(1, 100000), Fraction(-5, 32))
    for x in (*(Fraction(p, q) for q in range(1, 33) for p in range(-1000, 1001)), *extra):
        assert _dec(x) == f"{float(x):.4f}", x


_BIG = 10**400


def test_large_values_print_exact_digits(capsys):
    # a float overflows past 1e308 and drops digits past 2**53
    code, out, err = _run(capsys, "bounds", "--mt", "99999999999999999999999/7,1,1", "--mr", "1,1,1", "-f", "csv")
    assert code == 0, err
    assert "genie,total,genie{1,2},14285714285714285714286.5714" in out.splitlines()
    code, out, err = _run(capsys, "bounds", f"--m={_BIG},5,5", "--allocate")
    assert code == 0, err
    assert "allocated dof: 10.0000 (m1>=m2+m3)" in out and f"  sum_tx{' ' * 23}{_BIG}.0000  (total)" in out
    code, out, err = _run(capsys, "allocate", f"--m={_BIG},{_BIG},5")
    assert code == 0, err
    assert f"optimal dof: {_BIG + 1}.6667  [{3 * _BIG + 5}/3]" in out  # m1 + (m2+m3-m1)/3
    big = 10**401 - 1
    code, out, err = _run(capsys, "sweep", f"--ratio1={big}:{big}:1", "--ratio2=1:1:1", "-f", "csv")
    assert code == 0, err
    assert out.splitlines()[1:] == [f"{big}.0000,1.0000,2.0000"]


def _coprime_below(bound: int, n: int) -> list[int]:
    """n pairwise coprime integers, counting down from bound - 1."""
    found, k = [], bound - 1
    while len(found) < n:
        if all(math.gcd(k, q) == 1 for q in found):
            found.append(k)
        k -= 1
    return found


def test_results_of_input_at_the_digit_cap_stay_printable(capsys):
    # the longest numbers input at the cap yields: split entries over six
    # coprime denominators, the brute-force cell count (n*m + 1)**3 and the
    # sweep grid size in their refusals, and the allocations of the largest m
    top = 10**_MAX_DIGITS
    q, big = _coprime_below(top, 12), str(top - 1)
    entries = [f"{a}/{b}" for a, b in zip(q[6:], q[:6])]
    split = ["--mt", ",".join(entries[:3]), "--mr", ",".join(entries[3:])]
    runs = [["bounds", *split, "--msgs", msgs] for msgs in ("unicast", "broadcast")]
    runs += [["allocate", "--m", f"{big},{big},{big}", "--method", method] for method in ("closed", "enumerated")]
    runs += [
        ["allocate", "--m", f"{big},{big},{big}", "--msgs", "broadcast"],
        ["allocate", "--m", f"{big},{big},{big}", "--method", "brute", "--denominator", big],
        ["sweep", "--ratio1", f"1/{q[0]}:{big}:1/{q[1]}", "--ratio2", f"1/{q[2]}:{big}:1/{q[3]}"],
        ["sweep", "--ratio1", f"{entries[0]}:{big}:1", "--ratio2", f"{entries[1]}:{big}:1", "--m3", big],
    ]
    longest = 0
    for argv in runs:
        for fmt in ("table", "json", "csv"):
            code, out, err = _run(capsys, *argv, "--format", fmt)
            assert code in (0, 2) and "internal" not in err, (argv[:1], fmt, err[:200])
            longest = max(longest, *(len(run) for run in re.findall(r"\d+", out + err)))
    assert 6 * _MAX_DIGITS <= longest < sys.get_int_max_str_digits()
    # one digit more is refused
    assert _run(capsys, "allocate", "--m", f"{top},1,1")[0] == 2
    assert _run(capsys, "bounds", "--mt", f"1/{top},1,1", "--mr", "1,1,1")[0] == 2


def _reference_sweep(ratio1, ratio2, m3, msgs, fmt):
    """Stdout of `sweep` computed point by point in exact Fractions, with the
    two region formulas written out: the reference the integer grid must match."""

    def parse(text):
        return tuple(Fraction(p.strip()) for p in text.split(":"))

    def value(a, b):
        return b + 1 if msgs == "broadcast" else min(a + (b + 1 - a) / 3, b + 1)

    def dec(x):
        return f"{float(x):.4f}"

    r1, r2 = parse(ratio1), parse(ratio2)
    n1, n2 = ((hi - lo) // step + 1 for lo, hi, step in (r1, r2))
    rows = []
    for a in (r1[0] + k * r1[2] for k in range(n1)):
        for b in (r2[0] + k * r2[2] for k in range(n2)):
            if a >= b >= 1:
                rows.append((a, b, value(a, b)))
    if fmt == "json":
        points = [{"m1_over_m3": str(a), "m2_over_m3": str(b), "dof_over_m3": str(v)} for a, b, v in rows]
        payload = {"command": "sweep", "m3": m3, "msgs": msgs, "points": points}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "table":
        lines = [f"{'m1/m3':>8} {'m2/m3':>8} {'dof/m3':>10}"]
        lines += [f"{dec(a):>8} {dec(b):>8} {dec(v):>10}" for a, b, v in rows]
    else:
        lines = ["m1_over_m3,m2_over_m3,dof_over_m3"] + [f"{dec(a)},{dec(b)},{dec(v)}" for a, b, v in rows]
    return "".join(line + "\n" for line in lines)


def _rational_text(x: Fraction, decimal: bool) -> str:
    if decimal and 10**6 % x.denominator == 0:  # exact as a decimal, e.g. 0.5 or -1.25
        return str(Decimal(x.numerator) / x.denominator)
    return str(x)


@st.composite
def _sweep_range(draw):
    """A small start:stop:step range: starts from -6 to 16, at most 3 wide,
    steps with denominators from 1 to 10, each part as p/q or decimal text."""
    start = Fraction(draw(st.integers(-6, 16)), draw(st.sampled_from([1, 2, 3, 4, 5, 7])))
    step = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 10])))
    span = Fraction(draw(st.integers(0, 12)), 4)
    parts = (start, start + span, step)
    return ":".join(_rational_text(x, draw(st.booleans())) for x in parts)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_sweep_range(), _sweep_range(), st.integers(1, 3))
@example("-1/2:5:2/7", "0.5:3:1/5", 1)  # negative start, decimal start, steps over 7 and 5
@example("-1/2:1/2:1/4", "0:2:1/3", 1)  # no m1/m3 >= 1: no point passes the filter
@example("1:3:1/2", "3.5:4:0.5", 2)  # every m2/m3 above every m1/m3: no point passes
@example("0:4:3/4", "1/3:2:1/6", 1)
def test_sweep_equals_per_point_fraction_reference(ratio1, ratio2, m3):
    for msgs in ("unicast", "broadcast"):
        for fmt in ("table", "json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["sweep", f"--ratio1={ratio1}", f"--ratio2={ratio2}", f"--m3={m3}",
                             "--msgs", msgs, "--format", fmt])
            assert code == 0
            assert out.getvalue() == _reference_sweep(ratio1, ratio2, m3, msgs, fmt), (msgs, fmt)


def _emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(payload)
    return out.getvalue()


# JSON leaves: non-ASCII text, None, bools, big ints, floats with NaN, the
# infinities and -0.0, and empty containers
_JSON_LEAVES = (
    st.text()
    | st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, [], {}])
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_PAYLOADS)
def test_json_writer_equals_json_dumps(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"t": (1, "a", ("b", ())), "u": ()},  # tuples print as lists
        {"flags": [True, 1, False, 0, None]},  # bool is an int subclass
        {"f": [np.float64(0.1), -0.0, math.nan, -math.inf], "big": -(10**80)},
        {"\u00e9t\u00e9": "\u2192 \U0001d49c \\ \" \x00 \u2028", "": {"": []}},
    ],
    ids=["tuple", "bool-next-to-int", "floats", "non-ascii"],
)
def test_json_writer_cases(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "payload", [{"n": np.int64(1)}, [object()], {1: "an int key"}], ids=["int64", "object", "int-key"]
)
def test_json_writer_refuses_what_json_dumps_cannot_print(payload):
    # json.dumps refuses the first two too; it would print the int key as "1",
    # but no CLI payload has a key that is not a str
    with pytest.raises(TypeError):
        _emitted(payload)


def test_unknown_subcommand(capsys):
    code, out, err = _run(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("error[usage]:")


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(*a, **k):
        raise InternalError("synthetic failure")

    monkeypatch.setattr("mimo3way.cli.estimate_dof", boom)
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b")
    assert code == 3
    assert err.startswith("error[internal]:")


def test_unexpected_exception_maps_to_internal(capsys, monkeypatch):
    monkeypatch.setattr("mimo3way.cli.estimate_dof", lambda *a, **k: 1 / 0)
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b")
    assert code == 3
    assert "ZeroDivisionError" in err
