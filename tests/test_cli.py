"""End-to-end CLI tests through main(argv)."""

import json
import math
from fractions import Fraction

import pytest

from mimo3way import InternalError, SchemeTag
from mimo3way.rates import SlopeEstimate
from mimo3way.cli import DEFAULT_SEED, main


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


@pytest.mark.parametrize("snr", ["3000,4000", "-4000,30"])
def test_slope_unrepresentable_snr_exits_2(capsys, snr):
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", f"--snr={snr}")
    assert code == 2
    assert err.startswith("error[validation]: snr")
    assert out == ""


def test_slope_overflowing_rate_exits_2_without_warnings(capsys, recwarn):
    # 3080 dB is a finite linear SNR, but rho * G G^H overflows
    code, out, err = _run(capsys, "slope", "--m", "2,1,1", "--scheme", "uni-b", "--trials", "2", "--snr", "3000,3080")
    assert (code, out) == (2, "")
    assert err.startswith("error[validation]: snr_linear 1e+308 overflows")
    assert not recwarn.list


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
