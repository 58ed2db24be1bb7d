"""Benchmark inputs and the independent correctness oracle.

Stdlib only: nothing here imports mimo3way, so a defect in the package
cannot also hide in the check. Inputs are pure functions of the run seed;
the program sees only the generated arguments. Every check returns a list
of failure strings (empty when the output is correct) and never raises.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# every ordered config with 10 >= m1 >= m2 >= m3 >= 1 (220 of them)
CERTIFY_CONFIGS = [(a, b, c) for a in range(1, 11) for b in range(1, a + 1) for c in range(1, b + 1)]

# the criterion-3 scheme mix: 34 uni-a, 50 uni-b and 84 bcast configs
ZF_CASES = (
    [((a, b, c), "uni-a") for a, b, c in CERTIFY_CONFIGS if a <= 7 and c >= 3 and a <= b + c]
    + [((a, b, c), "uni-b") for c in range(1, 9) for b in range(c, 9) for a in range(b + c, 9)]
    + [((a, b, c), "bcast") for a, b, c in CERTIFY_CONFIGS if a <= 7]
)

# (3,3,3) comes twice per rotation: with four equal shares the median op
# falls in the latency gap between the second and third cheapest cases and
# op_p50_ms jumps between them from run to run; with (3,3,3) at 2/5 it falls
# inside that case's own spread
MC_CASES = (((3, 3, 3), "uni-a"), ((4, 2, 1), "uni-b"), ((3, 3, 3), "uni-a"), ((5, 3, 2), "bcast"), ((7, 6, 5), "uni-a"))
MC_GRID_DB = tuple(2.5 * i for i in range(25))  # 0 to 60 dB
MC_TRIALS = 20
MC_FIT = "lsq-top-half"
SLOPE_TOL = 0.2
RESIDUAL_TOL = 1e-10

CERTIFY_CALLS = ("closed", "enumerated", "brute", "broadcast", "bounds-unicast", "bounds-broadcast", "sweep")


def derive(*parts) -> int:
    """Deterministic 63-bit integer from the run seed and an op's coordinates."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def shuffled(items, *key):
    items = list(items)
    random.Random(derive(*key)).shuffle(items)
    return items


def certify_argv(m, call: str) -> list[str]:
    ms = ",".join(str(x) for x in m)
    argv = {
        "closed": ["allocate", "--m", ms, "--method", "closed"],
        "enumerated": ["allocate", "--m", ms, "--method", "enumerated"],
        "brute": ["allocate", "--m", ms, "--method", "brute"],
        "broadcast": ["allocate", "--m", ms, "--msgs", "broadcast"],
        "bounds-unicast": ["bounds", "--m", ms, "--allocate"],
        "bounds-broadcast": ["bounds", "--m", ms, "--allocate", "--msgs", "broadcast"],
        "sweep": ["sweep", "--ratio1", f"1:{m[0]}:1/3", "--ratio2", f"1:{m[1]}:1/3"],
    }[call]
    return argv + ["--format", "json"]


def certify_inputs(seed: int, part: int, parts: int):
    """(config, call) pairs: part `part` of `parts` disjoint slices of the
    seed-shuffled configs, each config with its seven calls in fixed order.
    Finite: no config repeats across the parts of one run."""
    for m in shuffled(CERTIFY_CONFIGS, "certify", seed)[part::parts]:
        for call in CERTIFY_CALLS:
            yield m, call


def zf_inputs(seed: int, part: int, parts: int):
    """(config, tag, draw seed) forever: the 168 cases in a fresh
    seed-shuffled order per pass, each op with its own derived draw seed."""
    k = 0
    for p in range(1 << 62):
        for m, tag in shuffled(ZF_CASES, "zf-verify", seed, part, p):
            yield m, tag, derive("zf-verify", seed, part, k)
            k += 1


def mc_inputs(seed: int, part: int, parts: int):
    """(config, tag, seed) forever, rotating over MC_CASES."""
    for k in range(1 << 62):
        m, tag = MC_CASES[k % len(MC_CASES)]
        yield m, tag, derive("mc-slope", seed, part, k)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(obj) -> str:
    return digest(json.dumps(obj, sort_keys=True).encode())


# ---- exact formulas, written out here independently of the package ----

def unicast_value(m) -> Fraction:
    m1, m2, m3 = (Fraction(x) for x in m)
    return min(m1 + (m2 + m3 - m1) / 3, m2 + m3)


def broadcast_value(m) -> Fraction:
    return Fraction(m[1] + m[2])


def genie_combined(tx, rx) -> Fraction:
    (t1, t2, t3), (r1, r2, r3) = tx, rx
    return min(
        t1 + t2 + t3,
        r1 + r2 + r3,
        max(r2, t3) + max(r3, t2),
        max(r2, t1) + max(r1, t2),
        max(r3, t1) + max(r1, t3),
    )


def cutset_combined(tx, rx) -> Fraction:
    (t1, t2, t3), (r1, r2, r3) = tx, rx
    return min(t2 + t3 + r2 + r3, t1 + t2 + t3, r1 + r2 + r3)


def cutset_broadcast_combined(tx, rx) -> Fraction:
    (t1, t2, t3), (r1, r2, r3) = tx, rx
    return min(r1 + r2 + r3, t2 + t3 + r2 + r3, r3 + t1 + t2 + 2 * t3, 2 * (t1 + t2 + t3))


def _fracs(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _split(obj, m, fails: list[str]):
    tx, rx = _fracs(obj["mt"]), _fracs(obj["mr"])
    if len(tx) != 3 or len(rx) != 3 or any(x < 0 for x in tx + rx):
        fails.append(f"malformed split {obj}")
    elif tuple(t + r for t, r in zip(tx, rx)) != _fracs(m):
        fails.append(f"split {obj} does not partition {m}")
    return tx, rx


def _duality(cert, value: Fraction, fails: list[str]) -> None:
    """Re-check the LP certificate: A v <= b, lam >= 0, A'lam = -c, c.v + b.lam = 0."""
    lp = cert["lp"]
    c, b = _fracs(lp["c"]), _fracs(lp["b"])
    a = [_fracs(row) for row in lp["a"]]
    v, lam = _fracs(cert["v"]), _fracs(cert["lam"])
    if len(v) != len(c) or len(lam) != len(b) or len(a) != len(b) or any(len(r) != len(c) for r in a):
        fails.append("certificate dimensions disagree")
        return
    if any(sum(x * y for x, y in zip(row, v)) > bi for row, bi in zip(a, b)):
        fails.append("certificate: A v <= b violated")
    if any(x < 0 for x in lam):
        fails.append("certificate: negative multiplier")
    if any(sum(lam[i] * a[i][j] for i in range(len(a))) != -c[j] for j in range(len(c))):
        fails.append("certificate: A'lam != -c")
    cv = sum(x * y for x, y in zip(c, v))
    if cv + sum(x * y for x, y in zip(b, lam)) != 0:
        fails.append("certificate: nonzero duality gap")
    if -cv != value or Fraction(cert["gap"]) != 0:
        fails.append(f"certificate value {-cv} != optimal dof {value}")


def _sweep_points(m) -> list[tuple[Fraction, Fraction, Fraction]]:
    third = Fraction(1, 3)
    steps_a, steps_b = 3 * (m[0] - 1) + 1, 3 * (m[1] - 1) + 1
    points = []
    for i in range(steps_a):
        a = 1 + i * third
        for j in range(steps_b):
            b = 1 + j * third
            if a >= b:
                points.append((a, b, (2 * a + b + 1) / 3 if a <= b + 1 else b + 1))
    return points


def check_certify(m, call: str, rc: int, out: str) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    fails = []
    try:
        _check_certify_payload(m, call, json.loads(out), fails)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        fails.append(f"unreadable payload: {type(exc).__name__}: {exc}")
    return fails


def _check_certify_payload(m, call: str, payload: dict, fails: list[str]) -> None:
    if call == "sweep":
        got = [
            (Fraction(p["m1_over_m3"]), Fraction(p["m2_over_m3"]), Fraction(p["dof_over_m3"]))
            for p in payload["points"]
        ]
        if got != _sweep_points(m):
            fails.append("sweep points differ from the region formulas")
        return

    if call.startswith("bounds"):
        alloc = payload["allocation"]
        tx, rx = _split(payload["split"], m, fails)
        reports = payload["reports"]
        if call == "bounds-broadcast":
            want = broadcast_value(m)
            got = Fraction(reports["cutset_broadcast"]["combined_cutset"])
            if got != want or cutset_broadcast_combined(tx, rx) != want:
                fails.append(f"broadcast cut-set at the allocated split {got} != {want}")
        else:
            want = unicast_value(m)
            genie = Fraction(reports["genie"]["combined_genie"])
            cutset = Fraction(reports["cutset"]["combined_cutset"])
            if genie != want or genie_combined(tx, rx) != want:
                fails.append(f"genie bound at the allocated split {genie} != {want}")
            if cutset != cutset_combined(tx, rx) or cutset < genie:
                fails.append(f"cut-set bound {cutset} wrong at the allocated split")
        if Fraction(alloc["optimal_dof"]) != want or alloc["split"] != payload["split"]:
            fails.append("allocation disagrees with the bounds payload")
        return

    result = payload["result"]
    value = Fraction(result["optimal_dof"])
    tx, rx = _split(result["split"], m, fails)
    if call == "broadcast":
        band = result["broadcast_band"]
        low, high = Fraction(band["low"]), Fraction(band["high"])
        if value != broadcast_value(m):
            fails.append(f"broadcast dof {value} != m2+m3")
        if (low, high) != (m[1], m[0]) or not low <= sum(tx) <= high:
            fails.append("broadcast split outside its transmit-sum band")
        if cutset_broadcast_combined(tx, rx) != value:
            fails.append("broadcast split does not attain its value")
        return

    if value != unicast_value(m):
        fails.append(f"{call} dof {value} != closed-form value {unicast_value(m)}")
    if genie_combined(tx, rx) != value:
        fails.append(f"{call} split does not attain its value")
    if call == "enumerated":
        if result["certificate"]["type"] != "duality-pair":
            fails.append("enumerated result carries no duality certificate")
        else:
            _duality(result["certificate"], value, fails)


def _finite_at_most(x, tol: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x <= tol


def check_zf(m, tag: str, report: dict) -> list[str]:
    want = broadcast_value(m) if tag == "bcast" else unicast_value(m)
    fails = []
    if report["valid"] is not True or report["failures"]:
        fails.append(f"scheme invalid: {report['failures']}")
    if Fraction(report["achieved_dof"]) != want:
        fails.append(f"achieved dof {report['achieved_dof']} != {want}")
    for c in report["checks"]:
        rt = c["roundtrip_error"]
        if not _finite_at_most(c["interference_residual"], RESIDUAL_TOL) or not (
            rt is None or _finite_at_most(rt, RESIDUAL_TOL)
        ):
            fails.append(f"residual above {RESIDUAL_TOL} at {c['message']}@{c['receiver']}")
    return fails


def check_mc(m, tag: str, estimate: dict, zf_rates, ablated_rates) -> list[str]:
    want = broadcast_value(m) if tag == "bcast" else unicast_value(m)
    fails = []
    slope = estimate["slope"]
    if not (isinstance(slope, float) and math.isfinite(slope) and abs(slope - float(want)) <= SLOPE_TOL):
        fails.append(f"slope {slope} not within {SLOPE_TOL} of {want}")
    if Fraction(estimate["theoretical_dof"]) != want:
        fails.append(f"theoretical dof {estimate['theoretical_dof']} != {want}")
    rates = list(estimate["mean_rates"]) + list(zf_rates) + list(ablated_rates)
    if not all(math.isfinite(r) for r in rates):
        fails.append("non-finite rate")
    elif not ablated_rates[-1] < zf_rates[-1]:
        fails.append(f"ablated rate {ablated_rates[-1]} not below zero-forcing rate {zf_rates[-1]}")
    return fails
