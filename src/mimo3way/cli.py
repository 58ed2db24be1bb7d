"""Command-line interface.

Subcommands: bounds, allocate, verify-scheme, slope, sweep. Output formats
are table (rationals shown with 4 decimals), json (rationals as "p/q"
strings, the text json.dumps(..., indent=2, sort_keys=True) would print, by
the package's own writer, which lays out each dict shape once; the same bytes
for the same arguments and seed), and csv. Defaults: table, except
verify-scheme (json) and sweep (csv). Exit codes: 0 success, 1 usage error,
2 validation failure (bad input, invalid scheme, tolerance exceeded), 3
internal error. verify-scheme and slope take their seed from --seed, else the
MIMO3WAY_SEED environment variable, else 1234; the exact subcommands read
neither.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .allocation import (
    _broadcast_thrice,
    _unicast_thrice,
    optimal_broadcast,
    optimal_unicast_bruteforce,
    optimal_unicast_closed_form,
    optimal_unicast_enumerated,
)
from .bounds import cutset_bound_broadcast, cutset_bound_unicast, genie_bound_unicast
from .channel import AntennaConfig, AntennaSplit, draw_channels
from .errors import InternalError, InvalidInputError, sequence
from .rational import _to_integers, frac, frac_str
from .rates import estimate_dof
from .schemes import SchemeTag, build_scheme, scheme_split, verify_scheme

__all__ = ["main", "DEFAULT_SEED", "SWEEP_MAX_POINTS"]

DEFAULT_SEED = 1234

# Largest ratio grid `sweep` evaluates, checked before any point is: each costs
# a few integer operations, each kept point a gcd and an output line.
# The default grid has 70 points; the largest sweep in the benchmark has 784.
SWEEP_MAX_POINTS = 100_000

# Most digits in an antenna count, a grid denominator, or the numerator or
# denominator of a split entry or sweep bound. The longest number printed from
# such input, the brute-force cell count (n*m + 1)**3, then has 6 * 500 digits,
# under the 4,300 that Python converts from int to str by default.
_MAX_DIGITS = 500
_DIGIT_BOUND = 10**_MAX_DIGITS

# Most entries main reads from its argv: a slope call naming every option, each value apart, has 18 (the longest
# argv of the tests has 13, of the CLI fuzz strategy 10).
_MAX_ARGS = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with a parsable line instead of argparse's exit 2
        raise _UsageError(message)


def _seed(args) -> int:
    """--seed, else MIMO3WAY_SEED, else DEFAULT_SEED."""
    seed = os.environ.get("MIMO3WAY_SEED", DEFAULT_SEED) if args.seed is None else args.seed
    try:
        return int(seed)
    except ValueError as exc:  # only the environment's text can fail
        raise _UsageError(f"MIMO3WAY_SEED must be an integer, got {seed!r}") from exc


def _parse_list(text: str, name: str, convert, noun: str) -> tuple:
    try:
        return tuple(convert(p) for p in text.split(","))
    except ValueError as exc:  # an InvalidInputError names the rule that refused the entry
        reason = f": {exc}" if isinstance(exc, InvalidInputError) else ""
        raise _UsageError(f"--{name} expects comma-separated {noun}, got {text!r}{reason}") from exc


def _within_digits(values, name: str):
    """`values`, refused if a numerator or denominator has over _MAX_DIGITS digits."""
    if any(abs(v.numerator) >= _DIGIT_BOUND or v.denominator >= _DIGIT_BOUND for v in values):
        raise InvalidInputError(f"--{name} takes numbers of at most {_MAX_DIGITS} digits")
    return values


def _parse_range(text: str, name: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--{name} expects start:stop:step, got {text!r}")
    try:
        lo, hi, step = map(frac, parts)
    except InvalidInputError as exc:
        raise _UsageError(f"--{name} expects rational start:stop:step, got {text!r}: {exc}") from exc
    if step <= 0 or hi < lo:
        raise _UsageError(f"--{name} needs step > 0 and stop >= start, got {text!r}")
    return _within_digits((lo, hi, step), name)


def _config(args) -> AntennaConfig:
    m = _within_digits(_parse_list(args.m, "m", int, "integers"), "m")
    if len(m) != 3:
        raise _UsageError(f"--m expects three counts, got {args.m!r}")
    if getattr(args, "sort", False):
        m = tuple(sorted(m, reverse=True))
    return AntennaConfig(*m)


def _dec(x, d: int = 1) -> str:
    """Exact x/d (x int or Fraction, d > 0, reduced or not) to 4 decimals, half to even, "-0.0000" below 0:
    float text without overflow or lost digits."""
    n, d = x.numerator, x.denominator * d
    q, r = divmod(abs(n) * 10000, d)
    q += 2 * r > d or 2 * r == d and q % 2  # half to even
    return f"{'-' if n < 0 else ''}{q // 10000}.{q % 10000:04d}"


def _ratio(n: int, d: int) -> str:
    """n/d (d > 0) as `frac_str` prints it, without a Fraction: "p/q" in lowest terms, "p" when whole."""
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}" if g != d else str(n // g)


def _fmt_triple(vals) -> str:
    return "(" + ", ".join(frac_str(v) for v in vals) + ")"


def _emit_json(payload: dict) -> None:
    """Print `payload` as json.dumps(payload, indent=2, sort_keys=True) would, whose indent skips json's C encoder.
    A payload holds dicts with str keys, lists, str, int, float, bool and None, of these exact types: anything else,
    a tuple or a subclass too, raises TypeError. Cycles are not checked. Payloads repeat a few dict shapes, so each is
    laid out once (_layout)."""
    print("".join(_json_pieces(payload, "\n", [])))


# (sorted keys, text before each value) per (keys in insertion order, indent)
# of a dict already printed; past _MAX_LAYOUTS shapes a layout is not kept
_LAYOUTS: dict = {}
_MAX_LAYOUTS = 256


def _layout(keys: tuple, newline: str) -> list:
    """(key, "{" or "," + indent + encoded key + ": ") in sorted key order."""
    inner, layout = newline + "  ", []
    for key in sorted(keys):  # encode_basestring_ascii refuses a key that is not a str
        layout.append((key, ("," if layout else "{") + inner + encode_basestring_ascii(key) + ": "))
    if len(_LAYOUTS) < _MAX_LAYOUTS:
        _LAYOUTS[keys, newline] = layout
    return layout


def _json_pieces(obj, newline: str, out: list) -> list:
    """`out` with `obj`'s JSON text appended in pieces, `newline` its indent.
    A str item of a container is encoded in place, without a call."""
    kind = type(obj)
    if kind is dict and obj:  # exact containers first: they are most of a payload
        keys, inner = tuple(obj), newline + "  "
        for key, prefix in _LAYOUTS.get((keys, newline)) or _layout(keys, newline):
            value = obj[key]
            if type(value) is str:
                out += (prefix, encode_basestring_ascii(value))
            else:
                out.append(prefix)
                _json_pieces(value, inner, out)
        out.append(newline + "}")
    elif kind is list and obj:
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            if type(item) is str:
                out += (sep, encode_basestring_ascii(item))
            else:
                out.append(sep)
                _json_pieces(item, inner, out)
            sep = comma
        out.append(newline + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is int:
        out.append(repr(obj))
    elif kind is float:
        out.append(repr(obj) if math.isfinite(obj) else "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif kind is list or kind is dict:  # empty
        out.append("[]" if kind is list else "{}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return out


def _emit_csv(rows: list[tuple], header: tuple) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(str(c) for c in row))


def _report_rows(name: str, report) -> list[tuple]:
    rows = [(name, "partial", t.label, _dec(t.value)) for t in report.partial_terms]
    rows += [(name, "total", t.label, _dec(t.value)) for t in report.total_terms]
    rows.append((name, "combined", "+".join(report.binding), _dec(report.combined)))
    return rows


def _cmd_bounds(args) -> int:
    allocation = None
    if args.allocate:
        if args.m is None:
            raise _UsageError("--allocate needs --m")
        config = _config(args)
        allocation = optimal_broadcast(config) if args.msgs == "broadcast" else optimal_unicast_closed_form(config)
        split = allocation.split
    elif args.mt is not None or args.mr is not None:
        if args.mt is None or args.mr is None:
            raise _UsageError("provide both --mt and --mr")
        mt, mr = _parse_list(args.mt, "mt", frac, "rationals"), _parse_list(args.mr, "mr", frac, "rationals")
        split = AntennaSplit(_within_digits(mt, "mt"), _within_digits(mr, "mr"))
    else:
        raise _UsageError("provide --mt/--mr, or --m with --allocate")

    if args.msgs == "broadcast":
        reports = {"cutset_broadcast": cutset_bound_broadcast(split)}
    else:
        reports = {"cutset": cutset_bound_unicast(split), "genie": genie_bound_unicast(split)}

    if args.format == "json":
        _emit_json({"command": "bounds", "msgs": args.msgs, "split": split.to_json(),
                    "reports": {k: r.to_json() for k, r in reports.items()},
                    "allocation": None if allocation is None else allocation.to_json()})
    elif args.format == "csv":
        _emit_csv([row for k, r in reports.items() for row in _report_rows(k, r)], ("family", "kind", "label", "value"))
    else:
        print(f"split: mt={_fmt_triple(split.tx)} mr={_fmt_triple(split.rx)}")
        if allocation is not None:
            print(f"allocated dof: {_dec(allocation.optimal_dof)} ({allocation.regime.value})")
        for k, r in reports.items():
            print(f"{k} bounds:")
            for _, kind, label, value in _report_rows(k, r)[:-1]:  # the terms; the combined row differs
                print(f"  {label:<28} {value:>10}{'  (total)' if kind == 'total' else ''}")
            print(f"  combined = {_dec(r.combined)}  binding: {', '.join(r.binding)}")
    return 0


def _cmd_allocate(args) -> int:
    config = _config(args)
    if args.msgs == "broadcast":
        result = optimal_broadcast(config)
    elif args.method == "enumerated":
        result = optimal_unicast_enumerated(config)
    elif args.method == "brute":
        _within_digits((args.denominator,), "denominator")
        result = optimal_unicast_bruteforce(config, args.denominator)
    else:
        result = optimal_unicast_closed_form(config)

    if args.format == "json":
        _emit_json({"command": "allocate", "msgs": args.msgs, "config": config.to_json(), "result": result.to_json()})
    elif args.format == "csv":
        rows = [
            ("optimal_dof", frac_str(result.optimal_dof)),
            ("regime", result.regime.value),
            ("extension_factor", result.extension_factor),
            ("mt", " ".join(frac_str(v) for v in result.split.tx)),
            ("mr", " ".join(frac_str(v) for v in result.split.rx)),
            ("certificate", result.certificate.to_json()["type"]),
        ]
        if result.broadcast_band is not None:
            rows.append(("band", f"{frac_str(result.broadcast_band.low)}..{frac_str(result.broadcast_band.high)}"))
        _emit_csv(rows, ("field", "value"))
    else:
        print(f"config: m={config.totals}  messages: {args.msgs}")
        print(f"optimal dof: {_dec(result.optimal_dof)}  [{frac_str(result.optimal_dof)}]")
        print(f"regime: {result.regime.value}   extension factor: {result.extension_factor}")
        print(f"split: mt={_fmt_triple(result.split.tx)} mr={_fmt_triple(result.split.rx)}")
        cert = result.certificate.to_json()
        if cert["type"] == "closed-form":
            print(f"certificate: {cert['tag']}")
        else:
            print(f"certificate: duality pair, gap = {cert['gap']}")
        if result.broadcast_band is not None:
            band = result.broadcast_band
            print(f"optimal transmit-sum band: [{frac_str(band.low)}, {frac_str(band.high)}]")
    return 0


def _cmd_verify_scheme(args) -> int:
    seed, config, tag = _seed(args), _config(args), SchemeTag(args.scheme)
    split, _ = scheme_split(config, tag)
    channels = draw_channels(split, seed)
    scheme = build_scheme(config, tag, channels, seed)
    report = verify_scheme(scheme, channels, seed=seed)

    if args.format == "json":
        _emit_json({"command": "verify-scheme", "config": config.to_json(), "scheme": tag.value, "seed": seed,
                    "split": split.to_json(), "extension_factor": scheme.extension_factor, "report": report.to_json()})
    elif args.format == "csv":
        rows = [
            (c.message, c.receiver, c.interference_residual, c.condition_ratio, c.roundtrip_error, c.passed)
            for c in report.checks
        ]
        _emit_csv(rows, ("message", "receiver", "interference", "condition", "roundtrip", "passed"))
    else:
        print(f"scheme {tag.value} on m={config.totals}, seed {seed}: "
              f"{'VALID' if report.valid else 'INVALID'}")
        print(f"claimed dof: {_dec(report.claimed_dof)}  achieved dof: {_dec(report.achieved_dof)}")
        for c in report.checks:
            rt = "-" if c.roundtrip_error != c.roundtrip_error else f"{c.roundtrip_error:.2e}"
            print(
                f"  {c.message}@{c.receiver}: interference {c.interference_residual:.2e}, "
                f"condition {c.condition_ratio:.2e}, roundtrip {rt}, "
                f"{'ok' if c.passed else 'FAIL ' + ','.join(c.failures)}"
            )
    if not report.valid:
        print(f"error[validation]: scheme invalid: {', '.join(report.failures)}", file=sys.stderr)
        return 2
    return 0


def _cmd_slope(args) -> int:
    seed, config, tag = _seed(args), _config(args), SchemeTag(args.scheme)
    snr = _parse_list(args.snr, "snr", float, "numbers")
    if not all(math.isfinite(v) for v in snr):
        raise _UsageError(f"--snr values must be finite, got {args.snr!r}")
    if not 0 <= args.tol < math.inf:  # a NaN or infinite --tol would pass any slope
        raise InvalidInputError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    est = estimate_dof(config, tag, snr, trials=args.trials, seed=seed, fit=args.fit)

    if args.format == "json":
        _emit_json({"command": "slope", "config": config.to_json(), "seed": seed, "estimate": est.to_json()})
    elif args.format == "csv":
        _emit_csv([(f"{db:g}", rate) for db, rate in zip(est.snr_db, est.mean_rates)], ("snr_db", "mean_rate"))
    else:
        print(f"scheme {tag.value} on m={config.totals}: slope {est.slope:.4f} "
              f"vs theoretical {_dec(est.theoretical_dof)} (|error| = {est.abs_error:.4f})")
        for db, rate in zip(est.snr_db, est.mean_rates):
            print(f"  {db:6.1f} dB  {rate:10.4f} bits/use")
        if est.invalid_trials:
            print(f"  ({est.invalid_trials}/{est.trials} draws invalid, skipped)")
    # fail closed: a non-finite estimate or error never passes the gate
    if not (math.isfinite(est.slope) and math.isfinite(est.abs_error) and est.abs_error <= args.tol):
        print(
            f"error[validation]: slope {est.slope:.4f} deviates from "
            f"{_dec(est.theoretical_dof)} by more than {args.tol}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_sweep(args) -> int:
    r1 = _parse_range(args.ratio1, "ratio1")
    r2 = _parse_range(args.ratio2, "ratio2")
    if _within_digits((args.m3,), "m3")[0] < 1:
        raise _UsageError(f"--m3 must be >= 1, got {args.m3}")
    n1, n2 = ((hi - lo) // step + 1 for lo, hi, step in (r1, r2))
    if n1 * n2 > SWEEP_MAX_POINTS:
        raise InvalidInputError(f"sweep grid has {n1 * n2} points, over the limit of {SWEEP_MAX_POINTS}")
    # every point is start + k*step: run the grid on integer numerators over
    # the common denominator d, so the integers (a, b, d) stand for (a/d, b/d, 1)
    d = _to_integers((r1[0], r1[2], r2[0], r2[2]))[1]
    text = _ratio if args.format == "json" else _dec
    axis1, axis2 = ([(x, text(x, d)) for x in range(int(lo * d), math.floor(hi * d) + 1, int(step * d))]
                    for lo, hi, step in (r1, r2))
    thrice = _broadcast_thrice if args.msgs == "broadcast" else _unicast_thrice
    rows = [  # valid ordered configs only
        (a_text, b_text, text(thrice(a, b, d), 3 * d))
        for a, a_text in axis1 for b, b_text in axis2 if a >= b >= d
    ]

    if args.format == "json":
        _emit_json({"command": "sweep", "m3": args.m3, "msgs": args.msgs,
                    "points": [{"m1_over_m3": a, "m2_over_m3": b, "dof_over_m3": v} for a, b, v in rows]})
    elif args.format == "table":
        print(f"{'m1/m3':>8} {'m2/m3':>8} {'dof/m3':>10}")
        for a, b, v in rows:
            print(f"{a:>8} {b:>8} {v:>10}")
    else:
        _emit_csv(rows, ("m1_over_m3", "m2_over_m3", "dof_over_m3"))
    return 0


@functools.cache  # argparse keeps no state between parse_args calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="mimo3way", description="DoF bounds, antenna allocation, and zero-forcing "
                                                  "schemes for three-way full-duplex MIMO networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, default_format="table"):
        p.add_argument("--format", "-f", choices=("table", "json", "csv"), default=default_format)
        p.add_argument("--seed", type=int, help=f"RNG seed of verify-scheme and slope (default: env MIMO3WAY_SEED, "
                                                f"else {DEFAULT_SEED}); the exact subcommands ignore it")
        p.set_defaults(func=func)

    p = sub.add_parser("bounds", help="evaluate DoF bounds at a split")
    p.add_argument("--m", help="total antennas m1,m2,m3 (with --allocate)")
    p.add_argument("--mt", help="transmit split, e.g. 3,1,1 (rationals allowed)")
    p.add_argument("--mr", help="receive split, e.g. 0,2,2")
    p.add_argument("--msgs", choices=("unicast", "broadcast"), default="unicast")
    p.add_argument("--allocate", action="store_true", help="evaluate at the optimal split of --m")
    p.add_argument("--sort", action="store_true", help="sort --m into descending order first")
    common(p, _cmd_bounds)

    p = sub.add_parser("allocate", help="optimal transmit/receive allocation")
    p.add_argument("--m", required=True)
    p.add_argument("--msgs", choices=("unicast", "broadcast"), default="unicast")
    p.add_argument("--method", choices=("closed", "enumerated", "brute"), default="closed")
    p.add_argument("--denominator", type=int, default=3, help="grid denominator for --method brute")
    p.add_argument("--sort", action="store_true")
    common(p, _cmd_allocate)

    p = sub.add_parser("verify-scheme", help="build and verify a zero-forcing scheme")
    p.add_argument("--m", required=True)
    p.add_argument("--scheme", required=True, choices=[t.value for t in SchemeTag])
    p.add_argument("--sort", action="store_true")
    common(p, _cmd_verify_scheme, default_format="json")

    p = sub.add_parser("slope", help="Monte-Carlo DoF slope estimate")
    p.add_argument("--m", required=True)
    p.add_argument("--scheme", required=True, choices=[t.value for t in SchemeTag])
    p.add_argument("--snr", default="30,50", help="SNR grid in dB, e.g. 30,50")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tol", type=float, default=0.2, help="max |slope - theoretical| for exit 0")
    p.add_argument("--fit", choices=("two-point", "lsq-top-half"), default="two-point")
    p.add_argument("--sort", action="store_true")
    common(p, _cmd_slope)

    p = sub.add_parser("sweep", help="normalized optimal DoF over antenna-ratio grid")
    p.add_argument("--m3", type=int, default=1, help="scale anchor (ratios are scale free)")
    p.add_argument("--ratio1", default="1:4:1/3", help="m1/m3 range start:stop:step")
    p.add_argument("--ratio2", default="1:3:1/3", help="m2/m3 range start:stop:step")
    p.add_argument("--msgs", choices=("unicast", "broadcast"), default="unicast")
    common(p, _cmd_sweep, default_format="csv")

    return parser


def main(argv=None) -> int:
    try:
        argv = sequence(sys.argv[1:] if argv is None else argv, "argv must be a sequence of arguments", _MAX_ARGS)
        if len(argv) > _MAX_ARGS:
            raise _UsageError(f"more than {_MAX_ARGS} arguments")
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything unexpected is an internal failure
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
