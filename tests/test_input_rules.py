"""One rule per kind of input: every integer input takes a numpy integer as
the plain int it equals and refuses a bool or a float, and the type rules
are written out only in `errors` (and `rational`, the home of the rational
rule)."""

import ast
import dataclasses
import itertools
import json
import pathlib
import re
import signal
import tracemalloc

import numpy as np
import pytest

import mimo3way
from mimo3way import (
    AntennaConfig,
    AntennaSplit,
    ChannelSet,
    InvalidInputError,
    LinearProgram,
    SchemeTag,
    TransmitSumBand,
    build_scheme,
    draw_channels,
    estimate_dof,
    genie_subproblem,
    null_space_basis,
    optimal_unicast_bruteforce,
    pseudo_inverse,
    random_gaussian,
    receive,
    scheme_split,
    sum_rate,
    symmetric_bound,
    verify_duality,
)
from mimo3way.linalg import random_orthonormal
from mimo3way.rational import frac, triple

HUGE = 10**400


BCAST_CHANNELS = draw_channels(scheme_split(AntennaConfig(3, 2, 1), SchemeTag.BCAST)[0], 0)


def _draw(a):
    return [list(a.shape), a.tobytes().hex()]


# every integer input: (what the site makes of a value, in JSON terms;
# whether the site refuses HUGE, by its own upper bound)
SITES = {
    "seed": (lambda v: estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, trials=2, seed=v).to_json(), False),
    "random_gaussian seed": (lambda v: _draw(random_gaussian(2, 1, v)), False),
    "AntennaConfig": (lambda v: AntennaConfig(v, v, v).to_json(), False),
    "bruteforce denominator": (lambda v: optimal_unicast_bruteforce(AntennaConfig(1, 1, 1), v).to_json(), True),
    "estimate_dof trials": (lambda v: estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, trials=v).to_json(), True),
    "random_gaussian rows": (lambda v: _draw(random_gaussian(v, 1, 0)), True),
    "random_gaussian cols": (lambda v: _draw(random_gaussian(1, v, 0)), True),
    "random_orthonormal": (lambda v: _draw(random_orthonormal(np.random.default_rng(0), v, v)), True),
    "node index": (lambda v: str(AntennaSplit((1, 2, 3), (0, 0, 0)).tx_of(v)), True),
    "h tx node": (lambda v: _draw(BCAST_CHANNELS.h(v, 1)), True),
    "h rx node": (lambda v: _draw(BCAST_CHANNELS.h(1, v)), True),
}


@pytest.mark.parametrize("value", [True, 1.0, -1, np.int64(2), HUGE], ids=["True", "1.0", "-1", "int64(2)", "10**400"])
@pytest.mark.parametrize("site", SITES)
def test_one_integer_rule(site, value):
    call, bounded = SITES[site]
    if isinstance(value, np.integer) or (value is HUGE and not bounded):
        # json.dumps refuses a numpy integer, so this also pins plain ints
        assert json.dumps(call(value)) == json.dumps(call(int(value)))
    else:
        with pytest.raises(InvalidInputError):
            call(value)


_COPY = re.compile(r"isinstance\([^)]*\bbool\b|numbers\.Real|operator\.index\(")


def test_type_rules_have_one_home():
    src = pathlib.Path(mimo3way.__file__).parent
    copies = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name not in ("errors.py", "rational.py")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _COPY.search(line)
    ]
    assert not copies, f"type rules written outside errors.py: {copies}"


def test_json_text_has_one_encoder():
    # cli._emit_json writes every JSON payload: a call of json.dump(s), or
    # any call with an indent, would bring back the slow encoder it replaces
    src = pathlib.Path(mimo3way.__file__).parent
    copies = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
             or any(k.arg == "indent" for k in node.keywords))
    ]
    assert not copies, f"JSON text encoded outside cli._emit_json: {copies}"


def test_lapack_has_one_entry():
    # linalg's private shim makes every SVD, solve and QR; a call of the
    # numpy.linalg wrapper anywhere else (a slogdet too) would bring back its dispatch
    src = pathlib.Path(mimo3way.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("svd", "solve", "qr", "slogdet")
        and getattr(node.func.value, "attr", None) == "linalg"
    ]
    assert not calls, f"numpy.linalg called outside linalg.py: {calls}"


# every rational input takes a numpy integer as the int it equals
RATIONAL_SITES = {
    "frac": frac,
    "AntennaSplit": lambda v: AntennaSplit([v] * 3, (1, 1, 1)).to_json(),
    "symmetric_bound": lambda v: symmetric_bound(v, 2),
}


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.int32(2), np.uint8(3), True, np.bool_(True), 1.0, np.float64(1.0)],
    ids=["int64(1)", "int32(2)", "uint8(3)", "True", "bool_(True)", "1.0", "float64(1.0)"],
)
@pytest.mark.parametrize("site", RATIONAL_SITES)
def test_one_rational_rule(site, value):
    call = RATIONAL_SITES[site]
    if isinstance(value, np.integer):
        assert call(value) == call(int(value))
    else:
        with pytest.raises(InvalidInputError):
            call(value)


# every sequence input takes any iterable in the order the caller wrote it,
# and refuses a str, bytes, mapping or set (characters, keys or hash order)
SEQUENCE_SITES = {
    "AntennaSplit tx": lambda v: AntennaSplit(v, (0, 0, 0)).to_json(),
    "estimate_dof grid": lambda v: estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, v, trials=2).to_json(),
    "LinearProgram c": lambda v: LinearProgram(c=v, a=((1, 1, 1),), b=(1,)).to_json(),
    "LinearProgram a row": lambda v: LinearProgram(c=(1, 1, 1), a=(v,), b=(1,)).to_json(),
    "LinearProgram b": lambda v: LinearProgram(c=(1,), a=((1,),) * 3, b=v).to_json(),
    "LinearProgram variables": lambda v: [*map(str, LinearProgram((1, 1, 1), (), (), v).variables)],
    "LinearProgram constraints": lambda v: [*map(str, LinearProgram((1,), ((1,),) * 3, (1, 1, 1), (), v).constraints)],
}
SEQUENCES = {
    "list": lambda: [1, 2, 3],
    "range": lambda: range(1, 4),
    "ndarray": lambda: np.array([1, 2, 3]),
    "generator": lambda: (v for v in (1, 2, 3)),
    "set": lambda: {1, 2, 3},
    "frozenset": lambda: frozenset((1, 2, 3)),
    "mapping": lambda: {1: 0, 2: 0, 3: 0},
    "str": lambda: "123",
    "bytes": lambda: b"123",
    "scalar": lambda: 1,
}


@pytest.mark.parametrize("value", SEQUENCES)
@pytest.mark.parametrize("site", SEQUENCE_SITES)
def test_one_sequence_rule(site, value):
    call, values = SEQUENCE_SITES[site], SEQUENCES[value]()
    if value in ("list", "range", "ndarray", "generator"):
        assert json.dumps(call(values)) == json.dumps(call((1, 2, 3)))
    else:
        with pytest.raises(InvalidInputError, match="must be a sequence of"):
            call(values)


# the same rule where each entry is itself a sequence or a flag: LinearProgram's
# rows, genie_subproblem's pattern bits, ChannelSet's matrices and receive's
# signals, given as nested tuples so that a set or mapping of them can be built
_CONFIG = AntennaConfig(4, 2, 1)
_SPLIT = AntennaSplit((2, 1, 1), (1, 2, 1))
_CHANNELS = draw_channels(_SPLIT, 0)
_X = tuple(((1.0,),) * t for t in (2, 1, 1))
_Z = tuple(((0.5,),) * r for r in (1, 2, 1))
NESTED_SITES = {
    "LinearProgram a": (((1, 0), (0, 1), (1, 1)), lambda v: LinearProgram((1, 1), v, (1, 2, 3)).to_json()),
    "genie_subproblem bits": ((True,) * 3 + (False,) * 3, lambda v: genie_subproblem(_CONFIG, v).to_json()),
    "ChannelSet matrices": (
        tuple(tuple(map(tuple, h.tolist())) for h in _CHANNELS.matrices),
        lambda v: [_draw(h) for h in ChannelSet(_SPLIT, v).matrices],
    ),
    "receive x": (_X, lambda v: [_draw(y) for y in receive(_CHANNELS, v, _Z)]),
    "receive noise": (_Z, lambda v: [_draw(y) for y in receive(_CHANNELS, _X, v)]),
}
NESTED = {
    "list": list,
    "generator": lambda items: (v for v in items),
    "set": set,
    "mapping": dict.fromkeys,
    "str": lambda items: "abc",
    "scalar": lambda items: 1,
}


@pytest.mark.parametrize("value", NESTED)
@pytest.mark.parametrize("site", NESTED_SITES)
def test_one_sequence_rule_for_nested_entries(site, value):
    items, call = NESTED_SITES[site]
    if value in ("list", "generator"):
        assert json.dumps(call(NESTED[value](items))) == json.dumps(call(items))
    else:
        with pytest.raises(InvalidInputError, match="must be a sequence of"):
            call(NESTED[value](items))


# every public callable that reads a sequence, or an entry of one, from its
# caller: each reads no further than it needs to refuse an endless iterator
_LP = LinearProgram((1, 1), ((1, 0), (0, 1), (1, 1)), (1, 2, 3))
_SCHEME_CHANNELS = draw_channels(scheme_split(_CONFIG, SchemeTag.UNI_B)[0], 0)
_SCHEME = build_scheme(_CONFIG, SchemeTag.UNI_B, _SCHEME_CHANNELS, 0)
ENDLESS_SITES = {
    "AntennaSplit tx": lambda v: AntennaSplit(v, (0, 0, 0)),
    "AntennaSplit rx": lambda v: AntennaSplit((0, 0, 0), v),
    "triple": lambda v: triple(v),
    "TransmitSumBand.contains tx": lambda v: TransmitSumBand(0, 7).contains(_CONFIG, v),
    "ChannelSet matrices": lambda v: ChannelSet(_SPLIT, v),
    "ChannelSet matrix": lambda v: ChannelSet(_SPLIT, (v,) * 6),
    "receive x": lambda v: receive(_CHANNELS, v, _Z),
    "receive noise": lambda v: receive(_CHANNELS, _X, v),
    "receive signal": lambda v: receive(_CHANNELS, (v,) * 3, _Z),
    "LinearProgram c": lambda v: LinearProgram(v, ((1, 1),), (1,)),
    "LinearProgram a": lambda v: LinearProgram((1, 1), v, (1,)),
    "LinearProgram a row": lambda v: LinearProgram((1, 1), (v,), (1,)),
    "LinearProgram a rows": lambda v: LinearProgram((1, 1), ((1, 1) for _ in v), (1,)),
    "LinearProgram b": lambda v: LinearProgram((1, 1), ((1, 1),), v),
    "LinearProgram variables": lambda v: LinearProgram((1, 1), ((1, 1),), (1,), v),
    "LinearProgram constraints": lambda v: LinearProgram((1, 1), ((1, 1),), (1,), (), v),
    "verify_duality v": lambda v: verify_duality(_LP, v, (0, 0, 1)),
    "verify_duality lam": lambda v: verify_duality(_LP, (1, 1), v),
    "genie_subproblem bits": lambda v: genie_subproblem(_CONFIG, v),
    "estimate_dof grid": lambda v: estimate_dof(_CONFIG, SchemeTag.UNI_B, v, trials=2),
    "estimate_dof grid of floats": lambda v: estimate_dof(_CONFIG, SchemeTag.UNI_B, map(float, v), trials=2),
    "null_space_basis": lambda v: null_space_basis(v),
    "pseudo_inverse": lambda v: pseudo_inverse(v),
    "scheme messages": lambda v: sum_rate(dataclasses.replace(_SCHEME, messages=v), _SCHEME_CHANNELS, 1.0),
}


class _Endless(Exception):
    pass


def _endless():
    """itertools.count() read one entry at a time in Python, so that the
    alarm can stop a read that does not end, given up after 10^5 entries so
    that such a read fails fast and small instead."""
    for k in itertools.count():
        if k == 10**5:
            raise _Endless("read 10^5 entries")
        yield k


def _alarm(signum, frame):
    raise _Endless("still reading after 1 s")


@pytest.mark.parametrize("site", ENDLESS_SITES)
def test_an_endless_sequence_is_refused_at_once(site):
    # within one second and a 1 MiB allocation peak; a band refuses by not containing it
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(1)
    tracemalloc.start()
    try:
        if site == "TransmitSumBand.contains tx":
            assert ENDLESS_SITES[site](_endless()) is False
        else:
            with pytest.raises(InvalidInputError):
                ENDLESS_SITES[site](_endless())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert peak <= 2**20, f"{site}: {peak} bytes at the peak"


# what each errors.sequence or rational._rationals site reads of an input
# longer than it takes: its named count + 1, enough to refuse and no more;
# the LinearProgram and verify_duality counts are those of `_LP` and of the
# (1, 1) cost and one row the sites above give
READ_BOUNDS = {
    "AntennaSplit tx": 4,
    "AntennaSplit rx": 4,
    "triple": 4,
    "TransmitSumBand.contains tx": 4,
    "receive x": 4,
    "receive noise": 4,
    "ChannelSet matrices": 7,
    "genie_subproblem bits": 7,
    "LinearProgram c": 257,
    "LinearProgram a": 257,
    "LinearProgram a rows": 257,
    "LinearProgram a row": 3,
    "LinearProgram b": 2,
    "LinearProgram variables": 3,
    "LinearProgram constraints": 2,
    "verify_duality v": 3,
    "verify_duality lam": 4,
    "estimate_dof grid": 4097,
    "estimate_dof grid of floats": 4097,
}


@pytest.mark.parametrize("site", READ_BOUNDS)
def test_each_sequence_site_reads_its_count_and_one_more(site):
    entries = (k for k in range(10_000))  # more than any site takes
    if site == "TransmitSumBand.contains tx":
        assert ENDLESS_SITES[site](entries) is False
    else:
        with pytest.raises(InvalidInputError):
            ENDLESS_SITES[site](entries)
    assert 10_000 - sum(1 for _ in entries) == READ_BOUNDS[site]


def test_estimate_dof_refuses_a_rate_table_over_budget_at_once():
    # (3,3,3) uni-a passes the grid, Gram and work budgets at 4,096 points and
    # 100,000 trials, whose (trials, grid) table of rates alone is 3 GiB: refused
    # within one second and a 1 MiB allocation peak
    grid = [30.0 + k / 100 for k in range(4096)]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(1)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="100000 trials x 4096 snr grid points"):
            estimate_dof(AntennaConfig(3, 3, 3), SchemeTag.UNI_A, grid, trials=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert peak <= 2**20, f"{peak} bytes at the peak"
