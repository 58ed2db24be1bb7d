"""Python API fuzz: wrong types and negative, huge, non-finite and fractional
values fed to the exported entry points may raise InvalidInputError (or its
subclass RegimeError) and nothing else. Valid inputs stay small (counts
<= 4, at most two Monte-Carlo trials) so the whole run takes seconds."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimo3way import (
    AntennaConfig,
    AntennaSplit,
    ChannelSet,
    InvalidInputError,
    SchemeTag,
    TransmitSumBand,
    ablated_sum_rate,
    build_scheme,
    cutset_bound_broadcast,
    cutset_bound_unicast,
    draw_channels,
    estimate_dof,
    genie_bound_unicast,
    genie_subproblem,
    optimal_unicast_bruteforce,
    optimal_unicast_closed_form,
    optimal_unicast_enumerated,
    null_space_basis,
    pseudo_inverse,
    random_gaussian,
    receive,
    scheme_split,
    solve_inequality_min,
    sum_rate,
    symmetric_bound,
    verify_duality,
    verify_scheme,
)
from mimo3way.linalg import random_orthonormal

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

_junk = st.sampled_from(
    [None, "x", "3", "1/3", "1/0", "nan", [], [1, 2], (1, 2, 3, 4), {}, object(), 1j, np.array([1, 2]),
     True, False, np.int64(3), np.float64(2.0)]
)
_negative = st.sampled_from([-1, -7, -0.5, Fraction(-2, 3), -math.inf, np.int64(-1)])
_huge = st.sampled_from([2**31, 2**64, 10**30, 10**400, Fraction(10**400, 3), 1e308])
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")])
_fractional = st.sampled_from([Fraction(1, 3), Fraction(5, 2), 1.5, 0.25, "5/2"])
_bad = st.one_of(_junk, _negative, _huge, _non_finite, _fractional)

_small = st.integers(0, 4)
_count = st.one_of(_small, _small, _small, _bad)
_ordered = st.lists(_small, min_size=3, max_size=3).map(lambda m: sorted(m, reverse=True))
_ordered_huge = st.lists(st.one_of(_small, st.sampled_from([2**31, 2**64, 10**30])), min_size=3, max_size=3).map(
    lambda m: sorted(m, reverse=True)
)
_totals = st.one_of(_ordered, _ordered, _ordered, _ordered_huge, st.lists(_count, min_size=3, max_size=3))
_tag = st.one_of(st.sampled_from(list(SchemeTag)), st.sampled_from(list(SchemeTag)), _junk)
_seed = st.one_of(st.integers(0, 3), _bad)
_snr = st.one_of(st.floats(1.0, 1e6), st.floats(1.0, 1e6), _bad)
_snr_db = st.one_of(st.floats(-20, 80), st.floats(-20, 80), _bad)
_matrix = st.one_of(_bad, st.lists(st.lists(_count, max_size=3), max_size=3))


def _config(m):
    """An AntennaConfig from three counts, or whatever refused them."""
    try:
        return AntennaConfig(*m)
    except InvalidInputError:
        return m


def _quietly(fn, *args, **kwargs):
    """Call fn; InvalidInputError is an allowed outcome, anything else fails."""
    try:
        return fn(*args, **kwargs)
    except InvalidInputError:
        return None


@_SETTINGS
@given(_totals, st.lists(_count, max_size=4), st.one_of(st.lists(_count, min_size=3, max_size=3), _bad), _count, _count)
@example([4, 2, 1], [1, 1, 1], 5, 1, 2)  # a non-sequence split side
def test_constructors_and_bounds(m, tx, rx, mt, mr):
    _quietly(AntennaConfig, *m)
    split = _quietly(AntennaSplit, tx, rx)
    for bound in (cutset_bound_unicast, genie_bound_unicast, cutset_bound_broadcast):
        _quietly(bound, split)
        _quietly(bound, m)
    _quietly(symmetric_bound, mt, mr)


@_SETTINGS
@given(_totals, st.one_of(st.integers(1, 3), _count))
def test_allocation_routes(m, denominator):
    config = _config(m)
    _quietly(optimal_unicast_closed_form, config)
    _quietly(optimal_unicast_enumerated, config)
    _quietly(optimal_unicast_bruteforce, config, denominator)
    _quietly(optimal_unicast_bruteforce, config)


@_SETTINGS
@given(_matrix, _count, _count, _seed)
@example("abc", 1.5, 2, 0)
@example([[object()]], 2, 2, 0)
@example([[1]], None, 1, 0)  # dimensions are checked before they are compared
@example([[1]], "3", 1, 0)
@example([[1]], 10**30, 0, 0)  # and before the no-column shortcut
def test_linalg_entry_points(a, rows, cols, seed):
    _quietly(null_space_basis, a)
    _quietly(pseudo_inverse, a)
    _quietly(random_gaussian, rows, cols, seed)
    _quietly(random_orthonormal, np.random.default_rng(0), rows, cols)


_SPLIT = AntennaSplit((2, 1, 1), (1, 2, 1))
_vector = st.one_of(_matrix, st.sampled_from([np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((1, 2))]))
_vectors = st.one_of(st.lists(_vector, max_size=4), _bad)


@_SETTINGS
@given(st.one_of(st.just(_SPLIT), _bad), st.one_of(st.lists(_matrix, max_size=7), _bad), _vectors, _vectors)
@example(_SPLIT, ("a",) * 6, None, None)
@example(None, draw_channels(_SPLIT, 0).matrices, [1, 2, 3], [1, 2, 3])
@example(_SPLIT, None, [np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros((1, 2))] * 3)
def test_channel_entry_points(split, mats, x, noise):
    _quietly(ChannelSet, split, mats)
    channels = draw_channels(_SPLIT, 0)
    _quietly(receive, channels, x, noise)
    _quietly(receive, mats, x, noise)


def _channels(config, tag, seed, which):
    # the right channels for the scheme, channels for another split, or junk
    split = _quietly(scheme_split, config, tag)
    if which == 0 and split is not None:
        return _quietly(draw_channels, split[0], seed)
    if which == 1:
        return draw_channels(AntennaSplit((1, 1, 1), (1, 1, 1)), 0)
    return which


@_SETTINGS
@given(_totals, _tag, _seed, st.sampled_from([0, 0, 1, None, "channels"]))
@example([10**30, 10**30, 10**30], SchemeTag.UNI_A, 0, 0)  # a split too large to draw
def test_scheme_split_and_build(m, tag, seed, which):
    config = _config(m)
    _quietly(scheme_split, config, tag)
    _quietly(build_scheme, config, tag, _channels(config, tag, 0, which), seed)


_CFG = AntennaConfig(4, 2, 1)
_LP = genie_subproblem(_CFG, (True,) * 6)
_bits = st.one_of(st.tuples(*[st.booleans()] * 6), st.lists(st.one_of(st.booleans(), _junk), max_size=7), _bad)
_rationals = st.one_of(st.lists(st.one_of(st.integers(-3, 3), _bad), max_size=17), _bad)


@_SETTINGS
@given(st.one_of(st.just(_CFG), _bad), _bits, st.one_of(st.just(_LP), _bad, _bad), _rationals, _rationals)
@example(_CFG, None, (1, 2), None, ())
@example(_CFG, (True,) * 6, None, (1, 2), (1, 2))
def test_lp_entry_points(config, bits, lp, v, lam):
    _quietly(genie_subproblem, config, bits)
    _quietly(solve_inequality_min, lp)
    _quietly(verify_duality, lp, v, lam)
    _quietly(TransmitSumBand(Fraction(1), Fraction(3)).contains, config, v)


_UNI_B_SPLIT = scheme_split(_CFG, SchemeTag.UNI_B)[0]
_UNI_B_CHANNELS = draw_channels(_UNI_B_SPLIT, 0)
_UNI_B = build_scheme(_CFG, SchemeTag.UNI_B, _UNI_B_CHANNELS, 0)


_BUILT = st.sampled_from([((2, 1, 1), SchemeTag.UNI_B), ((3, 3, 3), SchemeTag.UNI_A), ((3, 2, 1), SchemeTag.BCAST)])


@_SETTINGS
@given(_BUILT, st.sampled_from([0, 0, 1, None]), _snr)
@example(((2, 1, 1), SchemeTag.UNI_B), 0, 10**400)
def test_sum_rate(built, which, snr):
    config, tag = AntennaConfig(*built[0]), built[1]
    channels = _channels(config, tag, 0, which)
    scheme = build_scheme(config, tag, draw_channels(scheme_split(config, tag)[0], 0), 0)
    _quietly(sum_rate, scheme, channels, snr)
    _quietly(sum_rate, built, channels, snr)


def _rebuilt(**tables):
    return dataclasses.replace(_UNI_B, **tables)


# tables that give the (4,2,1) uni-b scheme missing, misshapen, non-finite or
# junk matrices
_MALFORMED_TABLES = [
    {"precoders": {}},
    {"projectors": {key: np.eye(5) for key in _UNI_B.projectors}},
    {"projectors": {}},
    {"precoders": None},
    {"precoders": {key: np.full(t.shape, np.nan) for key, t in _UNI_B.precoders.items()}},
    {"projectors": {key: np.zeros((q.shape[0], 5)) for key, q in _UNI_B.projectors.items()}},
    {"projectors": {key: "x" for key in _UNI_B.projectors}},
    # dtypes numpy.linalg refuses
    {"precoders": {key: t.real.astype(np.float16) for key, t in _UNI_B.precoders.items()}},
    {"precoders": {key: t.astype(np.clongdouble) for key, t in _UNI_B.precoders.items()}},
]
_NO_PRECODERS, _BIG_PROJECTORS, *_OTHER_MALFORMED = (_rebuilt(**tables) for tables in _MALFORMED_TABLES)
_MALFORMED = st.sampled_from([_UNI_B, _NO_PRECODERS, _BIG_PROJECTORS, *_OTHER_MALFORMED])


@_SETTINGS
@given(_MALFORMED, _snr, _seed)
@example(_NO_PRECODERS, 10.0, 0)
@example(_BIG_PROJECTORS, 10.0, 0)
def test_rates_of_malformed_schemes(scheme, snr, seed):
    _quietly(sum_rate, scheme, _UNI_B_CHANNELS, snr)
    _quietly(ablated_sum_rate, scheme, _UNI_B_CHANNELS, snr, seed)


def _outcome(call):
    """("returned", value) or (error type name, message) of `call()`."""
    try:
        return "returned", call()
    except InvalidInputError as exc:
        return type(exc).__name__, str(exc)


# channels drawn at another split than the (4,2,1) uni-b scheme's
_OTHER_SPLIT_CHANNELS = draw_channels(scheme_split(_CFG, SchemeTag.BCAST)[0], 0)


@pytest.mark.parametrize("tables", _MALFORMED_TABLES)
def test_malformed_tables_are_refused_alike_after_rating(tables):
    # verify_scheme and both rate calls pass one gate, so each refuses a
    # malformed table (a projector wider than its rows too), or channels at
    # another split, with the same text; a replaced copy of a sealed scheme
    # shares none of its rate memo
    scheme = build_scheme(_CFG, SchemeTag.UNI_B, _UNI_B_CHANNELS, 0)

    def outcomes(channels):
        copy = dataclasses.replace(scheme, **tables)
        return [
            _outcome(lambda: verify_scheme(copy, channels, seed=1)),
            _outcome(lambda: sum_rate(copy, channels, 10.0)),
            _outcome(lambda: ablated_sum_rate(copy, channels, 10.0, seed=1)),
        ]

    unrated = {ch: outcomes(ch) for ch in (_UNI_B_CHANNELS, _OTHER_SPLIT_CHANNELS)}
    for got in unrated.values():
        assert got[0][0] == "InvalidInputError" and got == [got[0]] * 3
    assert unrated[_OTHER_SPLIT_CHANNELS][0][1].startswith("channels drawn for split")
    if "projectors" in tables:  # the refusal names a projector
        assert "projector for" in unrated[_UNI_B_CHANNELS][0][1]
    sum_rate(scheme, _UNI_B_CHANNELS, 10.0)
    ablated_sum_rate(scheme, _UNI_B_CHANNELS, 10.0, seed=1)
    assert {ch: outcomes(ch) for ch in unrated} == unrated


@_SETTINGS
@given(
    _totals,
    _tag,
    st.one_of(st.lists(st.floats(-20, 80), min_size=2, max_size=3).map(sorted), st.lists(_snr_db, max_size=3), _bad),
    st.one_of(st.integers(1, 2), _count),
    _seed,
    st.one_of(st.sampled_from(["two-point", "lsq-top-half"]), _junk),
)
@example([4, 4, 4], SchemeTag.UNI_A, [30.0, 50.0], 2**64, 0, "two-point")  # more trials than any run needs
@example([10**30, 10**30, 10**30], SchemeTag.UNI_A, [30.0, 50.0], 1, 0, "two-point")
def test_estimate_dof(m, tag, snr_db, trials, seed, fit):
    _quietly(estimate_dof, _config(m), tag, snr_db, trials=trials, seed=seed, fit=fit)
