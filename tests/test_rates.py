"""Rate-simulator tests: log-det sum rates, slope estimation, ablation."""

import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import mimo3way.channel as channel_mod
import mimo3way.linalg as linalg_mod
import mimo3way.rates as rates_mod
import mimo3way.schemes as schemes_mod
from mimo3way import (
    AntennaConfig,
    ChannelSet,
    InternalError,
    InvalidInputError,
    SchemeTag,
    ablated_sum_rate,
    build_scheme,
    draw_channels,
    estimate_dof,
    scheme_split,
    sum_rate,
    verify_scheme,
)
from mimo3way.linalg import ABLATION_STREAM, TRIAL_STREAM, _pool, _states, generator, random_orthonormal


def _built(m, tag, seed=0):
    cfg = AntennaConfig(*m)
    split, ext = scheme_split(cfg, tag)
    ch = draw_channels(split, seed)
    return ch, build_scheme(cfg, tag, ch, seed)


def test_single_stream_rate_is_scalar_logdet():
    # (2,1,1) uni-b: two one-stream messages, rate_m = log2(1 + snr |g|^2)
    ch, s = _built((2, 1, 1), SchemeTag.UNI_B, seed=5)
    assert verify_scheme(s, ch).valid
    snr = 37.5
    want = 0.0
    for m in s.messages:
        q = s.projectors[(m.key, 1)]
        g = (q.conj().T @ ch.h(m.tx, 1) @ s.precoders[m.key])[0, 0]
        want += math.log2(1.0 + snr * abs(g) ** 2)
    assert abs(sum_rate(s, ch, snr) - want) <= 1e-12 * want


def test_rate_vanishes_at_low_snr():
    ch, s = _built((3, 3, 3), SchemeTag.UNI_A)
    assert sum_rate(s, ch, 1e-13) <= 1e-9


def test_rate_monotone_in_snr():
    ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=1)
    rs = [sum_rate(s, ch, 10 ** (db / 10)) for db in range(0, 61, 5)]
    assert all(b >= a for a, b in zip(rs, rs[1:]))


def test_rate_rejects_nonpositive_snr():
    ch, s = _built((2, 1, 1), SchemeTag.UNI_B)
    with pytest.raises(InvalidInputError):
        sum_rate(s, ch, 0.0)
    with pytest.raises(InvalidInputError):
        ablated_sum_rate(s, ch, -1.0)
    # values that are not real numbers at all
    for bad in ("abc", [1.0], 1 + 1j, None):
        with pytest.raises(InvalidInputError, match="real number"):
            sum_rate(s, ch, bad)
        with pytest.raises(InvalidInputError, match="real number"):
            ablated_sum_rate(s, ch, bad)


@pytest.mark.parametrize(
    "m,tag,dof",
    [
        ((3, 3, 3), SchemeTag.UNI_A, 4.0),
        ((4, 2, 1), SchemeTag.UNI_B, 3.0),
        ((5, 3, 2), SchemeTag.BCAST, 5.0),
    ],
)
def test_doubling_snr_adds_dof_bits(m, tag, dof):
    ch, s = _built(m, tag, seed=9)
    hi = 1e6
    inc = sum_rate(s, ch, 2 * hi) - sum_rate(s, ch, hi)
    assert abs(inc - dof) <= 0.05


def test_broadcast_rate_is_min_over_receivers():
    ch, s = _built((5, 3, 2), SchemeTag.BCAST, seed=3)
    snr = 1e4
    bc = next(m for m in s.messages if m.key == "u3bc")
    rho = snr / s.tx_streams(3)
    per_rx = []
    for r in bc.receivers:
        q = s.projectors[(bc.key, r)]
        g = q.conj().T @ ch.h(3, r) @ s.precoders[bc.key]
        gram = np.eye(g.shape[0], dtype=complex) + rho * (g @ g.conj().T)
        per_rx.append(float(np.log2(np.linalg.det(gram).real)))
    u21 = next(m for m in s.messages if m.key == "u21")
    q = s.projectors[(u21.key, 1)]
    g = q.conj().T @ ch.h(2, 1) @ s.precoders[u21.key]
    gram = np.eye(g.shape[0], dtype=complex) + (snr / s.tx_streams(2)) * (g @ g.conj().T)
    want = float(np.log2(np.linalg.det(gram).real)) + 2 * min(per_rx)
    assert abs(sum_rate(s, ch, snr) - want) <= 1e-9


def _loop_sum_rate(s, ch, snr):
    """Reference: one (message, receiver) pair and one SNR per slogdet,
    in the kernel's order of arithmetic."""
    total = 0.0
    for m in s.messages:
        if m.dim == 0:
            continue
        rho = snr / s.tx_streams(m.tx)
        per_rx = []
        for r in m.receivers:
            g = s.projectors[(m.key, r)].conj().T @ ch.h(m.tx, r) @ s.precoders[m.key]
            _, logdet = np.linalg.slogdet(np.eye(g.shape[0], dtype=complex) + rho * (g @ g.conj().T))
            per_rx.append(float(logdet) / math.log(2.0))
        total += m.weight * min(per_rx)
    return total / s.extension_factor


@pytest.mark.parametrize(
    "m,tag,ext",
    [
        ((3, 3, 3), SchemeTag.UNI_A, 1),
        ((3, 3, 1), SchemeTag.UNI_A, 3),
        ((4, 2, 1), SchemeTag.UNI_B, 1),
        ((5, 3, 2), SchemeTag.BCAST, 1),  # min over two receivers
        ((5, 3, 3), SchemeTag.BCAST, 1),  # u21 has no streams
        ((7, 6, 5), SchemeTag.UNI_A, 3),  # Gram sizes 4 to 10
    ],
)
def test_grid_rates_equal_one_point_rates_exactly(m, tag, ext):
    ch, s = _built(m, tag, seed=4)
    assert s.extension_factor == ext
    snrs = [10 ** (db / 10) for db in (-10.0, 0.0, 12.5, 30.0, 47.5, 60.0)]
    grid = rates_mod._sum_rates(s, ch, snrs)
    assert grid.shape == (len(snrs),)
    assert [float(r) for r in grid] == [sum_rate(s, ch, snr) for snr in snrs]
    assert [float(r) for r in grid] == [_loop_sum_rate(s, ch, snr) for snr in snrs]
    # each projector cut, or padded with identity columns, to every width
    # from 0 to one past its own (at most its rows); a width-0 pair rates 0
    # bits, and at one SNR its 0x0 stack goes through numpy
    snrs = snrs[1::2]
    for key, q in s.projectors.items():
        rows, cols = q.shape
        for width in range(min(cols + 1, rows) + 1):
            pad = np.eye(rows, dtype=q.dtype)[:, : max(width - cols, 0)]
            t = dataclasses.replace(s, projectors={**s.projectors, key: np.hstack([q[:, :width], pad])})
            assert [float(r) for r in rates_mod._sum_rates(t, ch, snrs)] == [sum_rate(t, ch, snr) for snr in snrs]
            assert all(math.isfinite(ablated_sum_rate(t, ch, snr, seed=1)) for snr in snrs)


@pytest.mark.parametrize("snrs", [[1.0, 0.0, 10.0], [-1.0, 1.0], [1.0, math.nan]])
def test_grid_rates_reject_nonpositive_snr(snrs):
    ch, s = _built((3, 3, 3), SchemeTag.UNI_A)
    with pytest.raises(InvalidInputError, match="must be > 0"):
        rates_mod._sum_rates(s, ch, snrs)


def test_grid_rates_reject_overflowing_snr_by_name():
    ch, s = _built((2, 1, 1), SchemeTag.UNI_B, seed=1)  # |g|^2 = 2.84: 1e308 |g|^2 overflows
    with pytest.raises(InvalidInputError, match=r"snr_linear 1e\+308 overflows"):
        rates_mod._sum_rates(s, ch, [1e3, 1e308])
    with pytest.raises(InvalidInputError, match="snr_linear inf overflows"):
        sum_rate(s, ch, math.inf)
    with pytest.raises(InvalidInputError, match=r"snr_linear 1e\+308 overflows"):
        ablated_sum_rate(s, ch, 1e308)


@pytest.mark.parametrize(
    "m, tag, seed, snr, match",
    [
        # a rank-deficient interference covariance: once the largest Gram
        # entry times eps reaches 1 its identity part is lost and it is singular
        ((7, 6, 5), SchemeTag.UNI_A, 4, 1e16, "past float64 resolution"),
        ((4, 2, 1), SchemeTag.UNI_B, 0, 1e18, "past float64 resolution"),
        ((4, 2, 1), SchemeTag.UNI_B, 0, 1e22, "past float64 resolution"),
        # signal plus noise overflows to inf and NaN
        ((4, 2, 1), SchemeTag.UNI_B, 0, math.inf, "overflows"),
        ((4, 2, 1), SchemeTag.UNI_B, 0, 1e308, "overflows"),
    ],
)
def test_ablation_past_float64_range_is_bad_input(m, tag, seed, snr, match):
    ch, s = _built(m, tag, seed=seed)
    with pytest.raises(InvalidInputError, match=match):
        ablated_sum_rate(s, ch, snr)


def _raised(call):
    """(type name, message) of what `call()` raises, or None when it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


_OVERFLOW = "snr_linear {} overflows the rate Gram matrix"
_RESOLUTION = "snr_linear {} is past float64 resolution: the rate Gram matrix loses its identity part"
_PINNED_SNRS = (1e16, 1e18, 1e22, 1e300, 1e308, math.inf)
# What each mc-slope case raises at each SNR of _PINNED_SNRS, one code per
# SNR: "." returns, "O" _OVERFLOW, "R" _RESOLUTION at that SNR; first for
# _sum_rates and sum_rate, then for ablated_sum_rate with the draw's seed.
_PINNED_OUTCOMES = {
    ((3, 3, 3), SchemeTag.UNI_A, 0): (".....O", ".....O"),
    ((3, 3, 3), SchemeTag.UNI_A, 1): (".....O", "....OO"),
    ((3, 3, 3), SchemeTag.UNI_A, 2): (".....O", "....OO"),
    ((3, 3, 3), SchemeTag.UNI_A, 3): (".....O", "....OO"),
    ((3, 3, 3), SchemeTag.UNI_A, 4): (".....O", "....OO"),
    ((3, 3, 3), SchemeTag.UNI_A, 5): (".....O", "....OO"),
    ((4, 2, 1), SchemeTag.UNI_B, 0): (".....O", ".RRROO"),
    ((4, 2, 1), SchemeTag.UNI_B, 1): ("....OO", ".RR.OO"),
    ((4, 2, 1), SchemeTag.UNI_B, 2): (".....O", ".R..OO"),
    ((4, 2, 1), SchemeTag.UNI_B, 3): (".....O", "..R.RO"),
    ((4, 2, 1), SchemeTag.UNI_B, 4): ("....OO", "..R.OO"),
    ((4, 2, 1), SchemeTag.UNI_B, 5): ("....OO", "....OO"),
    ((5, 3, 2), SchemeTag.BCAST, 0): (".....O", "...RRO"),
    ((5, 3, 2), SchemeTag.BCAST, 1): (".....O", "....OO"),
    ((5, 3, 2), SchemeTag.BCAST, 2): (".....O", "....OO"),
    ((5, 3, 2), SchemeTag.BCAST, 3): ("....OO", "RRRROO"),
    ((5, 3, 2), SchemeTag.BCAST, 4): ("....OO", ".RRROO"),
    ((5, 3, 2), SchemeTag.BCAST, 5): (".....O", "RRRROO"),
    ((7, 6, 5), SchemeTag.UNI_A, 0): (".....O", ".R.ROO"),
    ((7, 6, 5), SchemeTag.UNI_A, 1): ("....OO", "RRRROO"),
    ((7, 6, 5), SchemeTag.UNI_A, 2): ("....OO", "RRR.OO"),
    ((7, 6, 5), SchemeTag.UNI_A, 3): (".....O", ".RRROO"),
    ((7, 6, 5), SchemeTag.UNI_A, 4): ("....OO", "R.RROO"),
    ((7, 6, 5), SchemeTag.UNI_A, 5): ("....OO", "RR..OO"),
}


def _pinned(code, snr):
    return None if code == "." else ("InvalidInputError", {"O": _OVERFLOW, "R": _RESOLUTION}[code].format(snr))


@pytest.mark.parametrize("m, tag, seed", list(_PINNED_OUTCOMES))
def test_rate_errors_name_the_recorded_snr(m, tag, seed):
    ch, s = _built(m, tag, seed=seed)
    zf_codes, ablated_codes = _PINNED_OUTCOMES[m, tag, seed]
    for snr, zf, ablated in zip(_PINNED_SNRS, zf_codes, ablated_codes):
        assert _raised(lambda: rates_mod._sum_rates(s, ch, [snr])) == _pinned(zf, snr)
        assert _raised(lambda: sum_rate(s, ch, snr)) == _pinned(zf, snr)
        assert _raised(lambda: ablated_sum_rate(s, ch, snr, seed=seed)) == _pinned(ablated, snr)


@pytest.mark.parametrize(
    "m, tag, seed, snrs, named",
    [
        # u31 overflows at 7e307, but u21 comes first and overflows at 1.5e308 only
        ((4, 2, 1), SchemeTag.UNI_B, 4, [7e307, 1.5e308], 1.5e308),
        # the u3bc receivers: node 2's Gram overflows at 1e308, node 1's at 1.2e308 only
        ((5, 3, 2), SchemeTag.BCAST, 7, [1e308, 1.2e308], 1.2e308),
        ((7, 6, 5), SchemeTag.UNI_A, 0, [1.3e308, 1.79e308], 1.79e308),
    ],
)
def test_grid_rate_error_names_the_first_failing_pair(m, tag, seed, snrs, named):
    # pairs are rated in message order: a later pair failing at a lower SNR
    # does not name that SNR
    ch, s = _built(m, tag, seed=seed)
    assert _raised(lambda: rates_mod._sum_rates(s, ch, snrs)) == ("InvalidInputError", _OVERFLOW.format(named))
    assert _raised(lambda: rates_mod._sum_rates(s, ch, snrs[:1])) == ("InvalidInputError", _OVERFLOW.format(snrs[0]))


@pytest.mark.parametrize(
    "m, tag, seed, snr, message",
    [
        # the first pair loses its identity part, the second overflows
        ((4, 2, 1), SchemeTag.UNI_B, 31, 1e308, _RESOLUTION),
        ((5, 3, 2), SchemeTag.BCAST, 40, 1.5e308, _RESOLUTION),
        # the first pair overflows, the second loses its identity part
        ((7, 6, 5), SchemeTag.UNI_A, 5, 1e308, _OVERFLOW),
    ],
)
def test_ablation_error_names_the_first_failing_pair(m, tag, seed, snr, message):
    ch, s = _built(m, tag, seed=seed)
    assert _raised(lambda: ablated_sum_rate(s, ch, snr, seed=seed)) == ("InvalidInputError", message.format(snr))


@pytest.mark.parametrize(
    "m, tag, seed, message, named",
    [
        ((3, 3, 3), SchemeTag.UNI_A, 0, _OVERFLOW, 1.584893192461072e308),
        ((4, 2, 1), SchemeTag.UNI_B, 1, _OVERFLOW, 1.584893192461072e308),
        ((5, 3, 2), SchemeTag.BCAST, 0, _OVERFLOW, 1.584893192461072e308),
        ((5, 3, 2), SchemeTag.BCAST, 1, _OVERFLOW, 7.943282347242399e307),
        ((7, 6, 5), SchemeTag.UNI_A, 0, _OVERFLOW, 1.584893192461072e308),
        ((7, 6, 5), SchemeTag.UNI_A, 1, _RESOLUTION, 1.584893192461072e308),
    ],
)
def test_stacked_rate_errors_name_the_recorded_snr(m, tag, seed, message, named):
    # 12 trials in one block on a (3079, 3082) dB grid: the first failing
    # (trial, SNR) in C order of the first failing pair names the SNR
    got = _raised(lambda: estimate_dof(AntennaConfig(*m), tag, (3079.0, 3082.0), trials=12, seed=seed))
    assert got == ("InvalidInputError", message.format(named))


def test_name_error_names_the_first_bad_matrix_in_c_order():
    # one pair, Gram size 2, on two trials: its matrix I + snr G at (trial,
    # SNR), the SNRs (1e-300, 2, 3). The first bad one in C order names the error
    def named(grams):
        rows, snrs = {2: [[(1.0, np.array(grams, dtype=complex))]]}, np.array([1e-300, 2.0, 3.0])[:, None, None]
        return _raised(lambda: rates_mod._name_error(rows, [(1, [(2, 0)])], snrs, False))

    zero, negative = np.zeros((2, 2)), np.diag([-2e300, 0.0])  # I + 1e-300 negative has det -1
    assert named([zero, zero]) is None
    overflows_at_3, overflows_from_2 = np.full((2, 2), 0.6e308), np.full((2, 2), 1e308)
    assert named([overflows_at_3, overflows_from_2]) == ("InvalidInputError", _OVERFLOW.format(3.0))
    singular_from_2 = np.full((2, 2), 1e17)  # once I is rounded away
    assert named([singular_from_2, negative]) == ("InvalidInputError", _RESOLUTION.format(2.0))
    # singular with small entries: no SNR is to blame
    assert named([zero, negative]) == ("InternalError", "rate Gram matrix is not positive definite")


@pytest.mark.parametrize(
    "m,tag,dof",
    [
        ((3, 3, 3), SchemeTag.UNI_A, Fraction(4)),
        ((4, 2, 1), SchemeTag.UNI_B, Fraction(3)),
        ((5, 3, 2), SchemeTag.BCAST, Fraction(5)),
    ],
)
def test_estimate_dof_matches_theory(m, tag, dof):
    est = estimate_dof(AntennaConfig(*m), tag, (30.0, 50.0), trials=12, seed=7)
    assert est.theoretical_dof == dof
    assert est.abs_error <= 0.2
    assert est.invalid_trials == 0
    assert est.slope >= 0


def test_estimate_error_shrinks_with_snr():
    # systematic low-SNR bias: the {40,60} window must beat {20,40}
    cases = [
        ((3, 3, 3), SchemeTag.UNI_A),
        ((5, 4, 2), SchemeTag.UNI_A),
        ((4, 2, 1), SchemeTag.UNI_B),
        ((6, 3, 3), SchemeTag.UNI_B),
        ((5, 3, 2), SchemeTag.BCAST),
    ]
    for m, tag in cases:
        for seed in (0, 1, 2):
            lo = estimate_dof(AntennaConfig(*m), tag, (20.0, 40.0), trials=10, seed=seed)
            hi = estimate_dof(AntennaConfig(*m), tag, (40.0, 60.0), trials=10, seed=seed)
            assert hi.abs_error < lo.abs_error, (m, tag, seed)


def test_estimate_lsq_fit():
    est = estimate_dof(
        AntennaConfig(3, 3, 3), SchemeTag.UNI_A, (20.0, 30.0, 40.0, 50.0),
        trials=6, seed=3, fit="lsq-top-half",
    )
    assert est.fit == "lsq-top-half"
    assert est.abs_error <= 0.3


def test_estimate_deterministic_in_seed():
    a = estimate_dof(AntennaConfig(4, 2, 1), SchemeTag.UNI_B, (30.0, 50.0), trials=5, seed=11)
    b = estimate_dof(AntennaConfig(4, 2, 1), SchemeTag.UNI_B, (30.0, 50.0), trials=5, seed=11)
    assert a == b
    c = estimate_dof(AntennaConfig(4, 2, 1), SchemeTag.UNI_B, (30.0, 50.0), trials=5, seed=12)
    assert a.mean_rates != c.mean_rates


def test_estimate_grid_validation():
    cfg = AntennaConfig(3, 3, 3)
    with pytest.raises(InvalidInputError):
        estimate_dof(cfg, SchemeTag.UNI_A, (30.0,))
    with pytest.raises(InvalidInputError):
        estimate_dof(cfg, SchemeTag.UNI_A, (50.0, 30.0))
    with pytest.raises(InvalidInputError):
        estimate_dof(cfg, SchemeTag.UNI_A, (30.0, 50.0), trials=0)
    with pytest.raises(InvalidInputError):
        estimate_dof(cfg, SchemeTag.UNI_A, (30.0, 50.0), fit="cubic")


def _no_draw(*a, **k):
    raise AssertionError("a channel was drawn for invalid input")


@pytest.mark.parametrize("grid", [("abc", 50.0), (None, 50.0), 30.0, "30", (True, 50.0), (30.0, 10**400)])
def test_estimate_rejects_non_numeric_grid_before_drawing(monkeypatch, grid):
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    with pytest.raises(InvalidInputError, match="snr grid"):
        estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, grid, trials=2)


@pytest.mark.parametrize(
    "grid",
    [{30.0, 50.0}, {30.0: 1, 50.0: 2}, "30,50", b"30", 30.0, None],
    ids=["set", "mapping", "str", "bytes", "scalar", "none"],
)
def test_estimate_refuses_a_grid_that_is_not_a_sequence_before_drawing(monkeypatch, grid):
    # a set iterates in hash order and a mapping as its keys: neither is the order the caller wrote
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    with pytest.raises(InvalidInputError) as refused:
        estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, grid, trials=2)
    assert str(refused.value) == f"snr grid must be a sequence of real dB values, got {grid!r}"


@pytest.mark.parametrize("seed", [-1, "a", 1.5, 1.0, True, None])
def test_estimate_rejects_bad_seed_before_drawing(monkeypatch, seed):
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    with pytest.raises(InvalidInputError, match="seed must be a nonnegative integer"):
        estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, trials=2, seed=seed)


@pytest.mark.parametrize("grid", [(3000.0, 4000.0), (-4000.0, 30.0), (30.0, math.nan)])
def test_estimate_rejects_unrepresentable_snr_before_drawing(monkeypatch, grid):
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    with pytest.raises(InvalidInputError, match="no finite positive linear value"):
        estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, grid, trials=2)


# under the budget the stubbed first draw raises
@pytest.mark.parametrize(
    "points, raised, match", [(16, AssertionError, "drawn"), (17, InvalidInputError, "Gram")], ids=["at", "over"]
)
def test_estimate_refuses_a_gram_stack_over_budget_before_drawing(monkeypatch, points, raised, match):
    # (256,128,128) uni-b has two 128-stream messages, stacked together: 8
    # trials x 16 points x 2 x 128^2 is exactly the budget, one more point is over it
    assert 8 * 16 * 2 * 128**2 == rates_mod._MAX_GRAM_ENTRIES
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    grid = [30.0 + k for k in range(points)]
    with pytest.raises(raised, match=match):
        estimate_dof(AntennaConfig(256, 128, 128), SchemeTag.UNI_B, grid, trials=8)


# under the budget the stubbed first draw raises
@pytest.mark.parametrize(
    "trials, raised, match", [(1024, AssertionError, "drawn"), (1025, InvalidInputError, "1025 trials x 4096 snr")],
    ids=["at", "over"],
)
def test_estimate_refuses_a_rate_table_over_budget_before_drawing(monkeypatch, trials, raised, match):
    # 1024 trials x 4096 points is exactly the budget, one more trial is over it;
    # (3,3,3) uni-a stays under the Gram and work budgets at both
    assert 1024 * 4096 == rates_mod._MAX_GRAM_ENTRIES
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    grid = [30.0 + k / 100 for k in range(4096)]
    with pytest.raises(raised, match=match):
        estimate_dof(AntennaConfig(3, 3, 3), SchemeTag.UNI_A, grid, trials=trials)


# under the budget the stubbed first draw raises
@pytest.mark.parametrize(
    "m, tag, trials, raised, match",
    [((512, 256, 256), SchemeTag.UNI_B, 64, AssertionError, "drawn"),
     ((512, 256, 256), SchemeTag.UNI_B, 65, InvalidInputError, "65 trials x 512\\^3 antennas"),
     ((187, 187, 187), SchemeTag.UNI_A, 48, AssertionError, "drawn"),
     ((187, 187, 187), SchemeTag.UNI_A, 49, InvalidInputError, "49 trials x 561\\^3 antennas")],
    ids=["at", "over", "extended-under", "extended-over"],
)
def test_estimate_refuses_work_over_budget_before_drawing(monkeypatch, m, tag, trials, raised, match):
    # (512,256,256) uni-b has 512 antennas at node 1: 64 trials x 512^3 is
    # exactly the budget, one more trial is over it. (187,187,187) uni-a is
    # extended by 3, so N is 561 and not 187: 48 x 561^3 is under, 49 x 561^3 over
    assert 64 * 512**3 == rates_mod._MAX_WORK
    assert 48 * 561**3 <= rates_mod._MAX_WORK < 49 * 561**3
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    with pytest.raises(raised, match=match):
        estimate_dof(AntennaConfig(*m), tag, trials=trials)


def test_all_invalid_draws_is_internal_error(monkeypatch):
    # every trial of every block fails verification
    monkeypatch.setattr(rates_mod, "_passed", lambda scheme, channels, seeds: np.zeros(len(seeds), dtype=bool))
    with pytest.raises(InternalError, match="invalid"):
        estimate_dof(AntennaConfig(3, 3, 3), SchemeTag.UNI_A, (30.0, 50.0), trials=3, seed=0)


def _trial_seed(seed, k):
    """Trial k's seed in estimate_dof: the first uint64 of SeedSequence(seed, spawn_key=(TRIAL_STREAM, k))'s state."""
    return int(_states([seed], (TRIAL_STREAM, k))[0, 0])


def _loop_estimate(config, tag, grid, trials, seed):
    """Reference for estimate_dof: one draw, build, verify and rate per trial,
    then the mean rates, the two-point slope and the invalid count."""
    split, _ = scheme_split(config, tag)
    snrs = [10.0 ** (db / 10.0) for db in grid]
    rates, invalid = [], 0
    for k in range(trials):
        ts = _trial_seed(seed, k)
        ch = draw_channels(split, ts)
        s = build_scheme(config, tag, ch, ts)
        if verify_scheme(s, ch, seed=ts).valid:
            rates.append(rates_mod._sum_rates(s, ch, snrs))
        else:
            invalid += 1
    mean = np.array(rates).mean(axis=0)
    log2_snr = np.array([db / 10.0 * math.log2(10.0) for db in grid])
    slope = float((mean[-1] - mean[-2]) / (log2_snr[-1] - log2_snr[-2]))
    return tuple(float(r) for r in mean), slope, invalid


def _assert_blocked_equals_loop(m, tag, trials, seed=5, grid=(20.0, 30.0, 45.0)):
    config = AntennaConfig(*m)
    est = estimate_dof(config, tag, grid, trials=trials, seed=seed)
    assert (est.mean_rates, est.slope, est.invalid_trials) == _loop_estimate(config, tag, grid, trials, seed)
    return est


@pytest.fixture(params=[False, True], ids=["one-block", "blocks-of-ten"])
def blocks(request, monkeypatch):
    """estimate_dof's blocks as the block rule sizes them, one block for
    every trial count and grid of the tests that take this, or, with the
    Gram entry budget at 0, of rates._BLOCK trials each: (full block size, or
    None for all trials; the trial count of each `_rate_block` call)."""
    if request.param:
        monkeypatch.setattr(rates_mod, "_BLOCK_ENTRIES", 0)
    sizes, rate_block = [], rates_mod._rate_block
    monkeypatch.setattr(rates_mod, "_rate_block", lambda *args: sizes.append(len(args[4])) or rate_block(*args))
    return (rates_mod._BLOCK if request.param else None), sizes


_SCHEME_CASES = [((3, 3, 3), SchemeTag.UNI_A), ((3, 3, 1), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B),
                 ((5, 3, 2), SchemeTag.BCAST), ((5, 3, 3), SchemeTag.BCAST), ((7, 6, 5), SchemeTag.UNI_A)]


@pytest.mark.parametrize("m, tag", _SCHEME_CASES)
# trials below, at and above one block of _BLOCK, and spanning three
@pytest.mark.parametrize("trials", [rates_mod._BLOCK - 3, rates_mod._BLOCK, rates_mod._BLOCK + 3, 2 * rates_mod._BLOCK + 3])
def test_blocked_estimate_equals_trial_loop(m, tag, trials, blocks):
    size, sizes = blocks
    _assert_blocked_equals_loop(m, tag, trials)
    size = size or trials
    assert sizes == [min(size, trials - start) for start in range(0, trials, size)]


def _rigged(monkeypatch, bad_seed, pair, edit):
    """Route every channel draw, stacked or not, through one that applies
    `edit` in place to link `pair` of the trial drawn from `bad_seed`."""
    draw = channel_mod._draw

    def rigged(split, seeds, lead):
        mats = [h.copy() for h in draw(split, seeds, lead).matrices]
        h = mats[channel_mod.PAIR_ORDER.index(pair)]
        for k, seed in enumerate(seeds):
            if seed == bad_seed:
                edit(h.reshape(-1, *h.shape[-2:])[k])
        return channel_mod.ChannelSet._drawn(split, tuple(mats))

    monkeypatch.setattr(channel_mod, "_draw", rigged)
    monkeypatch.setattr(rates_mod, "_draw", rigged)


def _zero_first_row(h):
    h[0, :] = 0


def _zero_first_column(h):
    h[:, 0] = 0


@pytest.mark.parametrize(
    "m, tag, pair, edit",
    [
        # bcast: node 2 inverts its square link from node 3, now singular
        ((5, 3, 2), SchemeTag.BCAST, (3, 2), _zero_first_row),
        # uni-a: H32 T32 loses rank, so the u12 projector at node 2 gains a
        # column; the trial's block is ragged and goes one trial at a time
        ((3, 3, 3), SchemeTag.UNI_A, (3, 2), _zero_first_column),
    ],
)
def test_blocked_estimate_counts_a_rigged_invalid_trial_as_the_loop(monkeypatch, m, tag, pair, edit, blocks):
    seed, bad, trials = 5, 3, rates_mod._BLOCK + 2
    size, sizes = blocks
    _rigged(monkeypatch, _trial_seed(seed, bad), pair, edit)
    est = _assert_blocked_equals_loop(m, tag, trials, seed=seed)
    assert est.invalid_trials == 1
    # a ragged block runs again one trial at a time
    size = size or trials
    ragged = [size] + [1] * size if tag is SchemeTag.UNI_A else [size]
    assert sizes == ragged + [trials - size] * (size < trials)


def test_blocked_estimate_raises_on_a_precoder_of_non_generic_rank(monkeypatch):
    # uni-a at (3,3,3): H13 of rank 1 gives null(H13) two columns for a
    # one-stream message, which verification refuses in the loop and the
    # blocked path alike
    seed, bad = 5, 3
    _rigged(monkeypatch, _trial_seed(seed, bad), (1, 3), _zero_first_row)
    config = AntennaConfig(3, 3, 3)
    with pytest.raises(InvalidInputError, match="precoder for 'u12'"):
        _loop_estimate(config, SchemeTag.UNI_A, (30.0, 50.0), rates_mod._BLOCK, seed)
    with pytest.raises(InvalidInputError, match="precoder for 'u12'"):
        estimate_dof(config, SchemeTag.UNI_A, (30.0, 50.0), trials=rates_mod._BLOCK, seed=seed)


def test_ablation_saturates_below_zero_forcing():
    for seed in (0, 1):
        ch, s = _built((4, 4, 4), SchemeTag.UNI_A, seed=seed)
        snr = 1e5
        assert ablated_sum_rate(s, ch, snr, seed=seed) < sum_rate(s, ch, snr)


def _per_call_ablated_sum_rate(s, ch, snr, seed):
    """Reference: `ablated_sum_rate` with a fresh draw on every call, one
    generator(seed, ABLATION_STREAM) and then `random_orthonormal` in sorted
    key order, in the same order of arithmetic."""
    rng = generator(seed, ABLATION_STREAM)
    random_proj = {key: random_orthonormal(rng, *q.shape) for key, q in sorted(s.projectors.items())}
    total = 0.0
    for m in s.messages:
        if m.dim == 0:
            continue
        per_rx = []
        for r in m.receivers:
            qh = random_proj[(m.key, r)].conj().T
            g = qh @ ch.h(m.tx, r) @ s.precoders[m.key]
            signal = snr / s.tx_streams(m.tx) * (g @ g.conj().T)
            noise = np.eye(g.shape[0], dtype=complex)
            for other in s.messages:  # the interferers: other messages with streams from a node other than r
                if other.key != m.key and other.dim > 0 and other.tx != r:
                    leak = qh @ ch.h(other.tx, r) @ s.precoders[other.key]
                    noise = noise + snr / s.tx_streams(other.tx) * (leak @ leak.conj().T)
            _, with_signal = np.linalg.slogdet(noise + signal)
            _, without = np.linalg.slogdet(noise)
            per_rx.append(float(with_signal / math.log(2.0) - without / math.log(2.0)))
        total += m.weight * min(per_rx)
    return total / s.extension_factor


@pytest.mark.parametrize(
    "m,tag,ext",
    [
        ((3, 3, 3), SchemeTag.UNI_A, 1),
        ((7, 6, 5), SchemeTag.UNI_A, 3),
        ((4, 2, 1), SchemeTag.UNI_B, 1),
        ((5, 3, 2), SchemeTag.BCAST, 1),
    ],
)
def test_cached_ablation_equals_per_call_draw(m, tag, ext):
    ch, s = _built(m, tag, seed=2)
    assert s.extension_factor == ext
    # listing the messages backwards leaves the draw in sorted key order
    backwards = dataclasses.replace(s, messages=s.messages[::-1])
    for seed in (0, 1, 3):
        for snr in (0.1, 1.0, 10**2.5, 1e6):
            assert ablated_sum_rate(s, ch, snr, seed=seed) == _per_call_ablated_sum_rate(s, ch, snr, seed)
            assert ablated_sum_rate(backwards, ch, snr, seed=seed) == _per_call_ablated_sum_rate(
                backwards, ch, snr, seed
            )


def test_sealed_scheme_makes_one_ablation_generator_per_channels_and_seed(monkeypatch):
    made = []

    def counting_states(seeds, stream):
        made.append((*seeds, *stream))
        return _states(seeds, stream)

    ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=0)
    other = draw_channels(ch.split, 5)  # other channels, same shapes
    # the ablation draws all its projectors through linalg._gaussians, which seeds its generators from _states
    monkeypatch.setattr(linalg_mod, "_states", counting_states)
    for seed in (1, 1, 2, 1, 2):
        for snr in (10.0, 1e4):
            ablated_sum_rate(s, ch, snr, seed=seed)
    assert made == [(1, ABLATION_STREAM), (2, ABLATION_STREAM)]
    ablated_sum_rate(s, other, 10.0, seed=1)
    ablated_sum_rate(s, other, 1e4, seed=1)
    assert made[2:] == [(1, ABLATION_STREAM)]


def test_ablation_seed_rule_holds_on_a_cache_hit():
    ch, s = _built((4, 2, 1), SchemeTag.UNI_B)
    rate = ablated_sum_rate(s, ch, 10.0, seed=1)
    for bad in (True, 1.0, -1, "1"):
        with pytest.raises(InvalidInputError, match="seed"):
            ablated_sum_rate(s, ch, 10.0, seed=bad)
    assert ablated_sum_rate(s, ch, 10.0, seed=np.int64(1)) == rate


# the mc-slope benchmark's configs and its 25-point grid, 0 to 60 dB
_MC_CASES = [((3, 3, 3), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B), ((5, 3, 2), SchemeTag.BCAST),
             ((7, 6, 5), SchemeTag.UNI_A)]
_MC_SNRS = [10.0 ** (2.5 * i / 10.0) for i in range(25)]


def _fresh(m, tag, channels, snr, seed=None):
    """The rate of one call on a newly built scheme (seed 3, on its own draw):
    the zero-forcing rate, or the ablated one at `seed`."""
    _, s = _built(m, tag, seed=3)
    return sum_rate(s, channels, snr) if seed is None else ablated_sum_rate(s, channels, snr, seed=seed)


@pytest.mark.parametrize("m, tag", _MC_CASES)
def test_rate_curve_of_one_scheme_equals_calls_on_fresh_schemes(m, tag):
    ch, s = _built(m, tag, seed=3)
    assert [sum_rate(s, ch, snr) for snr in _MC_SNRS] == [_fresh(m, tag, ch, snr) for snr in _MC_SNRS]
    assert [ablated_sum_rate(s, ch, snr, seed=3) for snr in _MC_SNRS] == [
        _fresh(m, tag, ch, snr, seed=3) for snr in _MC_SNRS
    ]
    # a replaced copy is not sealed and computes every call
    copy = dataclasses.replace(s)
    assert [sum_rate(copy, ch, snr) for snr in _MC_SNRS[::6]] == [sum_rate(s, ch, snr) for snr in _MC_SNRS[::6]]


@pytest.mark.parametrize("m, tag", _MC_CASES)
def test_rate_memo_follows_channels_and_seeds(m, tag):
    a, s = _built(m, tag, seed=3)
    b = draw_channels(a.split, 11)
    a_again = ChannelSet(a.split, a.matrices)  # equal links, another object
    for ch in (a, b, a, a_again, b):
        for seed in (1, 2, 1):
            for snr in (10.0, 1e4):
                assert sum_rate(s, ch, snr) == _fresh(m, tag, ch, snr)
                assert ablated_sum_rate(s, ch, snr, seed=seed) == _fresh(m, tag, ch, snr, seed)


def test_rate_memo_keeps_a_bounded_number_of_seeds():
    ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=3)
    for seed in range(12):
        assert ablated_sum_rate(s, ch, 10.0, seed=seed) == _fresh((4, 2, 1), SchemeTag.UNI_B, ch, 10.0, seed)
        assert sum_rate(s, ch, 10.0) == _fresh((4, 2, 1), SchemeTag.UNI_B, ch, 10.0)
        assert len(s._memo[1]) <= 5


def _memo_state(s):
    """What a sealed scheme keeps: its channels and the identity of each term."""
    return None if s._memo is None else (s._memo[0], {key: id(terms) for key, terms in s._memo[1].items()})


@pytest.mark.parametrize("m, tag", _MC_CASES)
def test_a_raising_rate_call_keeps_nothing(m, tag):
    a, s = _built(m, tag, seed=3)
    b = draw_channels(a.split, 11)
    for rated in (False, True):
        if rated:
            sum_rate(s, a, 10.0)
            ablated_sum_rate(s, a, 10.0, seed=1)
        before = _memo_state(s)
        for ch in (a, b):
            for call in (
                lambda: sum_rate(s, ch, 0.0),
                lambda: sum_rate(s, ch, math.inf),
                lambda: ablated_sum_rate(s, ch, 0.0, seed=1),
                lambda: ablated_sum_rate(s, ch, 1e308, seed=1),
                lambda: ablated_sum_rate(s, ch, 10.0, seed=-1),
                lambda: ablated_sum_rate(s, ch, 10.0, seed=True),
            ):
                with pytest.raises(InvalidInputError):
                    call()
                assert _memo_state(s) == before
        assert sum_rate(s, b, 10.0) == _fresh(m, tag, b, 10.0)
        assert ablated_sum_rate(s, b, 10.0, seed=1) == _fresh(m, tag, b, 10.0, 1)
        assert sum_rate(s, a, 10.0) == _fresh(m, tag, a, 10.0)


@pytest.mark.parametrize("m, tag, seed", list(_PINNED_OUTCOMES)[::3])
def test_rate_errors_name_the_recorded_snr_on_a_rated_scheme(m, tag, seed):
    ch, s = _built(m, tag, seed=seed)
    zf_codes, ablated_codes = _PINNED_OUTCOMES[m, tag, seed]
    for _ in range(2):
        sum_rate(s, ch, 10.0)
        ablated_sum_rate(s, ch, 10.0, seed=seed)
        for snr, zf, ablated in zip(_PINNED_SNRS, zf_codes, ablated_codes):
            assert _raised(lambda: sum_rate(s, ch, snr)) == _pinned(zf, snr)
            assert _raised(lambda: ablated_sum_rate(s, ch, snr, seed=seed)) == _pinned(ablated, snr)


def test_rates_refuse_what_is_not_a_scheme_on_a_rated_scheme_s_channels():
    ch, s = _built((4, 2, 1), SchemeTag.UNI_B)
    sum_rate(s, ch, 10.0)
    ablated_sum_rate(s, ch, 10.0)
    for bad in (None, (1, 2), dataclasses.replace(s, precoders={}), dataclasses.replace(s, projectors={})):
        with pytest.raises(InvalidInputError):
            sum_rate(bad, ch, 10.0)
        with pytest.raises(InvalidInputError):
            ablated_sum_rate(bad, ch, 10.0)
    for bad_channels in (None, (1, 2), s):
        with pytest.raises(InvalidInputError):
            sum_rate(s, bad_channels, 10.0)
        with pytest.raises(InvalidInputError):
            ablated_sum_rate(s, bad_channels, 10.0)


def test_slope_estimate_serialization():
    est = estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, (30.0, 50.0), trials=4, seed=2)
    j = est.to_json()
    assert j["scheme"] == "uni-b"
    assert j["theoretical_dof"] == "2"
    assert len(j["mean_rates"]) == 2


# The per-pair formulas the stacked rate calls replaced, one slogdet per
# (message, receiver) pair, in their order of arithmetic: the references the
# stacks must equal bit for bit.
def _effective(s, ch, m, r, q):
    """Q^H H T of message `m` at receiver `r` under projector `q`, and
    (other, Q^H H' T') for each interferer: every other message with streams
    whose transmitter is not `r`, in message order; 2-D or on trial axes."""
    qh = q.conj().mT
    leaks = [(other, qh @ ch.h(other.tx, r) @ s.precoders[other.key])
             for other in s.messages if other.key != m.key and other.dim > 0 and other.tx != r]
    return qh @ ch.h(m.tx, r) @ s.precoders[m.key], leaks


def _per_pair_sum_rates(s, ch, snrs):
    """The per-pair grid kernel: (grid,) or (trials, grid) rates."""
    snrs = np.asarray(snrs, dtype=float)
    total = np.zeros(ch.matrices[0].shape[:-2] + snrs.shape)
    for m in s.messages:
        if m.dim:
            per_rx = []
            for r in m.receivers:
                g, _ = _effective(s, ch, m, r, s.projectors[(m.key, r)])
                gram = (g @ g.conj().mT)[..., None, :, :]
                rho = snrs[:, None, None] / s.tx_streams(m.tx)
                _, logdet = np.linalg.slogdet(np.eye(gram.shape[-1], dtype=complex) + rho * gram)
                per_rx.append(logdet / math.log(2.0))
            total += m.weight * functools.reduce(np.minimum, per_rx)
    return total / s.extension_factor


def _per_pair_ablated_sum_rate(s, ch, snr, seed):
    """The per-pair ablated rate: [N + S, N] of one pair per slogdet."""
    rng = generator(seed, ABLATION_STREAM)
    keys = sorted((m.key, r) for m in s.messages for r in m.receivers)
    random_proj = {k: random_orthonormal(rng, *s.projectors[k].shape) for k in keys}
    rho = {m.key: snr / s.tx_streams(m.tx) for m in s.messages if m.dim}
    total = 0.0
    for m in s.messages:
        if m.dim:
            per_rx = []
            for r in m.receivers:
                g, leaks = _effective(s, ch, m, r, random_proj[(m.key, r)])
                gram = g @ g.conj().mT
                signal = rho[m.key] * gram
                noise = np.eye(gram.shape[0], dtype=complex)
                for other, leak in leaks:
                    noise = noise + rho[other.key] * (leak @ leak.conj().mT)
                _, logdet = np.linalg.slogdet(np.array([noise + signal, noise]))
                with_signal, without = (logdet / math.log(2.0)).tolist()
                per_rx.append(with_signal - without)
            total += m.weight * min(per_rx)
    return total / s.extension_factor


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m, tag", _MC_CASES)
def test_stacked_rates_equal_per_pair_rates_bit_for_bit(m, tag, seed):
    ch, s = _built(m, tag, seed=seed)
    assert [sum_rate(s, ch, snr) for snr in _MC_SNRS] == _per_pair_sum_rates(s, ch, _MC_SNRS).tolist()
    assert [ablated_sum_rate(s, ch, snr, seed=seed) for snr in _MC_SNRS] == [
        _per_pair_ablated_sum_rate(s, ch, snr, seed) for snr in _MC_SNRS
    ]
    # one scheme and its channels stacked on a trial axis, as estimate_dof's blocks are
    config = AntennaConfig(*m)
    split, ext = scheme_split(config, tag)
    seeds = [_trial_seed(seed, k) for k in range(7)]
    stacked = channel_mod._draw(split, seeds, (len(seeds),))
    block = schemes_mod._build(config, tag, ext, stacked, seeds)
    got = rates_mod._sum_rates(block, stacked, _MC_SNRS)
    assert got.shape == (7, 25) and got.tolist() == _per_pair_sum_rates(block, stacked, _MC_SNRS).tolist()


@pytest.mark.parametrize("m, tag", _MC_CASES)
def test_estimate_on_stacks_equals_estimate_on_per_pair_rates(monkeypatch, m, tag):
    # the mc-slope benchmark's estimate: 20 trials in one block (13 and 7 at
    # (7,6,5) uni-a), its 25-point grid, the top-half fit
    grid = tuple(2.5 * i for i in range(25))
    for seed in range(6):
        stacked = estimate_dof(AntennaConfig(*m), tag, grid, trials=20, seed=seed, fit="lsq-top-half")
        with monkeypatch.context() as patch:
            patch.setattr(rates_mod, "_sum_rates", _per_pair_sum_rates)
            per_pair = estimate_dof(AntennaConfig(*m), tag, grid, trials=20, seed=seed, fit="lsq-top-half")
        assert stacked == per_pair


@pytest.mark.parametrize("m, tag, stream_counts", [(m, tag, n) for (m, tag), n in zip(_MC_CASES, (1, 2, 2, 3))])
def test_a_rate_call_makes_one_slogdet_per_stream_count(monkeypatch, m, tag, stream_counts):
    # (3,3,3) uni-a has four 1-stream pairs, (7,6,5) uni-a pairs of 10, 7, 4 and 4 streams
    ch, s = _built(m, tag, seed=3)
    assert len({msg.dim for msg in s.messages if msg.dim}) == stream_counts
    sum_rate(s, ch, 10.0)
    ablated_sum_rate(s, ch, 10.0, seed=3)
    shapes = []
    slogdet = rates_mod._slogdet
    monkeypatch.setattr(rates_mod, "_slogdet", lambda a: shapes.append(a.shape) or slogdet(a))
    # at one SNR a 1x1 stack takes no slogdet: one call per Gram size above 1
    for call in (lambda: sum_rate(s, ch, 1e3), lambda: ablated_sum_rate(s, ch, 1e3, seed=3)):
        shapes.clear()
        call()
        assert len(shapes) == len({msg.dim for msg in s.messages if msg.dim > 1})
        assert all(shape[-1] > 1 for shape in shapes)
    # one per block: 21 trials on 2 points make one block by the rule, three at its floor of _BLOCK
    dims = [msg.dim for msg in s.messages for _ in msg.receivers]
    trials = 2 * rates_mod._BLOCK + 1
    for budget, blocks in ((rates_mod._BLOCK_ENTRIES, 1), (0, 3)):
        monkeypatch.setattr(rates_mod, "_BLOCK_ENTRIES", budget)
        size = max(rates_mod._BLOCK, budget // max(2 * dims.count(d) * d * d for d in dims))
        assert -(-trials // size) == blocks
        shapes.clear()
        estimate_dof(AntennaConfig(*m), tag, (20.0, 40.0), trials=trials, seed=3)
        assert len(shapes) == blocks * stream_counts


# per mc-slope config, the entries per trial and SNR point of its largest
# Gram stack (four 1x1 pairs; a 2x2 beside a 1x1; two 2x2; a 10x10 beside
# 7x7 and 4x4 ones) and the block size 2**16 entries give on its 25 points,
# at most the 256 seeds whose pools linalg keeps: each runs the 20 trials of
# an mc-slope op in one block
@pytest.mark.parametrize("m, tag, entries, size",
                         [(*case, e, n) for case, e, n in zip(_MC_CASES, (4, 4, 8, 100), (256, 256, 256, 26))])
def test_block_size_on_the_mc_slope_grid(monkeypatch, m, tag, entries, size):
    assert size == min(256, 2**16 // (25 * entries)) and rates_mod._BLOCK_ENTRIES == 2**16
    assert rates_mod._POOLS == _pool.cache_info().maxsize == 256
    _, s = _built(m, tag)
    sizes = []

    def rate_block(config, tag, split, ext, seeds, snrs):  # every trial valid, at rate 0
        sizes.append(len(seeds))
        return s, np.ones(len(seeds), dtype=bool), np.zeros((len(seeds), len(snrs)))

    monkeypatch.setattr(rates_mod, "_rate_block", rate_block)
    estimate_dof(AntennaConfig(*m), tag, tuple(2.5 * i for i in range(25)), trials=1000, fit="lsq-top-half")
    assert sizes == [size] * (1000 // size) + [1000 % size]


def test_warm_one_snr_calls_on_1x1_pairs_take_no_numpy_rate_arithmetic(monkeypatch):
    # (3,3,3) uni-a has four 1x1 pairs: once a call of each kind has kept its
    # form, a call is Python arithmetic alone, with the references' bits
    ch, s = _built((3, 3, 3), SchemeTag.UNI_A, seed=3)
    sum_rate(s, ch, 10.0)
    ablated_sum_rate(s, ch, 10.0, seed=3)

    def refused(*args):
        raise AssertionError("a warm 1x1 rate call ran numpy rate arithmetic")

    monkeypatch.setattr(rates_mod, "_slogdet", refused)
    monkeypatch.setattr(rates_mod, "_name_error", refused)
    assert [sum_rate(s, ch, snr) for snr in _MC_SNRS] == [_loop_sum_rate(s, ch, snr) for snr in _MC_SNRS]
    assert [ablated_sum_rate(s, ch, snr, seed=3) for snr in _MC_SNRS] == [
        _per_call_ablated_sum_rate(s, ch, snr, 3) for snr in _MC_SNRS
    ]
    monkeypatch.undo()
    # (7,6,5) uni-a has no 1x1 pair: its warm calls equal the grid kernel on one point
    ch, s = _built((7, 6, 5), SchemeTag.UNI_A, seed=3)
    sum_rate(s, ch, 10.0)
    ablated_sum_rate(s, ch, 10.0, seed=3)
    assert [sum_rate(s, ch, snr) for snr in _MC_SNRS] == [rates_mod._sum_rates(s, ch, [snr])[0] for snr in _MC_SNRS]
    assert [ablated_sum_rate(s, ch, snr, seed=3) for snr in _MC_SNRS] == [
        _per_call_ablated_sum_rate(s, ch, snr, 3) for snr in _MC_SNRS
    ]


@pytest.mark.parametrize("ablated", [False, True])
def test_a_1x1_rate_whose_abs_overflows_is_refused_as_bad_input(monkeypatch, ablated):
    # a finite 1x1 N + S past 1.8e308 in modulus: Python's abs raises
    # OverflowError where numpy's hypot gives inf, so the pair goes to _name_error
    big = 1e308 + 1e308j
    with pytest.raises(OverflowError):
        abs(1.5 * big)
    terms = rates_mod._terms

    def planted(scheme, channels, seed=None):  # G G^H of the first 1x1 pair, in its row
        messages, rows = terms(scheme, channels, seed)
        (divisor, gram), *leaks = rows[1][0]
        rows[1][0] = [(divisor, np.full_like(gram, big)), *leaks]
        return messages, rows

    monkeypatch.setattr(rates_mod, "_terms", planted)
    ch, s = _built((3, 3, 3), SchemeTag.UNI_A, seed=0)
    snr = 1.5 * s.tx_streams(s.messages[0].tx)  # rho = 1.5 on the first pair
    got = _raised(lambda: ablated_sum_rate(s, ch, snr, seed=0) if ablated else sum_rate(s, ch, snr))
    assert got == ("InvalidInputError", _RESOLUTION.format(snr))


# -40 to 100 dB in 2.5 dB steps, past both ends of the mc-slope grid
_SWEEP_SNRS = [10.0 ** (2.5 * i / 10.0) for i in range(-16, 41)]


@pytest.mark.parametrize("m, tag", _MC_CASES)
def test_one_point_rates_equal_per_pair_slogdets_over_an_snr_sweep(m, tag):
    # a one-SNR call sums a 1x1 stack in Python floats and reads a larger one's
    # log-dets as floats: both equal one slogdet per pair and SNR, bit for bit,
    # and the grid kernel too
    for seed in range(4):
        ch, s = _built(m, tag, seed=seed)
        zero_forcing = [sum_rate(s, ch, snr) for snr in _SWEEP_SNRS]
        assert zero_forcing == [_loop_sum_rate(s, ch, snr) for snr in _SWEEP_SNRS]
        assert zero_forcing == rates_mod._sum_rates(s, ch, _SWEEP_SNRS).tolist()
        assert [ablated_sum_rate(s, ch, snr, seed=seed) for snr in _SWEEP_SNRS] == [
            _per_call_ablated_sum_rate(s, ch, snr, seed) for snr in _SWEEP_SNRS
        ]


@pytest.mark.parametrize(
    "seed, ablated, snr, want",
    [
        (12, False, 1e308, _OVERFLOW.format(1e308)),
        (1, True, 1e308, _OVERFLOW.format(1e308)),
        (4, False, 1.7e308, _OVERFLOW.format(1.7e308)),
        (4, False, 1e308, 4080.316912811533),
    ],
)
def test_a_failing_1x1_stack_names_its_error_through_name_error(monkeypatch, seed, ablated, snr, want):
    # every (3,3,3) uni-a stack is 1x1: a call makes no numpy slogdet until a
    # stack fails, and then its pairs go one by one through _name_error. A 1x1
    # stack is 1 + rho |g|^2 > 0, so it only ever fails by overflowing.
    ch, s = _built((3, 3, 3), SchemeTag.UNI_A, seed=seed)
    named = []
    name_error = rates_mod._name_error
    monkeypatch.setattr(rates_mod, "_name_error", lambda *args: named.append(args[2]) or name_error(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _raised(lambda: ablated_sum_rate(s, ch, snr, seed=seed) if ablated else sum_rate(s, ch, snr))
        if isinstance(want, str):
            assert got == ("InvalidInputError", want) and named
        else:
            assert got is None and sum_rate(s, ch, snr) == want and not named
