"""Rate-simulator tests: log-det sum rates, slope estimation, ablation."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import mimo3way.channel as channel_mod
import mimo3way.rates as rates_mod
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
from mimo3way.linalg import ABLATION_STREAM, generator, random_orthonormal


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
    # 12 trials in two blocks on a (3079, 3082) dB grid: the first failing
    # (trial, SNR) in C order of the first failing pair names the SNR
    got = _raised(lambda: estimate_dof(AntennaConfig(*m), tag, (3079.0, 3082.0), trials=12, seed=seed))
    assert got == ("InvalidInputError", message.format(named))


def test_log2det_names_the_first_bad_matrix_in_c_order():
    # the callers hold np.errstate(over="ignore", invalid="ignore") around it
    def log2det(grams):
        with np.errstate(over="ignore", invalid="ignore"):
            return rates_mod._log2det(grams, [1.0, 2.0, 3.0])

    eye = np.eye(2, dtype=complex)
    grams = np.stack([eye] * 6).reshape(2, 3, 2, 2)
    bits = log2det(grams)
    assert bits.shape == (2, 3) and not bits.any()
    bad = grams.copy()
    bad[1, 0] = np.nan
    bad[0, 2] = np.inf
    assert _raised(lambda: log2det(bad)) == ("InvalidInputError", _OVERFLOW.format(3.0))
    bad = grams.copy()
    bad[0, 1] = np.full((2, 2), 1e17)  # singular once eye is rounded away
    bad[1, 0] = np.diag([-1.0, 1.0])  # det -1
    assert _raised(lambda: log2det(bad)) == ("InvalidInputError", _RESOLUTION.format(2.0))
    bad[0, 1] = eye
    bad[0, 2] = 0  # singular with small entries: no SNR is to blame
    assert _raised(lambda: log2det(bad)) == ("InternalError", "rate Gram matrix is not positive definite")


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
    "points, raised, match", [(32, AssertionError, "drawn"), (33, InvalidInputError, "Gram")], ids=["at", "over"]
)
def test_estimate_refuses_a_gram_stack_over_budget_before_drawing(monkeypatch, points, raised, match):
    # (256,128,128) uni-b has two 128-stream messages: 8 trials x 32 points x
    # 128^2 is exactly the budget, one more point is over it
    assert 8 * 32 * 128**2 == rates_mod._MAX_GRAM_ENTRIES
    monkeypatch.setattr(rates_mod, "_draw", _no_draw)
    grid = [30.0 + k for k in range(points)]
    with pytest.raises(raised, match=match):
        estimate_dof(AntennaConfig(256, 128, 128), SchemeTag.UNI_B, grid, trials=8)


def test_all_invalid_draws_is_internal_error(monkeypatch):
    # every trial of every block fails verification
    monkeypatch.setattr(rates_mod, "_passed", lambda scheme, channels, seeds: np.zeros(len(seeds), dtype=bool))
    with pytest.raises(InternalError, match="invalid"):
        estimate_dof(AntennaConfig(3, 3, 3), SchemeTag.UNI_A, (30.0, 50.0), trials=3, seed=0)


def _loop_estimate(config, tag, grid, trials, seed):
    """Reference for estimate_dof: one draw, build, verify and rate per trial,
    then the mean rates, the two-point slope and the invalid count."""
    split, _ = scheme_split(config, tag)
    snrs = [10.0 ** (db / 10.0) for db in grid]
    rates, invalid = [], 0
    for k in range(trials):
        ts = rates_mod._trial_seed(seed, k)
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


_SCHEME_CASES = [((3, 3, 3), SchemeTag.UNI_A), ((3, 3, 1), SchemeTag.UNI_A), ((4, 2, 1), SchemeTag.UNI_B),
                 ((5, 3, 2), SchemeTag.BCAST), ((5, 3, 3), SchemeTag.BCAST), ((7, 6, 5), SchemeTag.UNI_A)]


@pytest.mark.parametrize("m, tag", _SCHEME_CASES)
# trials below, at and above one block, and spanning three blocks
@pytest.mark.parametrize("trials", [rates_mod._BLOCK - 3, rates_mod._BLOCK, rates_mod._BLOCK + 3, 2 * rates_mod._BLOCK + 3])
def test_blocked_estimate_equals_trial_loop(m, tag, trials):
    _assert_blocked_equals_loop(m, tag, trials)


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
def test_blocked_estimate_counts_a_rigged_invalid_trial_as_the_loop(monkeypatch, m, tag, pair, edit):
    seed, bad = 5, 3
    _rigged(monkeypatch, rates_mod._trial_seed(seed, bad), pair, edit)
    est = _assert_blocked_equals_loop(m, tag, rates_mod._BLOCK + 2, seed=seed)
    assert est.invalid_trials == 1


def test_blocked_estimate_raises_on_a_precoder_of_non_generic_rank(monkeypatch):
    # uni-a at (3,3,3): H13 of rank 1 gives null(H13) two columns for a
    # one-stream message, which verification refuses in the loop and the
    # blocked path alike
    seed, bad = 5, 3
    _rigged(monkeypatch, rates_mod._trial_seed(seed, bad), (1, 3), _zero_first_row)
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

    def counting_generator(*args):
        made.append(args)
        return generator(*args)

    monkeypatch.setattr(rates_mod, "generator", counting_generator)
    ch, s = _built((4, 2, 1), SchemeTag.UNI_B, seed=0)
    for seed in (1, 1, 2, 1, 2):
        for snr in (10.0, 1e4):
            ablated_sum_rate(s, ch, snr, seed=seed)
    assert made == [(1, ABLATION_STREAM), (2, ABLATION_STREAM)]
    other = draw_channels(ch.split, 5)  # other channels, same shapes
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
