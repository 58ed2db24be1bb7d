"""Rate-simulator tests: log-det sum rates, slope estimation, ablation."""

import math
from fractions import Fraction

import numpy as np
import pytest

import mimo3way.rates as rates_mod
from mimo3way import (
    AntennaConfig,
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
    bc = s.message("u3bc")
    rho = snr / s.tx_streams(3)
    per_rx = []
    for r in bc.receivers:
        q = s.projectors[(bc.key, r)]
        g = q.conj().T @ ch.h(3, r) @ s.precoders[bc.key]
        gram = np.eye(g.shape[0], dtype=complex) + rho * (g @ g.conj().T)
        per_rx.append(float(np.log2(np.linalg.det(gram).real)))
    u21 = s.message("u21")
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


@pytest.mark.parametrize("grid", [(3000.0, 4000.0), (-4000.0, 30.0), (30.0, math.nan)])
def test_estimate_rejects_unrepresentable_snr_before_drawing(monkeypatch, grid):
    def no_draw(*a, **k):
        raise AssertionError("a channel was drawn for an invalid SNR grid")

    monkeypatch.setattr(rates_mod, "draw_channels", no_draw)
    with pytest.raises(InvalidInputError, match="no finite positive linear value"):
        estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, grid, trials=2)


def test_all_invalid_draws_is_internal_error(monkeypatch):
    class _Nope:
        valid = False

    monkeypatch.setattr(rates_mod, "verify_scheme", lambda *a, **k: _Nope())
    with pytest.raises(InternalError, match="invalid"):
        estimate_dof(AntennaConfig(3, 3, 3), SchemeTag.UNI_A, (30.0, 50.0), trials=3, seed=0)


def test_ablation_saturates_below_zero_forcing():
    for seed in (0, 1):
        ch, s = _built((4, 4, 4), SchemeTag.UNI_A, seed=seed)
        snr = 1e5
        assert ablated_sum_rate(s, ch, snr, seed=seed) < sum_rate(s, ch, snr)


def test_slope_estimate_serialization():
    est = estimate_dof(AntennaConfig(2, 1, 1), SchemeTag.UNI_B, (30.0, 50.0), trials=4, seed=2)
    j = est.to_json()
    assert j["scheme"] == "uni-b"
    assert j["theoretical_dof"] == "2"
    assert len(j["mean_rates"]) == 2
    csv = est.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "snr_db,mean_rate"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == est.mean_rates[0]
