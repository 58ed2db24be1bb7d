"""Channel-model tests: configs, splits, draws and the received-signal map."""

from fractions import Fraction

import numpy as np
import pytest

from mimo3way import (
    PAIR_ORDER,
    AntennaConfig,
    AntennaSplit,
    ChannelSet,
    InvalidInputError,
    SchemeTag,
    draw_channels,
    receive,
    scheme_split,
)
from mimo3way.linalg import CHANNEL_STREAM, complex_gaussian, generator


def test_config_ordering_enforced():
    AntennaConfig(3, 2, 1)
    with pytest.raises(InvalidInputError):
        AntennaConfig(1, 2, 3)
    with pytest.raises(InvalidInputError):
        AntennaConfig(2, -1, 0)
    with pytest.raises(InvalidInputError):
        AntennaConfig(2, 1.0, 1)


def test_config_json_roundtrip():
    cfg = AntennaConfig(5, 4, 2)
    assert cfg.to_json() == {"m": [5, 4, 2]}


def test_config_accessors():
    cfg = AntennaConfig(5, 4, 2)
    assert cfg.totals == (5, 4, 2)


def test_split_totals_and_accessors():
    s = AntennaSplit((3, 1, 1), (0, 2, 2))
    assert s.totals == (Fraction(3), Fraction(3), Fraction(3))
    assert s.tx_of(1) == 3 and s.rx_of(3) == 2
    with pytest.raises(InvalidInputError):
        s.tx_of(0)


def test_split_rejects_negative():
    with pytest.raises(InvalidInputError):
        AntennaSplit((3, -1, 1), (0, 2, 2))


@pytest.mark.parametrize(
    "tx, rx",
    [("123", "000"), ({1: 0, 2: 0, 3: 0}, [0, 0, 0]), ({3, 1, 2}, [0, 0, 0]), ([1, 2, 3], b"\x00\x00\x00")],
)
def test_split_refuses_unordered_or_character_sides(tx, rx):
    # a string, mapping or set iterates as characters, keys or in hash order
    with pytest.raises(InvalidInputError, match="sequence of 3 rationals"):
        AntennaSplit(tx, rx)
    assert AntennaSplit((1, 2, 3), [0, 0, 0]).tx == (1, 2, 3)


def test_split_fractional_vs_integral():
    s = AntennaSplit(("5", "1/3", "1/3"), ("0", "11/3", "5/3"))
    assert not s.is_integral
    assert s.extension_factor == 3
    scaled = s.scaled(3)
    assert scaled.is_integral
    assert scaled.integer_pairs() == ((15, 1, 1), (0, 11, 5))
    with pytest.raises(InvalidInputError):
        s.integer_pairs()


def test_split_json_roundtrip():
    s = AntennaSplit((3, Fraction(1, 3), 1), (0, 2, Fraction(2, 3)))
    j = s.to_json()
    assert j == {"mt": ["3", "1/3", "1"], "mr": ["0", "2", "2/3"]}


def test_draw_channels_shapes():
    # mt=(3,1,1), mr=(0,2,2): both matrices into node 1 are empty
    split = AntennaSplit((3, 1, 1), (0, 2, 2))
    ch = draw_channels(split, seed=1)
    assert ch.h(1, 2).shape == (2, 3)
    assert ch.h(1, 3).shape == (2, 3)
    assert ch.h(2, 3).shape == (2, 1)
    assert ch.h(3, 2).shape == (2, 1)
    assert ch.h(2, 1).shape == (0, 1)
    assert ch.h(3, 1).shape == (0, 1)


def test_draw_channels_deterministic():
    split = AntennaSplit((2, 1, 1), (1, 1, 1))
    a = draw_channels(split, seed=42)
    b = draw_channels(split, seed=42)
    for i, j in PAIR_ORDER:
        assert a.h(i, j).tobytes() == b.h(i, j).tobytes()
    c = draw_channels(split, seed=43)
    assert any(a.h(i, j).tobytes() != c.h(i, j).tobytes() for i, j in PAIR_ORDER)


@pytest.mark.parametrize(
    "m, tag",
    [
        ((3, 3, 3), SchemeTag.UNI_A),  # balanced
        ((5, 4, 3), SchemeTag.UNI_A),  # x3 extended
        ((4, 2, 1), SchemeTag.UNI_B),  # hub: no receive antennas at nodes 2, 3
    ],
)
def test_draw_channels_is_the_per_link_draw_sequence(m, tag):
    split, _ = scheme_split(AntennaConfig(*m), tag)
    for seed in (0, 1, 9):
        ch = draw_channels(split, seed)
        rng = generator(seed, CHANNEL_STREAM)
        for i, j in PAIR_ORDER:
            want = complex_gaussian(rng, int(split.rx_of(j)), int(split.tx_of(i)))
            got = ch.h(i, j)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
            assert not got.flags.writeable
        rebuilt = ChannelSet(split, ch.matrices)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rebuilt.matrices, ch.matrices))
    if tag is SchemeTag.UNI_B:
        assert ch.h(1, 2).size == ch.h(3, 2).size == 0


def test_draw_channels_rejects_fractional():
    split = AntennaSplit((1, Fraction(1, 3), 0), (0, Fraction(2, 3), 1))
    with pytest.raises(InvalidInputError):
        draw_channels(split, seed=0)


def test_channelset_validates_shapes():
    split = AntennaSplit((1, 1, 1), (1, 1, 1))
    good = draw_channels(split, seed=0)
    mats = list(good.matrices)
    mats[0] = np.zeros((2, 2), dtype=complex)
    with pytest.raises(InvalidInputError):
        ChannelSet(split, tuple(mats))
    with pytest.raises(InvalidInputError):
        ChannelSet(split, tuple(good.matrices[:5]))


def test_channelset_matrices_readonly():
    split = AntennaSplit((1, 1, 1), (1, 1, 1))
    ch = draw_channels(split, seed=0)
    with pytest.raises((ValueError, RuntimeError)):
        ch.h(1, 2)[0, 0] = 0


def test_channelset_no_self_link():
    ch = draw_channels(AntennaSplit((1, 1, 1), (1, 1, 1)), seed=0)
    with pytest.raises(InvalidInputError):
        ch.h(2, 2)


def _vectors(rng, split):
    xs = [complex_gaussian(rng, int(split.tx_of(n)), 1) for n in (1, 2, 3)]
    zs = [complex_gaussian(rng, int(split.rx_of(n)), 1) for n in (1, 2, 3)]
    return xs, zs


def test_receive_zero_inputs_pass_noise_through():
    split = AntennaSplit((2, 1, 1), (1, 2, 1))
    ch = draw_channels(split, seed=3)
    rng = generator(4)
    _, zs = _vectors(rng, split)
    xs = [np.zeros((int(split.tx_of(n)), 1), dtype=complex) for n in (1, 2, 3)]
    ys = receive(ch, xs, zs)
    for y, z in zip(ys, zs):
        np.testing.assert_allclose(y, z)


def test_receive_single_transmitter():
    split = AntennaSplit((2, 1, 1), (1, 2, 1))
    ch = draw_channels(split, seed=3)
    rng = generator(5)
    x1 = complex_gaussian(rng, 2, 1)
    xs = [x1, np.zeros((1, 1), complex), np.zeros((1, 1), complex)]
    zs = [np.zeros((int(split.rx_of(n)), 1), complex) for n in (1, 2, 3)]
    ys = receive(ch, xs, zs)
    np.testing.assert_allclose(ys[0], np.zeros((1, 1)))
    np.testing.assert_allclose(ys[1], ch.h(1, 2) @ x1)
    np.testing.assert_allclose(ys[2], ch.h(1, 3) @ x1)


def test_receive_refuses_a_signal_that_overflows():
    # finite links of entries 1.7e308 and unit signals: each y_j overflows,
    # which is refused as bad input with (by the suite's warning filter) no
    # RuntimeWarning
    split, _ = scheme_split(AntennaConfig(3, 3, 3), SchemeTag.UNI_A)
    ch = ChannelSet(split, tuple(np.full(h.shape, 1.7e308) for h in draw_channels(split, 0).matrices))
    xs = [np.ones((int(split.tx_of(n)), 1)) for n in (1, 2, 3)]
    zs = [np.zeros((int(split.rx_of(n)), 1)) for n in (1, 2, 3)]
    with pytest.raises(InvalidInputError, match="a received signal overflows float64"):
        receive(ch, xs, zs)
    assert all(np.isfinite(y).all() for y in receive(ch, [x * 1e-300 for x in xs], zs))


def test_receive_matches_triple_loop_oracle():
    split = AntennaSplit((3, 2, 1), (2, 2, 2))
    ch = draw_channels(split, seed=9)
    rng = generator(10)
    xs, zs = _vectors(rng, split)
    ys = receive(ch, xs, zs)
    for j in (1, 2, 3):
        want = zs[j - 1].copy()
        for i in (1, 2, 3):
            if i == j:
                continue
            h = ch.h(i, j)
            acc = np.zeros_like(want)
            for r in range(h.shape[0]):
                for c in range(h.shape[1]):
                    acc[r, 0] += h[r, c] * xs[i - 1][c, 0]
            want = want + acc
        assert np.linalg.norm(ys[j - 1] - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_receive_is_linear():
    split = AntennaSplit((2, 2, 2), (2, 2, 2))
    ch = draw_channels(split, seed=14)
    rng = generator(15)
    xa, za = _vectors(rng, split)
    xb, zb = _vectors(rng, split)
    ya = receive(ch, xa, za)
    yb = receive(ch, xb, zb)
    ysum = receive(ch, [a + b for a, b in zip(xa, xb)], [a + b for a, b in zip(za, zb)])
    for s, a, b in zip(ysum, ya, yb):
        assert np.linalg.norm(s - (a + b)) <= 1e-12 * max(1.0, np.linalg.norm(s))


def test_receive_dimension_mismatch():
    split = AntennaSplit((2, 1, 1), (1, 2, 1))
    ch = draw_channels(split, seed=3)
    xs = [np.zeros((1, 1), complex)] * 3  # x1 should have 2 rows
    zs = [np.zeros((int(split.rx_of(n)), 1), complex) for n in (1, 2, 3)]
    with pytest.raises(InvalidInputError):
        receive(ch, xs, zs)


def test_receive_refuses_a_non_finite_signal():
    split = AntennaSplit((2, 1, 1), (1, 2, 1))
    ch = draw_channels(split, seed=3)
    xs, zs = _vectors(generator(4), split)
    with pytest.raises(InvalidInputError, match="x1 contains non-finite"):
        receive(ch, [np.full((2, 1), np.nan), *xs[1:]], zs)
    with pytest.raises(InvalidInputError, match="noise3 contains non-finite"):
        receive(ch, xs, [*zs[:2], np.full((1, 1), np.inf)])
