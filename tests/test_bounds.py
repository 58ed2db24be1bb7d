"""Bound-family tests.

The combined bounds are pure rational functions of the split, so most checks
are exact equalities against independently recomputed term sets; the grid
properties (monotonicity, genie <= cutset, swap symmetry) run over a coarse
deterministic lattice with components up to 8.
"""

import itertools
from fractions import Fraction

import pytest

from mimo3way import (
    AntennaSplit,
    InvalidInputError,
    cutset_bound_broadcast,
    cutset_bound_unicast,
    genie_bound_unicast,
    symmetric_bound,
)

GRID_VALUES = (0, 1, 3, 8)


def _grid_splits():
    for t1, t2, t3, r1, r2, r3 in itertools.product(GRID_VALUES, repeat=6):
        yield AntennaSplit((t1, t2, t3), (r1, r2, r3))


def test_cutset_worked_example():
    rep = cutset_bound_unicast(AntennaSplit((3, 1, 1), (0, 2, 2)))
    assert rep.combined == 4
    assert rep.family == "cutset"
    assert rep.binding == ("sum_rx",)
    by_label = {t.label: t.value for t in rep.total_terms}
    assert by_label == {
        "tx{2}+tx{3}+rx{2}+rx{3}": 6,
        "sum_tx": 5,
        "sum_rx": 4,
    }
    partial = {t.label: t.value for t in rep.partial_terms}
    assert partial["cut{1|23}"] == 3
    assert partial["cut{23|1}"] == 0


def test_cutset_no_transmit_antennas():
    rep = cutset_bound_unicast(AntennaSplit((0, 0, 0), (1, 1, 1)))
    assert rep.combined == 0
    assert "sum_tx" in rep.binding


def test_cutset_symmetric_formula():
    for mt, mr in itertools.product(range(0, 9), repeat=2):
        rep = cutset_bound_unicast(AntennaSplit((mt,) * 3, (mr,) * 3))
        assert rep.combined == min(2 * (mt + mr), 3 * mt, 3 * mr)


def test_genie_worked_example():
    rep = genie_bound_unicast(AntennaSplit((3, 1, 1), (0, 2, 2)))
    assert rep.combined == 4
    by_label = {t.label: t.value for t in rep.total_terms}
    assert by_label == {
        "sum_tx": 5,
        "sum_rx": 4,
        "genie{2,3}": 4,
        "genie{1,2}": 4,
        "genie{1,3}": 4,
    }


def test_genie_symmetric_unit_split():
    rep = genie_bound_unicast(AntennaSplit((1, 1, 1), (1, 1, 1)))
    assert rep.combined == 2
    values = sorted(t.value for t in rep.total_terms)
    assert values == [2, 2, 2, 3, 3]


def test_genie_triple_terms_recomputed():
    split = AntennaSplit((4, 2, 1), (3, 1, 2))
    (t1, t2, t3), (r1, r2, r3) = split.tx, split.rx
    partial = {t.label: t.value for t in genie_bound_unicast(split).partial_terms}
    assert partial["genie@1|w23"] == min(max(r1, t3), t2 + t3)
    assert partial["genie@1|w32"] == min(max(r1, t2), t2 + t3)
    assert partial["genie@2|w13"] == min(max(r2, t3), t1 + t3)
    assert partial["genie@2|w31"] == min(max(r2, t1), t1 + t3)
    assert partial["genie@3|w12"] == min(max(r3, t2), t1 + t2)
    assert partial["genie@3|w21"] == min(max(r3, t1), t1 + t2)


def test_genie_never_looser_than_cutset():
    for split in _grid_splits():
        assert genie_bound_unicast(split).combined <= cutset_bound_unicast(split).combined


def test_genie_swap_symmetry():
    # exchanging transmit and receive roles permutes the five-term set onto
    # itself, so the combined value cannot move
    for split in _grid_splits():
        a = genie_bound_unicast(split)
        b = genie_bound_unicast(AntennaSplit(split.rx, split.tx))
        assert a.combined == b.combined
        assert sorted(t.value for t in a.total_terms) == sorted(t.value for t in b.total_terms)


def test_bounds_monotone_in_antennas():
    one = Fraction(1)
    for split in _grid_splits():
        base_c = cutset_bound_unicast(split).combined
        base_g = genie_bound_unicast(split).combined
        base_b = cutset_bound_broadcast(split).combined
        for k in range(6):
            tx = list(split.tx)
            rx = list(split.rx)
            if k < 3:
                tx[k] += one
            else:
                rx[k - 3] += one
            bigger = AntennaSplit(tx, rx)
            assert cutset_bound_unicast(bigger).combined >= base_c
            assert genie_bound_unicast(bigger).combined >= base_g
            assert cutset_bound_broadcast(bigger).combined >= base_b


@pytest.mark.parametrize(
    "mt,mr,want",
    [
        (2, 2, 4),
        (5, 1, 3),
        (1, 5, 3),
        (0, 7, 0),
        (Fraction(7, 3), Fraction(7, 3), Fraction(14, 3)),
    ],
)
def test_symmetric_bound_values(mt, mr, want):
    assert symmetric_bound(mt, mr) == want


def test_symmetric_bound_matches_genie_on_grid():
    for mt, mr in itertools.product(range(0, 11), repeat=2):
        split = AntennaSplit((mt,) * 3, (mr,) * 3)
        assert symmetric_bound(mt, mr) == genie_bound_unicast(split).combined


def test_symmetric_bound_rejects_negative():
    with pytest.raises(InvalidInputError):
        symmetric_bound(-1, 2)


def test_broadcast_worked_example():
    rep = cutset_bound_broadcast(AntennaSplit((2, 1, 2), (3, 2, 0)))
    assert rep.combined == 5
    by_label = {t.label: t.value for t in rep.total_terms}
    assert by_label == {
        "sum_rx": 5,
        "tx{2}+tx{3}+rx{2}+rx{3}": 5,
        "rx{3}+tx{1}+tx{2}+2tx{3}": 7,
        "2sum_tx": 10,
    }
    assert set(rep.binding) == {"sum_rx", "tx{2}+tx{3}+rx{2}+rx{3}"}


def test_broadcast_no_receive_antennas():
    rep = cutset_bound_broadcast(AntennaSplit((1, 1, 1), (0, 0, 0)))
    assert rep.combined == 0


def test_broadcast_terms_recomputed():
    for split in _grid_splits():
        (t1, t2, t3), (r1, r2, r3) = split.tx, split.rx
        rep = cutset_bound_broadcast(split)
        want = min(
            r1 + r2 + r3,
            t2 + t3 + r2 + r3,
            r3 + t1 + t2 + 2 * t3,
            2 * (t1 + t2 + t3),
        )
        assert rep.combined == want


def test_combined_is_min_of_total_terms():
    split = AntennaSplit((3, Fraction(1, 3), 1), (2, 2, Fraction(5, 3)))
    for rep in (cutset_bound_unicast(split), genie_bound_unicast(split), cutset_bound_broadcast(split)):
        assert rep.combined == min(t.value for t in rep.total_terms)
        assert all(
            t.value == rep.combined for t in rep.total_terms if t.label in rep.binding
        )


def test_report_json():
    j = genie_bound_unicast(AntennaSplit((1, 1, 1), (1, 1, 1))).to_json()
    assert j["combined_genie"] == "2"
    assert j["combined_cutset"] is None
    assert {t["label"] for t in j["total_terms"]} == {
        "sum_tx", "sum_rx", "genie{2,3}", "genie{1,2}", "genie{1,3}"
    }
    assert all(isinstance(t["value"], str) for t in j["total_terms"])


def test_bounds_reject_non_splits():
    with pytest.raises(InvalidInputError):
        cutset_bound_unicast(((1, 1, 1), (1, 1, 1)))
