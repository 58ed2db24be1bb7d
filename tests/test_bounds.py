"""Bound-family tests.

The combined bounds are pure rational functions of the split, so most checks
are exact equalities against independently recomputed term sets; the grid
properties (monotonicity, genie <= cutset, swap symmetry) run over a coarse
deterministic lattice with components up to 8.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _fraction_reference(family, split):
    """(partials, totals) of one bound family, evaluated on the split's
    Fractions: the reference for the integer-numerator evaluation."""
    (t1, t2, t3), (r1, r2, r3) = split.tx, split.rx
    if family == "cutset":
        partials = [
            ("cut{1|23}", min(t1, r2 + r3)), ("cut{2|13}", min(t2, r1 + r3)), ("cut{3|12}", min(t3, r1 + r2)),
            ("cut{12|3}", min(t1 + t2, r3)), ("cut{23|1}", min(t2 + t3, r1)), ("cut{13|2}", min(t1 + t3, r2)),
        ]
        totals = [("tx{2}+tx{3}+rx{2}+rx{3}", t2 + t3 + r2 + r3), ("sum_tx", t1 + t2 + t3), ("sum_rx", r1 + r2 + r3)]
    elif family == "genie":
        partials = [
            ("genie@1|w23", min(max(r1, t3), t2 + t3)), ("genie@1|w32", min(max(r1, t2), t2 + t3)),
            ("genie@2|w13", min(max(r2, t3), t1 + t3)), ("genie@2|w31", min(max(r2, t1), t1 + t3)),
            ("genie@3|w12", min(max(r3, t2), t1 + t2)), ("genie@3|w21", min(max(r3, t1), t1 + t2)),
        ]
        totals = [
            ("sum_tx", t1 + t2 + t3), ("sum_rx", r1 + r2 + r3), ("genie{2,3}", max(r2, t3) + max(r3, t2)),
            ("genie{1,2}", max(r2, t1) + max(r1, t2)), ("genie{1,3}", max(r3, t1) + max(r1, t3)),
        ]
    else:
        partials = [("cut{12|3}", min(t1 + t2, r3)), ("cut{23|1}", min(t2 + t3, r1)), ("cut{13|2}", min(t1 + t3, r2))]
        totals = [
            ("sum_rx", r1 + r2 + r3), ("tx{2}+tx{3}+rx{2}+rx{3}", t2 + t3 + r2 + r3),
            ("rx{3}+tx{1}+tx{2}+2tx{3}", r3 + t1 + t2 + 2 * t3), ("2sum_tx", 2 * (t1 + t2 + t3)),
        ]
    return partials, totals


_ENTRY = st.builds(Fraction, st.integers(0, 40), st.integers(1, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_ENTRY, min_size=6, max_size=6))
def test_bounds_at_rational_splits_match_a_fraction_reference(entries):
    # denominators 1..12, so the common denominator of a split is far from
    # only the 1 or 3 of allocated splits
    split = AntennaSplit(entries[:3], entries[3:])
    for family, bound in (
        ("cutset", cutset_bound_unicast),
        ("genie", genie_bound_unicast),
        ("broadcast", cutset_bound_broadcast),
    ):
        rep = bound(split)
        partials, totals = _fraction_reference(family, split)
        combined = min(v for _, v in totals)
        terms = rep.partial_terms + rep.total_terms
        assert [(t.label, t.value) for t in terms] == partials + totals
        assert all(type(t.value) is Fraction for t in terms) and type(rep.combined) is Fraction
        assert rep.combined == combined
        assert rep.binding == tuple(label for label, v in totals if v == combined)
        json_terms = lambda ts: [{"label": l, "value": str(v)} for l, v in ts]
        assert rep.to_json() == {
            "partial_terms": json_terms(partials),
            "total_terms": json_terms(totals),
            "combined_cutset": None if family == "genie" else str(combined),
            "combined_genie": str(combined) if family == "genie" else None,
            "binding": list(rep.binding),
        }


def test_bounds_reject_non_splits():
    with pytest.raises(InvalidInputError):
        cutset_bound_unicast(((1, 1, 1), (1, 1, 1)))
