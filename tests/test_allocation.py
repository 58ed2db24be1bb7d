"""Allocation-optimizer tests.

The three unicast routes (closed form, sign-pattern enumeration, grid brute
force) must agree exactly; the broadcast optimum carries the transmit-sum
band of equivalent optima. Full-grid equality up to components of 10 lives in
the acceptance suite; here a smaller grid keeps the loop fast.
"""

import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from mimo3way import (
    AntennaConfig,
    AntennaSplit,
    DualityCertificate,
    DualityPairCertificate,
    DualityStatus,
    InternalError,
    InvalidInputError,
    LinearProgram,
    Regime,
    RegimeError,
    SchemeTag,
    TransmitSumBand,
    broadcast_optimal_value,
    build_scheme,
    canonical_split,
    canonical_subproblem,
    genie_bound_unicast,
    genie_subproblem,
    holds,
    optimal_broadcast,
    optimal_unicast_bruteforce,
    optimal_unicast_closed_form,
    optimal_unicast_enumerated,
    scheme_split,
    solve_inequality_min,
    unicast_optimal_value,
    verify_duality,
)
from mimo3way import allocation, cli
from mimo3way.allocation import _MAX_TERMS, _ORBITS, _broadcast_thrice, _genie_rows, _unicast_thrice
from mimo3way.bounds import GENIE_TERMS
from mimo3way.lp import _Unbounded


def _configs(limit):
    for a in range(1, limit + 1):
        for b in range(1, a + 1):
            for c in range(1, b + 1):
                yield AntennaConfig(a, b, c)


def test_closed_form_balanced_example():
    r = optimal_unicast_closed_form(AntennaConfig(3, 3, 3))
    assert r.optimal_dof == 4
    assert r.split.rx == (0, 2, 2)
    assert r.split.tx == (3, 1, 1)
    assert r.regime is Regime.BALANCED
    assert r.extension_factor == 1


def test_closed_form_hub_example():
    r = optimal_unicast_closed_form(AntennaConfig(4, 2, 1))
    assert r.optimal_dof == 3
    assert r.split.rx == (3, 0, 0)
    assert r.split.tx == (1, 2, 1)
    assert r.regime is Regime.HUB


def test_closed_form_fractional_example():
    r = optimal_unicast_closed_form(AntennaConfig(4, 4, 4))
    assert r.optimal_dof == Fraction(16, 3)
    assert r.extension_factor == 3
    assert not r.split.is_integral
    assert r.split.scaled(3).is_integral


def test_closed_form_split_attains_value():
    for cfg in _configs(6):
        r = optimal_unicast_closed_form(cfg)
        assert genie_bound_unicast(r.split).combined == r.optimal_dof
        assert r.split.totals == cfg.totals


def test_value_function_branches():
    assert unicast_optimal_value(5, 4, 2) == Fraction(16, 3)
    assert unicast_optimal_value(9, 1, 1) == 2
    # boundary: both branches give m2+m3
    assert unicast_optimal_value(4, 3, 1) == 4
    assert unicast_optimal_value(Fraction(3, 2), 1, 1) == Fraction(5, 3)


def _ordered_triples(side, count, seed):
    """Random rational (m1, m2, m3), m1 >= m2 >= m3 >= 0, with m1 below, on
    or above the regime line m1 = m2+m3 (side -1, 0 or 1)."""
    rng = random.Random(seed)

    def positive():
        return Fraction(rng.randint(1, 40), rng.randint(1, 12))

    triples = []
    while len(triples) < count:
        m3 = positive() if side == -1 else positive() - 1  # m3 = 0 only on or above the line
        m2 = m3 + positive() - 1
        if not m2 >= m3 >= 0:
            continue
        # below the line m1 stays >= m2: it gives up a share in (0, 1) of m3
        m1 = m2 + m3 * (1 - Fraction(rng.randint(1, 11), 12)) if side == -1 else m2 + m3 + side * positive()
        triples.append((m1, m2, m3))
    return triples


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_integer_form_equals_two_region_formula(side):
    for m1, m2, m3 in _ordered_triples(side, 200, seed=side + 7):
        assert (m1 < m2 + m3, m1 == m2 + m3) == (side == -1, side == 0)
        two_region = m1 + (m2 + m3 - m1) / 3 if m1 <= m2 + m3 else m2 + m3
        assert _unicast_thrice(m1, m2, m3) / 3 == two_region
        assert unicast_optimal_value(m1, m2, m3) == two_region
        assert _broadcast_thrice(m1, m2, m3) / 3 == broadcast_optimal_value(m1, m2, m3) == m2 + m3
        # degree 1: the sweep evaluates (a, b, 1) as the numerators (a d, b d, d)
        d = math.lcm(m1.denominator, m2.denominator, m3.denominator)
        for thrice in (_unicast_thrice, _broadcast_thrice):
            scaled = thrice(int(m1 * d), int(m2 * d), int(m3 * d))
            assert type(scaled) is int and Fraction(scaled, 3 * d) == thrice(m1, m2, m3) / 3


def test_value_function_rejects_unordered():
    with pytest.raises(InvalidInputError):
        unicast_optimal_value(1, 2, 3)
    with pytest.raises(InvalidInputError):
        optimal_unicast_closed_form(None)


def test_enumerated_matches_closed_form_with_certificate():
    for m in [(3, 3, 3), (4, 2, 1), (5, 4, 2), (6, 5, 1), (7, 3, 3)]:
        cfg = AntennaConfig(*m)
        r = optimal_unicast_enumerated(cfg)
        assert r.optimal_dof == optimal_unicast_closed_form(cfg).optimal_dof
        cert = r.certificate
        assert isinstance(cert, DualityPairCertificate)
        assert cert.gap == 0
        assert all(l >= 0 for l in cert.lam)
        assert verify_duality(cert.lp, cert.v, cert.lam).is_optimal


def test_enumerated_small_grid_equality():
    for cfg in _configs(5):
        assert optimal_unicast_enumerated(cfg).optimal_dof == optimal_unicast_closed_form(cfg).optimal_dof


def test_canonical_pair_formula_any_balanced_config():
    # v = ((2m1+m2+m3)/3, 0, (m1+2m2-m3)/3, (m1+2m3-m2)/3), multipliers
    # 1/3 on each genie row and 2/3 on rx1>=0, all other rows 0
    from mimo3way import canonical_primal_dual

    for m in [(3, 3, 3), (5, 4, 2), (7, 6, 2), (8, 8, 8)]:
        cfg = AntennaConfig(*m)
        lp, v, lam = canonical_primal_dual(cfg)
        m1, m2, m3 = (Fraction(x) for x in m)
        assert v == ((2 * m1 + m2 + m3) / 3, 0, (m1 + 2 * m2 - m3) / 3, (m1 + 2 * m3 - m2) / 3)
        support = {label: l for label, l in zip(lp.constraints, lam) if l != 0}
        assert support == {
            "dof<=genie{2,3}": Fraction(1, 3),
            "dof<=genie{1,2}": Fraction(1, 3),
            "dof<=genie{1,3}": Fraction(1, 3),
            "rx1>=0": Fraction(2, 3),
        }
        cert = verify_duality(lp, v, lam)
        assert cert.is_optimal and cert.gap == 0


@pytest.mark.parametrize(
    "m,denominator,want",
    [
        ((3, 3, 3), 3, Fraction(4)),
        ((5, 4, 2), 3, Fraction(16, 3)),
        ((9, 1, 1), 1, Fraction(2)),
        ((1, 1, 1), 3, Fraction(4, 3)),
    ],
)
def test_bruteforce_examples(m, denominator, want):
    r = optimal_unicast_bruteforce(AntennaConfig(*m), denominator)
    assert r.optimal_dof == want
    # the reported maximizer really evaluates to the maximum
    assert genie_bound_unicast(r.split).combined == want


def test_bruteforce_small_grid_equality():
    for cfg in _configs(5):
        assert optimal_unicast_bruteforce(cfg, 3).optimal_dof == unicast_optimal_value(*cfg.totals)


def test_bruteforce_coarse_grid_is_weaker():
    # denominator 1 cannot express the thirds needed at (1,1,1)
    exact = unicast_optimal_value(1, 1, 1)
    coarse = optimal_unicast_bruteforce(AntennaConfig(1, 1, 1), 1).optimal_dof
    assert coarse <= exact
    assert coarse == 1


def test_bruteforce_rejects_bad_denominator():
    with pytest.raises(InvalidInputError):
        optimal_unicast_bruteforce(AntennaConfig(2, 1, 1), 0)


def test_bruteforce_grid_cap(monkeypatch):
    # (2,1,1) at denominator 3 is a 7 x 4 x 4 grid
    monkeypatch.setattr(allocation, "BRUTEFORCE_MAX_CELLS", 112)
    assert optimal_unicast_bruteforce(AntennaConfig(2, 1, 1), 3).optimal_dof == 2

    def no_grid(*scaled):
        raise AssertionError("grid built despite the cap")

    monkeypatch.setattr(allocation, "BRUTEFORCE_MAX_CELLS", 111)
    monkeypatch.setattr(allocation, "_genie_value_grid", no_grid)
    with pytest.raises(InvalidInputError, match="112 cells"):
        optimal_unicast_bruteforce(AntennaConfig(2, 1, 1), 3)


def test_genie_grid_matches_genie_bound_everywhere():
    from mimo3way.allocation import _genie_value_grid

    for m in itertools.product(range(5), repeat=3):
        if not m[0] >= m[1] >= m[2]:
            continue
        grid = _genie_value_grid(*m)
        for tx in itertools.product(*(range(v + 1) for v in m)):
            split = AntennaSplit(tx, tuple(v - t for v, t in zip(m, tx)))
            assert grid[tx] == genie_bound_unicast(split).combined, (m, tx)


_CONFIG_TAKERS = {
    "closed_form": optimal_unicast_closed_form,
    "enumerated": optimal_unicast_enumerated,
    "bruteforce": optimal_unicast_bruteforce,
    "broadcast": optimal_broadcast,
    "canonical_split": lambda c: canonical_split(c, Regime.BALANCED),
    "holds": lambda c: holds(Regime.HUB, c),
    "genie_subproblem": lambda c: genie_subproblem(c, (True,) * 6),
    "canonical_subproblem": canonical_subproblem,
    "scheme_split": lambda c: scheme_split(c, SchemeTag.UNI_A),
    "build_scheme": lambda c: build_scheme(c, SchemeTag.UNI_B, None, 0),
}


@pytest.mark.parametrize("name", list(_CONFIG_TAKERS))
@pytest.mark.parametrize("config", [(3, 3, 3), [3, 3, 3], "3,3,3", None])
def test_non_config_is_refused_up_front(name, config):
    with pytest.raises(InvalidInputError, match="expected an AntennaConfig"):
        _CONFIG_TAKERS[name](config)


def test_build_scheme_refuses_a_tag_string():
    with pytest.raises(InvalidInputError, match="expected a SchemeTag"):
        build_scheme(AntennaConfig(3, 3, 3), "uni-a", None, 0)


@pytest.mark.parametrize("regime", ["hub", None, 1])
def test_non_regime_is_refused(regime):
    # (4,2,1) is a hub config; a non-Regime was read as broadcast
    with pytest.raises(InvalidInputError, match="expected a Regime"):
        holds(regime, AntennaConfig(4, 2, 1))
    with pytest.raises(InvalidInputError, match="expected a Regime"):
        canonical_split(AntennaConfig(4, 2, 1), regime)


def test_canonical_split_and_closed_form_match_the_fraction_formulas():
    # every ordered config with m1 <= 30, m3 = 0 included; the split runs on
    # numerators over 3, the formulas here on Fractions
    for m1, m2, m3 in itertools.combinations_with_replacement(range(30, -1, -1), 3):
        config = AntennaConfig(m1, m2, m3)
        f1, f2, f3 = map(Fraction, (m1, m2, m3))
        rx_of = {
            Regime.BALANCED: (Fraction(0), (f1 + 2 * f2 - f3) / 3, (f1 + 2 * f3 - f2) / 3),
            Regime.HUB: (f2 + f3, Fraction(0), Fraction(0)),
            Regime.BROADCAST: (f2, f3, Fraction(0)),
        }
        for regime, rx in rx_of.items():
            if not holds(regime, config):
                with pytest.raises(RegimeError):
                    canonical_split(config, regime)
                continue
            split = canonical_split(config, regime)
            assert (split.tx, split.rx) == (tuple(m - r for m, r in zip((f1, f2, f3), rx)), rx)
            assert all(type(v) is Fraction for v in split.tx + split.rx)
        closed = optimal_unicast_closed_form(config)
        assert closed.optimal_dof == min(f1 + (f2 + f3 - f1) / 3, f2 + f3)
        assert type(closed.optimal_dof) is Fraction


def test_bruteforce_cap_covers_acceptance_grid():
    from mimo3way.allocation import BRUTEFORCE_MAX_CELLS

    assert 31**3 * 10 <= BRUTEFORCE_MAX_CELLS


def test_broadcast_worked_examples():
    r = optimal_broadcast(AntennaConfig(5, 3, 2))
    assert r.optimal_dof == 5
    assert r.split.tx == (2, 1, 2)
    assert r.split.rx == (3, 2, 0)
    assert r.regime is Regime.BROADCAST
    assert r.broadcast_band == TransmitSumBand(Fraction(3), Fraction(5))

    r = optimal_broadcast(AntennaConfig(3, 3, 3))
    assert r.optimal_dof == 6
    assert r.split.tx == (0, 0, 3)

    r = optimal_broadcast(AntennaConfig(4, 2, 1))
    assert r.optimal_dof == 3
    assert r.split.tx == (2, 1, 1)
    assert r.broadcast_band.contains(AntennaConfig(4, 2, 1), r.split.tx)


def test_broadcast_band_membership():
    cfg = AntennaConfig(5, 3, 2)
    band = optimal_broadcast(cfg).broadcast_band
    assert band.low == 3 and band.high == 5
    assert band.contains(cfg, (2, 1, 2))
    assert band.contains(cfg, (3, 0, 0))
    assert band.contains(cfg, (0, 3, 2))
    assert not band.contains(cfg, (1, 1, 0))      # sum 2 < m2
    assert not band.contains(cfg, (5, 1, 0))      # sum 6 > m1
    assert not band.contains(cfg, (6, 0, 0))      # tx1 > m1
    assert not band.contains(cfg, (-1, 3, 2))


def test_broadcast_band_points_all_attain_optimum():
    # every integer transmit point in the band really achieves m2+m3
    from mimo3way import cutset_bound_broadcast

    cfg = AntennaConfig(4, 3, 2)
    band = optimal_broadcast(cfg).broadcast_band
    best = broadcast_optimal_value(*cfg.totals)
    count = 0
    for t1, t2, t3 in itertools.product(range(5), range(4), range(3)):
        split = AntennaSplit((t1, t2, t3), (4 - t1, 3 - t2, 2 - t3))
        value = cutset_bound_broadcast(split).combined
        if band.contains(cfg, (t1, t2, t3)):
            assert value == best
            count += 1
        else:
            assert value <= best
    assert count > 1  # the optimal set genuinely is a band, not a point


def test_broadcast_dominates_unicast():
    for cfg in _configs(6):
        assert optimal_broadcast(cfg).optimal_dof >= optimal_unicast_closed_form(cfg).optimal_dof


def test_regime_boundary_continuity():
    for m2, m3 in [(2, 2), (3, 1), (4, 4)]:
        cfg = AntennaConfig(m2 + m3, m2, m3)
        r = optimal_unicast_closed_form(cfg)
        assert r.optimal_dof == m2 + m3  # both formulas coincide


def test_objective_symmetric_under_swap():
    # the genie objective is invariant when every node trades tx for rx
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(50):
        tx = tuple(Fraction(int(v)) for v in rng.integers(0, 9, size=3))
        rx = tuple(Fraction(int(v)) for v in rng.integers(0, 9, size=3))
        a = genie_bound_unicast(AntennaSplit(tx, rx)).combined
        b = genie_bound_unicast(AntennaSplit(rx, tx)).combined
        assert a == b


def test_genie_subproblem_never_beats_closed_form():
    cfg = AntennaConfig(4, 3, 2)
    best = unicast_optimal_value(*cfg.totals)
    seen_optimal = False
    for bits in itertools.product((False, True), repeat=6):
        sol = solve_inequality_min(genie_subproblem(cfg, bits))
        if sol is None:
            continue  # empty sign-pattern polytope
        assert -sol.value <= best
        seen_optimal = seen_optimal or -sol.value == best
    assert seen_optimal


def _genie_rows_from_unit_vectors(bits):
    """An independent build of one pattern's genie rows: numpy unit vectors,
    then a Fraction per coefficient, as `_genie_rows` once built them."""
    e, zero = np.eye(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
    rx = e[1] + e[2] + e[3]
    terms = [(e[a], zero) if bit else (-e[b], e[b]) for bit, (a, b) in zip(bits, _MAX_TERMS)]
    rows = [(e[0] - rx, zero, "dof<=sum_rx"), (e[0] + rx, rx, "dof<=sum_tx")]
    for (label, _, _), (c1, f1), (c2, f2) in zip(GENIE_TERMS, terms[::2], terms[1::2]):
        rows.append((e[0] - c1 - c2, f1 + f2, f"dof<={label}"))
    for bit, (a, b) in zip(bits, _MAX_TERMS):
        s = -1 if bit else 1
        rows.append((s * (e[a] + e[b]), s * e[b], f"rx{a}>=tx{b}" if bit else f"tx{b}>=rx{a}"))
    rows += [(e[l], e[l], f"rx{l}<=m{l}") for l in (1, 2, 3)]
    rows += [(-e[l], zero, f"rx{l}>=0") for l in (1, 2, 3)]
    rows.append((-e[0], zero, "dof>=0"))
    a, forms, labels = zip(*rows)
    a = tuple(tuple(map(Fraction, row)) for row in np.array(a).tolist())
    return a, tuple(map(tuple, np.array(forms).tolist())), labels


def test_genie_rows_match_a_fraction_build_from_unit_vectors():
    # every pattern, orbit representatives and their mirrors: integer rows
    # and forms equal to the reference, and subproblems that reuse one
    # pattern's Fractions instead of building them per call
    for bits in itertools.product((False, True), repeat=6):
        a, forms, labels = _genie_rows(bits)
        assert all(type(x) is int for row in (*a, *forms) for x in row), bits
        want_a, want_forms, want_labels = _genie_rows_from_unit_vectors(bits)
        assert (tuple(tuple(map(Fraction, row)) for row in a), forms, labels) == (want_a, want_forms, want_labels)
        lp, other = genie_subproblem(AntennaConfig(5, 4, 3), bits), genie_subproblem(AntennaConfig(2, 1, 0), bits)
        assert lp.a == want_a
        assert all(x is y for row, row2 in zip(lp.a, other.a) for x, y in zip(row, row2))


def test_result_json_shapes():
    r = optimal_unicast_enumerated(AntennaConfig(3, 2, 1))
    j = r.to_json()
    assert j["certificate"]["type"] == "duality-pair"
    assert j["certificate"]["gap"] == "0"
    assert j["regime"] == "m1<=m2+m3"

    j = optimal_broadcast(AntennaConfig(5, 3, 2)).to_json()
    assert j["broadcast_band"] == {"low": "3", "high": "5"}
    assert j["optimal_dof"] == "5"


def _refuses(call, message):
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        call()


def test_closed_form_check_fires_on_a_split_that_misses_the_value(monkeypatch):
    # all transmit, no receive: the genie bound is 0, not the closed-form value
    monkeypatch.setattr(allocation, "canonical_split", lambda c, r: AntennaSplit(c.totals, (0, 0, 0)))
    _refuses(lambda: optimal_unicast_closed_form(AntennaConfig(7, 5, 4)),
             "closed-form split does not attain the closed-form value")


def test_closed_form_check_fires_on_a_value_the_split_misses(monkeypatch):
    monkeypatch.setattr(allocation, "_unicast_thrice", lambda m1, m2, m3: _unicast_thrice(m1, m2, m3) + 1)
    _refuses(lambda: optimal_unicast_closed_form(AntennaConfig(7, 5, 4)),
             "closed-form split does not attain the closed-form value")


def test_broadcast_band_check_fires_on_a_split_outside_the_band(monkeypatch):
    # a transmit sum of 0, under m2 = 5
    monkeypatch.setattr(allocation, "canonical_split", lambda c, r: AntennaSplit((0, 0, 0), c.totals))
    _refuses(lambda: optimal_broadcast(AntennaConfig(7, 5, 4)),
             "canonical broadcast split fell outside its own optimality band")
    # inside the sum band but over node 3's antennas
    monkeypatch.setattr(allocation, "canonical_split", lambda c, r: AntennaSplit((0, 0, 5), (7, 5, 0)))
    _refuses(lambda: optimal_broadcast(AntennaConfig(7, 5, 4)),
             "canonical broadcast split fell outside its own optimality band")


def test_broadcast_cutset_check_fires_on_a_value_the_split_misses(monkeypatch):
    # every split inside the band attains m2+m3, so only a wrong value can miss it
    monkeypatch.setattr(allocation, "_broadcast_thrice", lambda m1, m2, m3: 3 * (m2 + m3) + 1)
    _refuses(lambda: optimal_broadcast(AntennaConfig(7, 5, 4)), "canonical broadcast split does not attain m2+m3")


@pytest.mark.parametrize("shift", ["value", "cell"])
def test_bruteforce_check_fires_on_a_rigged_grid(monkeypatch, shift):
    real = allocation._genie_value_grid

    def rigged(*scaled):
        grid = real(*scaled)
        if shift == "value":  # the same best cell, one grid step too high
            return grid + 1
        grid[0, 0, 0] = grid.max() + 1  # all receive, whose bound is 0, wins
        return grid

    monkeypatch.setattr(allocation, "_genie_value_grid", rigged)
    _refuses(lambda: optimal_unicast_bruteforce(AntennaConfig(7, 5, 4), 3),
             "vectorized grid bound disagrees with genie_bound_unicast")


class _EmptyWalk:
    def optimum(self, params):  # every branch polytope empty
        raise _Unbounded()


def _closed_form_a_third_high(config):
    result = optimal_unicast_closed_form(config)
    return dataclasses.replace(result, optimal_dof=result.optimal_dof + Fraction(1, 3))


@pytest.mark.parametrize("name, patch, message", [
    ("_template", lambda bits: _EmptyWalk(), "no genie subproblem was feasible"),
    ("optimal_unicast_closed_form", _closed_form_a_third_high, "enumerated optimum 23/3 != closed form 8"),
    ("verify_duality", lambda lp, v, lam: DualityCertificate(DualityStatus.NOT_DUAL_FEASIBLE, Fraction(0)),
     "simplex produced a non-optimal certificate: NotDualFeasible"),
])
def test_enumerated_self_checks_fire_and_exit_3(monkeypatch, capsys, name, patch, message):
    # each self-check of optimal_unicast_enumerated, reached by one patched
    # helper at (7,5,4): the call refuses by name, and the CLI exits 3
    monkeypatch.setattr(allocation, name, patch)
    _refuses(lambda: optimal_unicast_enumerated(AntennaConfig(7, 5, 4)), message)
    assert cli.main(["allocate", "--m", "7,5,4", "--method", "enumerated"]) == 3
    assert capsys.readouterr() == ("", f"error[internal]: {message}\n")


def test_splits_from_numerators_equal_validated_splits():
    # canonical_split builds its split from numerators over 3, unchecked, and
    # sets its integer form `_counts` from them; the public constructor, fed
    # the same entries, checks them and derives `_counts` afresh, and with it
    # the extension factor and integer pairs
    for m1, m2, m3 in itertools.combinations_with_replacement(range(12, -1, -1), 3):
        config = AntennaConfig(m1, m2, m3)
        for regime in Regime:
            if not holds(regime, config):
                continue
            split = canonical_split(config, regime)
            checked = AntennaSplit(split.tx, split.rx)
            for x in split.tx + split.rx:
                assert type(x) is Fraction and type(x.numerator) is int and math.gcd(x.numerator, x.denominator) == 1
            assert (split.tx, split.rx) == (checked.tx, checked.rx)
            assert split == checked and hash(split) == hash(checked)
            assert split.extension_factor == checked.extension_factor == (1 if checked.is_integral else 3)
            d, tx, rx = split._counts
            assert split._counts == checked._counts and d == split.extension_factor
            assert all(type(n) is int for n in (d, *tx, *rx))
            assert tuple(Fraction(n, d) for n in tx + rx) == split.tx + split.rx
            tripled = split.scaled(3)
            assert tripled._counts == (1, tuple(3 * n // d for n in tx), tuple(3 * n // d for n in rx))
            assert tuple(Fraction(3 * n, d) for n in tx + rx) == tripled.tx + tripled.rx
            if checked.is_integral:
                assert split.integer_pairs() == checked.integer_pairs()
            else:
                with pytest.raises(InvalidInputError, match="is fractional"):
                    split.integer_pairs()


def test_genie_subproblems_share_one_checked_program_per_pattern():
    # the rhs is a subproblem's only per-config part: it equals the program
    # the public constructor builds, shares its pattern's integer rows, and
    # verify_duality reads it as it reads that program
    for bits in _ORBITS:
        lp = genie_subproblem(AntennaConfig(7, 5, 4), bits)
        fresh = LinearProgram(lp.c, lp.a, lp.b, lp.variables, lp.constraints)
        assert lp == fresh and repr(lp) == repr(fresh) and lp._integer_rows == fresh._integer_rows
        assert lp._integer_rows is genie_subproblem(AntennaConfig(2, 1, 0), bits)._integer_rows
    cert = optimal_unicast_enumerated(AntennaConfig(7, 5, 4)).certificate
    lp, v, lam = cert.lp, cert.v, cert.lam
    fresh = LinearProgram(lp.c, lp.a, lp.b, lp.variables, lp.constraints)
    pairs = [(v, lam), ((v[0] + 1, *v[1:]), lam), (v, (lam[0] + 1, *lam[1:])), (v, (Fraction(-1, 3), *lam[1:])),
             ((v[0] - Fraction(1, 3), *v[1:]), lam)]
    for pv, pl in pairs:
        assert verify_duality(lp, pv, pl) == verify_duality(fresh, pv, pl)
    assert [verify_duality(lp, pv, pl).status.value for pv, pl in pairs] == [
        "Optimal", "NotPrimalFeasible", "NotDualFeasible", "NotDualFeasible", "NonzeroGap"]
