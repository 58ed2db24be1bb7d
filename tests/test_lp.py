"""Exact-LP tests: certificate checking and the rational simplex solver."""

import copy
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimo3way import (
    AntennaConfig,
    DualityStatus,
    InternalError,
    InvalidInputError,
    LinearProgram,
    LPSolution,
    canonical_primal_dual,
    canonical_subproblem,
    genie_subproblem,
    optimal_unicast_enumerated,
    solve_inequality_min,
    verify_duality,
)
from mimo3way import allocation
from mimo3way.allocation import _ORBITS, _mirror_bits, _template
from mimo3way.lp import _phase1, _Unbounded, _Walk
from mimo3way.rational import _to_integers, frac, frac_str


def test_lp_validation():
    with pytest.raises(InvalidInputError):
        LinearProgram(c=(1,), a=((1,),), b=(1, 2))
    with pytest.raises(InvalidInputError):
        LinearProgram(c=(1, 2), a=((1,),), b=(1,))
    with pytest.raises(InvalidInputError):
        LinearProgram(c=(1,), a=((1,),), b=(1,), variables=("x", "y"))


@pytest.mark.parametrize(
    "labels, refusal",
    [({"variables": ("x", "y")}, "2 variable labels for 1 variables"),
     ({"constraints": ("r", "s")}, "2 constraint labels for 1 rows")],
)
def test_lp_refuses_a_label_count_that_differs(labels, refusal):
    with pytest.raises(InvalidInputError, match=refusal):
        LinearProgram(c=(1,), a=((1,),), b=(1,), **labels)


def test_lp_defaults_and_json():
    lp = LinearProgram(c=(-1, 0), a=((1, 1),), b=("5/2",))
    assert lp.variables == ("v0", "v1")
    assert lp.constraints == ("row0",)
    assert sum(x * y for x, y in zip(lp.a[0], (1, 1))) == 2
    j = lp.to_json()
    assert j["b"] == ["5/2"]
    assert j["c"] == ["-1", "0"]


def _interval_lp():
    # 0 <= x <= 5, minimize -x
    return LinearProgram(c=(-1,), a=((1,), (-1,)), b=(5, 0), variables=("x",), constraints=("ub", "lb"))


def test_solve_interval():
    sol = solve_inequality_min(_interval_lp())
    assert sol is not None
    assert sol.value == -5
    assert sol.v == (Fraction(5),)
    assert sol.lam == (Fraction(1), Fraction(0))


def test_solve_two_variable():
    lp = LinearProgram(
        c=(-1, -1),
        a=((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)),
        b=(2, 3, 4, 0, 0),
    )
    sol = solve_inequality_min(lp)
    assert sol.value == -4
    assert verify_duality(lp, sol.v, sol.lam).is_optimal


def test_solve_redundant_rows():
    lp = LinearProgram(c=(-1,), a=((1,), (1,), (-1,)), b=(5, 5, 0))
    sol = solve_inequality_min(lp)
    assert sol.value == -5
    assert verify_duality(lp, sol.v, sol.lam).is_optimal


def test_solve_pinned_variable():
    # x <= 3 and -x <= -3 pin x = 3
    lp = LinearProgram(c=(1,), a=((1,), (-1,)), b=(3, -3))
    sol = solve_inequality_min(lp)
    assert sol.value == 3
    assert sol.v == (Fraction(3),)


def test_solve_infeasible_returns_none():
    lp = LinearProgram(c=(1,), a=((1,), (-1,)), b=(-1, -2))
    assert solve_inequality_min(lp) is None


def test_solve_unbounded_returns_none():
    lp = LinearProgram(c=(-1,), a=((-1,),), b=(0,))
    assert solve_inequality_min(lp) is None


def test_solve_rejects_empty_program():
    with pytest.raises(InvalidInputError):
        solve_inequality_min(LinearProgram(c=(), a=(), b=()))


def test_verify_duality_statuses():
    lp = _interval_lp()
    good = verify_duality(lp, (5,), (1, 0))
    assert good.status is DualityStatus.OPTIMAL and good.gap == 0

    # drop primal feasibility
    bad_v = verify_duality(lp, (6,), (1, 0))
    assert bad_v.status is DualityStatus.NOT_PRIMAL_FEASIBLE
    assert any("ub" in s for s in bad_v.violations)

    # negative multiplier
    bad_sign = verify_duality(lp, (5,), (2, -1))
    assert bad_sign.status is DualityStatus.NOT_DUAL_FEASIBLE
    # one negative multiplier over a common denominator, stationarity kept: named as a Fraction
    half = verify_duality(lp, (5,), (Fraction(1, 2), Fraction(-1, 2)))
    assert (half.status, half.violations) == (DualityStatus.NOT_DUAL_FEASIBLE, ("lb: multiplier -1/2 < 0",))

    # stationarity broken
    bad_stat = verify_duality(lp, (5,), (2, 0))
    assert bad_stat.status is DualityStatus.NOT_DUAL_FEASIBLE
    assert any("stationarity" in s for s in bad_stat.violations)

    # feasible both sides but not optimal: x = 0 with the optimal multiplier
    slack = verify_duality(lp, (0,), (1, 0))
    assert slack.status is DualityStatus.NONZERO_GAP
    assert slack.gap == 5


def _full_sum_verify_duality(lp, v, lam):
    """`verify_duality` summing every product, zero terms included: the
    reference for its zero-skipping sums. Returns (status, gap, violations)."""
    v, lam = tuple(map(frac, v)), tuple(map(frac, lam))
    gap = sum((cj * vj for cj, vj in zip(lp.c, v)), Fraction(0)) + sum(
        (bi * li for bi, li in zip(lp.b, lam)), Fraction(0)
    )
    lhs = [sum((aij * vj for aij, vj in zip(row, v)), Fraction(0)) for row in lp.a]
    primal_bad = tuple(
        f"{lp.constraints[i]}: {frac_str(lhs[i])} > {frac_str(lp.b[i])}"
        for i in range(lp.n_constraints)
        if lhs[i] > lp.b[i]
    )
    if primal_bad:
        return DualityStatus.NOT_PRIMAL_FEASIBLE, gap, primal_bad
    dual_bad = [f"{lp.constraints[i]}: multiplier {frac_str(li)} < 0" for i, li in enumerate(lam) if li < 0]
    for j in range(lp.n_variables):
        stat = sum((lam[i] * lp.a[i][j] for i in range(lp.n_constraints)), Fraction(0)) + lp.c[j]
        if stat != 0:
            dual_bad.append(f"stationarity[{lp.variables[j]}]: residual {frac_str(stat)}")
    if dual_bad:
        return DualityStatus.NOT_DUAL_FEASIBLE, gap, tuple(dual_bad)
    return (DualityStatus.NONZERO_GAP if gap != 0 else DualityStatus.OPTIMAL), gap, ()


def _matches_full_sum(lp, v, lam):
    cert = verify_duality(lp, v, lam)
    status, gap, violations = _full_sum_verify_duality(lp, v, lam)
    assert (cert.status, cert.gap, type(cert.gap), cert.violations) == (status, gap, Fraction, violations)
    return cert


def test_verify_duality_matches_full_sums_on_perturbed_pairs():
    lp, v, lam = canonical_primal_dual(AntennaConfig(3, 3, 3))
    assert _matches_full_sum(lp, v, lam).status is DualityStatus.OPTIMAL
    # rx1 = 4 breaks rx1<=m1, whose multiplier is 0
    i = lp.constraints.index("rx1<=m1")
    assert lam[i] == 0
    bad = _matches_full_sum(lp, (v[0], Fraction(4), *v[2:]), lam)
    assert bad.status is DualityStatus.NOT_PRIMAL_FEASIBLE and "rx1<=m1: 4 > 3" in bad.violations
    # a negative multiplier on a slack row also leaves a stationarity residual
    negative = _matches_full_sum(lp, v, (*lam[:i], Fraction(-1, 2), *lam[i + 1 :]))
    assert negative.violations == ("rx1<=m1: multiplier -1/2 < 0", "stationarity[rx1]: residual -1/2")
    # a bumped multiplier keeps every sign but breaks stationarity
    bumped = _matches_full_sum(lp, v, (lam[0] + 1, *lam[1:]))
    assert bumped.status is DualityStatus.NOT_DUAL_FEASIBLE
    assert all(s.startswith("stationarity[") for s in bumped.violations)


def _rescaled(lp, v, lam, var=7, cost=Fraction(1, 11), row=Fraction(1, 13)):
    """`lp` with its variables scaled by `var`, its cost by `cost` and its odd
    rows by `row`, and the image of the pair (v, lam): (v / var, cost * lam
    / row scale), optimal iff (v, lam) is optimal for `lp`."""
    alpha = [row if i % 2 else 1 for i in range(lp.n_constraints)]
    a = tuple(tuple(al * var * x for x in r) for al, r in zip(alpha, lp.a))
    b = tuple(al * bi for al, bi in zip(alpha, lp.b))
    scaled = LinearProgram(tuple(cost * var * cj for cj in lp.c), a, b, lp.variables, lp.constraints)
    return scaled, tuple(x / var for x in v), tuple(cost * li / al for li, al in zip(lam, alpha))


@pytest.mark.parametrize("m", [(3, 3, 3), (5, 4, 2), (2, 1, 1), (9, 8, 7)])
def test_verify_duality_matches_full_sums_with_coprime_denominators(m):
    # the program's coefficients over 11*13, v over a multiple of 7 and lam
    # of 11, and the nudges bring in 7, 11 and 13 by themselves, so the
    # integer check scales by an s*dv*dl far from 1 in every status
    lp, v, lam = _rescaled(*canonical_primal_dual(AntennaConfig(*m)))
    assert _to_integers((*lp.c, *itertools.chain(*lp.a), *lp.b))[1] == 143
    assert _to_integers(v)[1] % 7 == 0 and _to_integers(lam)[1] % 11 == 0
    assert _matches_full_sum(lp, v, lam).status is DualityStatus.OPTIMAL
    far = (v[0], v[1] + Fraction(50, 13), *v[2:])
    assert _matches_full_sum(lp, far, lam).status is DualityStatus.NOT_PRIMAL_FEASIBLE
    negative = _matches_full_sum(lp, v, (*lam[:-1], Fraction(-2, 7)))
    assert negative.status is DualityStatus.NOT_DUAL_FEASIBLE and "multiplier -2/7 < 0" in negative.violations[0]
    bumped = _matches_full_sum(lp, v, (lam[0] + Fraction(3, 13), *lam[1:]))
    assert bumped.status is DualityStatus.NOT_DUAL_FEASIBLE
    slack = _matches_full_sum(lp, (v[0] - Fraction(1, 11), *v[1:]), lam)
    assert slack.status is DualityStatus.NONZERO_GAP and slack.gap > 0


def test_verify_duality_dimension_checks():
    lp = _interval_lp()
    with pytest.raises(InvalidInputError):
        verify_duality(lp, (1, 2), (0, 0))
    with pytest.raises(InvalidInputError):
        verify_duality(lp, (1,), (0,))


@pytest.mark.parametrize("m", [(3, 3, 3), (5, 4, 2), (4, 3, 2), (7, 7, 1), (9, 2, 1), (4, 2, 1)])
def test_canonical_subproblem_solution(m):
    cfg = AntennaConfig(*m)
    lp = canonical_subproblem(cfg)
    sol = solve_inequality_min(lp)
    m1, m2, m3 = (Fraction(v) for v in m)
    if m1 > m2 + m3:
        # hub configs: the regime row 0.v <= m2+m3-m1 < 0 makes the program infeasible
        assert sol is None
        return
    assert sol is not None
    assert sol.value == -(2 * m1 + m2 + m3) / 3
    assert verify_duality(lp, sol.v, sol.lam).is_optimal


def test_canonical_pair_example():
    lp, v, lam = canonical_primal_dual(AntennaConfig(3, 3, 3))
    cert = verify_duality(lp, v, lam)
    assert cert.is_optimal and cert.gap == 0

    # spec-level perturbations
    bumped = (lam[0] + 1,) + lam[1:]
    assert verify_duality(lp, v, bumped).status is DualityStatus.NOT_DUAL_FEASIBLE

    # rx1 > m1 violates the box row
    bad_v = (v[0], Fraction(4), v[2], v[3])
    bad = verify_duality(lp, bad_v, lam)
    assert bad.status is DualityStatus.NOT_PRIMAL_FEASIBLE
    assert any("rx1<=m1" in s for s in bad.violations)


def test_canonical_regime_guard():
    from mimo3way import RegimeError

    with pytest.raises(RegimeError):
        canonical_primal_dual(AntennaConfig(9, 2, 1))


def test_solver_against_scipy_random_programs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    import numpy as np

    rng = np.random.default_rng(2024)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        a = rng.integers(-3, 4, size=(m, n))
        x0 = rng.integers(0, 6, size=n)
        b = a @ x0 + rng.integers(0, 5, size=m)
        c = rng.integers(-5, 6, size=n)
        # box rows keep the program bounded in every direction
        rows = [tuple(int(v) for v in row) for row in a]
        rhs = [int(v) for v in b]
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append(tuple(e))
            rhs.append(10)
            e = [0] * n
            e[j] = -1
            rows.append(tuple(e))
            rhs.append(10)
        lp = LinearProgram(c=tuple(int(v) for v in c), a=tuple(rows), b=tuple(rhs))

        sol = solve_inequality_min(lp)
        ref = linprog(
            c=c.astype(float),
            A_ub=np.array(rows, dtype=float),
            b_ub=np.array(rhs, dtype=float),
            bounds=[(None, None)] * n,
            method="highs",
        )
        assert ref.status == 0 and sol is not None, f"trial {trial}"
        assert abs(float(sol.value) - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        assert verify_duality(lp, sol.v, sol.lam).is_optimal


def test_solution_entries_are_exact_rationals():
    sol = solve_inequality_min(canonical_subproblem(AntennaConfig(5, 4, 2)))
    assert all(isinstance(x, Fraction) for x in sol.v)
    assert all(isinstance(x, Fraction) for x in sol.lam)
    assert frac(sol.value) == sol.value


@pytest.mark.parametrize(
    "a,b,v",
    [
        (((Fraction(-1, 2),),), (Fraction(1, 5),), Fraction(-2, 5)),
        (((-1,), (0,)), (Fraction(1, 2), Fraction(1, 2)), Fraction(-1, 2)),
    ],
)
def test_solve_negative_pivot_when_leftover_artificial_leaves(a, b, v):
    # zero cost leaves the dual's artificials basic after phase 1, and the
    # only column that can replace one has a negative entry
    lp = LinearProgram(c=(0,), a=a, b=b)
    sol = solve_inequality_min(lp)
    assert sol == LPSolution(value=Fraction(0), v=(v,), lam=(Fraction(0),) * len(b))
    assert verify_duality(lp, sol.v, sol.lam).is_optimal


def test_solve_drops_all_zero_row():
    lp = LinearProgram(c=(0, 1), a=((0, -1), (0, 1)), b=(0, 3))
    sol = solve_inequality_min(lp)
    assert sol.value == 0 and sol.v == (0, 0)
    assert verify_duality(lp, sol.v, sol.lam).is_optimal


def _fractions(lo, hi, most):
    """`st.fractions(lo, hi, max_denominator=most)` as a `sampled_from` over
    the same finite set, every p/q in [lo, hi] with q <= most, simplest first
    (as it shrinks): drawing from a list is far cheaper than building a
    fraction strategy per draw."""
    values = {Fraction(p, q) for q in range(1, most + 1) for p in range(math.floor(lo * q), math.ceil(hi * q) + 1)}
    values = [x for x in values if lo <= x <= hi]
    return st.sampled_from(sorted(values, key=lambda x: (x.denominator, abs(x), x < 0)))


_SMALL = _fractions(-4, 4, 6)  # the 97 values p/q with q <= 6 and |p/q| <= 4
_BOX = _fractions(1, 5, 4)
_SCALE = _fractions(Fraction(1, 3), 3, 3)


@st.composite
def _rational_programs(draw):
    """Small inequality LPs with non-integer rational data.

    Half the programs are built around a point that satisfies some rows with
    equality (degenerate vertices), the rest have free right-hand sides and
    are often infeasible; box rows are optional, so unbounded programs occur
    too. A scaled copy of a row adds a redundant constraint.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    a = [[draw(_SMALL) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x0 = [draw(_SMALL) for _ in range(n)]
        b = [sum(r * x for r, x in zip(row, x0)) + draw(st.sampled_from((0, 0, Fraction(1, 3), 2))) for row in a]
    else:
        b = [draw(_SMALL) for _ in range(m)]
    if draw(st.booleans()):
        for j in range(n):
            for sign in (1, -1):
                a.append([sign * (k == j) for k in range(n)])
                b.append(draw(_BOX))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(a) - 1))
        scale = draw(_SCALE)
        a.append([scale * x for x in a[k]])
        b.append(scale * b[k])
    c = [draw(_SMALL) for _ in range(n)]
    return LinearProgram(c=tuple(c), a=tuple(map(tuple, a)), b=tuple(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rational_programs())
@example(LinearProgram(c=(Fraction(1, 2),), a=((Fraction(2, 3),), (Fraction(-1, 3),)), b=(-1, Fraction(-1, 2))))
@example(LinearProgram(c=(Fraction(-1, 2), 1), a=((Fraction(-1, 3), 0), (0, Fraction(1, 2))), b=(1, 2)))
@example(
    LinearProgram(
        c=(-1, Fraction(-1, 3)),
        a=((1, 1), (Fraction(1, 2), Fraction(1, 2)), (1, 0), (-1, 0), (0, -1)),
        b=(2, 1, 2, 0, 0),
    )
)
# v0 and v3 have equal columns, so the dual has two equal rows and phase 1
# drops the one whose artificial stays basic, which is not the tableau row's
# own index
@example(LinearProgram(c=(-1, -1, 0, -1), a=((1, 1, 0, 1), (0, 1, 0, 0), (0, 1, 3, 0)), b=(0, 1, 0)))
def test_solver_on_random_rational_programs(lp):
    sol = solve_inequality_min(lp)
    if sol is not None:
        cert = verify_duality(lp, sol.v, sol.lam)
        assert cert.is_optimal, cert.violations
        assert sol.value == sum((c * v for c, v in zip(lp.c, sol.v)), Fraction(0))

    try:
        from scipy.optimize import linprog
    except ImportError:
        return
    ref = linprog(
        c=[float(x) for x in lp.c],
        A_ub=[[float(x) for x in row] for row in lp.a],
        b_ub=[float(x) for x in lp.b],
        bounds=[(None, None)] * lp.n_variables,
        method="highs",
    )
    if sol is None:
        assert ref.status in (2, 3), ref.message  # infeasible or unbounded
    else:
        assert ref.status == 0, ref.message
        assert abs(float(sol.value) - ref.fun) <= 1e-9


_PERTURBATIONS = st.sampled_from((0, 0, 0, Fraction(-1, 2), Fraction(1, 3), 2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rational_programs(), st.data())
def test_verify_duality_matches_full_sums_on_random_programs(lp, data):
    # the solver's pair where there is one, else zeros, with some entries
    # nudged: violated rows with zero multipliers, negative multipliers and
    # stationarity residuals all occur
    sol = solve_inequality_min(lp)
    v, lam = (sol.v, sol.lam) if sol else ((0,) * lp.n_variables, (0,) * lp.n_constraints)
    _matches_full_sum(lp, v, lam)
    v = [x + data.draw(_PERTURBATIONS) for x in v]
    lam = [data.draw(_PERTURBATIONS) if data.draw(st.booleans()) else x for x in lam]
    _matches_full_sum(lp, v, lam)


def _fraction_phase2(g, rhs, start, cost):
    """The reference for `_Walk`: Bland's rule in plain Fractions on g x = rhs,
    x >= 0, from the phase-1 basis of `start`, on its live rows; ties in the
    ratio test go to the smallest basic index. Returns (x, pi), pi the
    multipliers c_B B^-1 of the equality rows (0 on dropped ones); raises
    _Unbounded when the cost is unbounded below."""
    n_var, n_eq, basis = len(cost), len(g), list(start.basis)
    # [g | I | rhs] on the live rows, eliminated to B^-1 [g | I | rhs], row i
    # the one whose basic column is basis[i]
    rows = [
        [Fraction(a) for a in g[i]] + [Fraction(int(i == k)) for k in start.live] + [Fraction(rhs[i])]
        for i in start.live
    ]

    def pivot(r, j):
        rows[r] = [a / rows[r][j] for a in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[j]:
                rows[k] = [a - row[j] * b for a, b in zip(row, rows[r])]

    for i, j in enumerate(basis):
        r = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        assert r is not None, f"phase-1 basis {basis} is singular on rows {start.live}"
        rows[i], rows[r] = rows[r], rows[i]
        pivot(i, j)
    while True:
        reduced = [cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, rows)) for j in range(n_var)]
        enter = next((j for j in range(n_var) if reduced[j] < 0), None)
        if enter is None:
            break
        ratios = [(row[-1] / row[enter], basis[i], i) for i, row in enumerate(rows) if row[enter] > 0]
        if not ratios:
            raise _Unbounded()
        leave = min(ratios)[2]
        basis[leave] = enter
        pivot(leave, enter)
    x = [Fraction(0)] * n_var
    for b, row in zip(basis, rows):
        x[b] = row[-1]
    pi = [Fraction(0)] * n_eq
    for k, orig in enumerate(start.live):
        pi[orig] = sum((cost[b] * row[n_var + k] for b, row in zip(basis, rows)), Fraction(0))
    return tuple(x), tuple(pi)


def _typed(values):
    return tuple((type(x), x) for x in values)


def _expire(signum, frame):
    raise AssertionError("no result within 0.25 s: the walk cycles")


def _outcome(solve, *args):
    """(x, pi) with every entry's type, or None when the cost is unbounded.
    A broken memo or pivot can send a walk round its nodes forever, so an
    alarm makes that fail rather than hang."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 0.25)
    try:
        x, pi = solve(*args)
    except _Unbounded:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return _typed(x), _typed(pi)


def _nodes(node):
    return 1 + sum(_nodes(child) for child in node[2].values() if child is not None)


@st.composite
def _parametric_programs(draw):
    """A feasible system G x = g, x >= 0 with small rational G, integer cost
    forms in 2 parameters, and the integer points to solve at. g = G x0 for
    an integer x0 >= 0 that often has zero entries, which makes degenerate
    vertices; a copied row is redundant; nothing bounds x, so many costs are
    unbounded."""
    n_eq, n_var = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    g = [[draw(_SMALL) for _ in range(n_var)] for _ in range(n_eq)]
    x0 = [draw(st.integers(0, 2)) for _ in range(n_var)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in g]
    if draw(st.booleans()):
        g.append(g[0][:])
        rhs.append(rhs[0])
    coefficient = st.integers(-3, 3)
    forms = [(draw(coefficient), draw(coefficient)) for _ in range(n_var)]
    points = draw(st.lists(st.tuples(coefficient, coefficient), min_size=1, max_size=8))
    return g, rhs, forms, points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_parametric_programs())
@example(([[1, 1, -1]], [0], [(1, 0), (0, 1), (-1, 1)], [(1, 1), (1, -1), (0, 1), (1, 1)]))
@example(([[1, -1], [1, -1]], [1, 1], [(1, -1), (0, 1)], [(1, 2), (2, 1), (1, 2)]))
@example(([[1, 0, 0], [1, 1, 1], [0, 0, 3], [1, 0, 0]], [1, 1, 0, 1], [(0, 0), (1, 0), (0, -1)], [(1, 0), (0, 1)]))
def test_walk_matches_a_fraction_phase2_at_every_point(program):
    g, rhs, forms, points = program
    start = _phase1(g, rhs)
    before = copy.deepcopy((start.tab, start.basis, start.d))
    walk = _Walk(start, forms)
    for p in points:
        cost = [p[0] * f0 + p[1] * f1 for f0, f1 in forms]
        want = _outcome(_fraction_phase2, g, rhs, start, cost)
        if min(p) >= 0:  # a walk runs only there; the folded costs below take every sign
            assert _outcome(walk.solve, p) == want, p
        assert _outcome(_Walk(start, [(c,) for c in cost]).solve, (1,)) == want, p
    assert (start.tab, start.basis, start.d) == before  # the phase-1 tableau stays untouched


def _built(node):
    yield node
    for child in node[2].values():
        if child is not None:
            yield from _built(child)


@st.composite
def _nonnegative_programs(draw):
    """A `_parametric_programs` system with points in the nonnegative
    orthant, where a walk reads only its nodes' scans."""
    g, rhs, forms, _ = draw(_parametric_programs())
    points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8))
    return g, rhs, forms, points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_nonnegative_programs())
def test_walk_at_nonnegative_params_matches_a_full_scan(program):
    g, rhs, forms, points = program
    start = _phase1(g, rhs)
    walk = _Walk(start, forms)
    for p in points:
        cost = [p[0] * f0 + p[1] * f1 for f0, f1 in forms]
        assert _outcome(walk.solve, p) == _outcome(_fraction_phase2, g, rhs, start, cost), p
    # a node scans its columns in index order, each with its components, and
    # leaves out only those with no negative component
    for node in _built(walk.root):
        columns = list(zip(*node[1]))[: len(forms)]
        assert node[4] == [(j, col) for j, col in enumerate(columns) if min(col) < 0]


def test_a_walk_refuses_a_negative_param():
    # min x1 - x2 over x1 + x2 = 1, x >= 0 as the forms x1 -> (1, 0) and
    # x2 -> (0, 1) at (1, -1): x2 has no negative component, so the root's
    # scan leaves it out, and a walk that ran there would stop at x1 = 1
    walk = _Walk(_phase1([[1, 1]], [1]), [(1, 0), (0, 1)])
    for params in ((1, -1), (-1, 0), (0, -1)):
        with pytest.raises(InternalError, match="a walk runs only at params >= 0"):
            walk.solve(params)
    assert walk.root[2] == {} and walk.root[4] is None  # refused before any scan or pivot
    assert walk.solve((1, 1)) == ((1, 0), (1,))


def test_a_walk_whose_memo_cycles_raises_instead_of_hanging():
    # min x1 - x2 over x1 + x2 = 1, x >= 0: phase 1 leaves x1 basic, phase 2
    # enters x2; pointing that edge back at the root makes the memo a cycle
    walk = _Walk(_phase1([[1, 1]], [1]), [(1,), (-1,)])
    assert walk.solve((1,)) == ((0, 1), (-1,))
    assert list(walk.root[2]) == [1]
    walk.root[2][1] = walk.root
    with pytest.raises(InternalError, match="memo cycles"):
        _outcome(walk.solve, (1,))


def _cone(cfg):
    """A config's point in `_template`'s cone coordinates."""
    m1, m2, m3 = cfg.totals
    return (1, m1 - m2, m2 - m3, m3)


def test_genie_walks_match_solving_each_lp_in_any_order():
    # every orbit x every m1 <= 12 config, visited in two shuffled orders,
    # each from freshly cleared walks, then once more on the warm walks in
    # sorted config order: no result depends on what came before
    assert len(_ORBITS) == 36
    configs = [AntennaConfig(*sorted(m, reverse=True)) for m in itertools.combinations_with_replacement(range(13), 3)]
    want = {}
    for cfg in configs:
        for bits in _ORBITS:
            sol = solve_inequality_min(genie_subproblem(cfg, bits))
            want[cfg, bits] = None if sol is None else (_typed([sol.value]), _typed(sol.v), _typed(sol.lam))

    def check(cfg, bits):
        got = _outcome(_template(bits).solve, _cone(cfg))
        if got is not None:
            lam, v = got
            got = (_typed([-v[0][1]]), v, lam)
        assert got == want[cfg, bits], (cfg, bits)

    for seed in (1, 2):
        _template.cache_clear()
        visits = list(want)
        random.Random(seed).shuffle(visits)
        for cfg, bits in visits:
            check(cfg, bits)
        # the memo stays small: 36 roots and the 251 pivots reached from them
        assert sum(_nodes(_template(bits).root) for bits in _ORBITS) == 287
    for cfg, bits in want:  # built in sorted config order
        check(cfg, bits)


def test_every_orbit_template_builds():
    # phase 1 reads only config-free rows, and finds each of the 36 orbits'
    # genie duals feasible
    _template.cache_clear()
    assert all(isinstance(_template(bits), _Walk) for bits in _ORBITS)
    assert _template.cache_info().currsize == len(_ORBITS) == 36


def test_a_template_refuses_an_infeasible_phase1(monkeypatch):
    # no pattern has an infeasible dual, so one would be an internal error,
    # never an orbit skipped in silence
    monkeypatch.setattr(allocation, "_phase1", lambda rows, rhs: None)
    _template.cache_clear()
    try:
        with pytest.raises(InternalError, match="is infeasible"):
            _template(_ORBITS[0])
    finally:
        _template.cache_clear()


# winning orbit of each config among the 36 mirror-orbit representatives in
# enumeration order, the number of feasible orbits, and the exact pair the
# solver returns for the winner (its pivot sequence decides which optimal
# vertex and multipliers come out)
_PINNED_WINNERS = {
    (3, 3, 3): (3, 36, ("4", "2", "0", "2"), "1/3 0 1/3 1/3 0 0 0 0 0 0 0 0 0 0 0 1/3 0 0"),
    (5, 4, 3): (15, 14, ("17/3", "5", "2/3", "2/3"), "0 1/3 0 1/3 1/3 0 0 0 0 0 0 1/3 0 0 0 0 0 0"),
    (7, 2, 1): (5, 11, ("3", "7", "0", "0"), "0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 1 1 0"),
    (10, 10, 1): (3, 16, ("31/3", "29/3", "0", "2/3"), "1/3 0 1/3 1/3 0 0 0 0 0 0 0 0 0 0 0 1/3 0 0"),
}


@pytest.mark.parametrize("m", sorted(_PINNED_WINNERS))
def test_genie_subproblems_pinned_pairs(m):
    cfg = AntennaConfig(*m)
    patterns = itertools.product((False, True), repeat=6)
    orbits = list(dict.fromkeys(min(bits, _mirror_bits(bits)) for bits in patterns))
    assert len(orbits) == 36
    sols = [solve_inequality_min(genie_subproblem(cfg, bits)) for bits in orbits]
    feasible = [i for i, sol in enumerate(sols) if sol is not None]
    best = max(feasible, key=lambda i: (-sols[i].value, -i))  # first maximum, as enumeration keeps it

    win, n_feasible, v, lam = _PINNED_WINNERS[m]
    assert (best, len(feasible)) == (win, n_feasible)
    assert sols[best].v == tuple(Fraction(x) for x in v)
    assert sols[best].lam == tuple(Fraction(x) for x in lam.split())
    assert optimal_unicast_enumerated(cfg).certificate.lam == sols[best].lam


def test_enumeration_keeps_the_first_orbit_reaching_the_largest_value():
    # the winner's integer-ratio comparison picks what the first maximum of
    # the Fraction values v[0] picks, in _ORBITS order, on every m1 <= 12 config
    for m in itertools.combinations_with_replacement(range(13), 3):
        cfg = AntennaConfig(*sorted(m, reverse=True))
        sols = []
        for bits in _ORBITS:
            try:
                lam, v = _template(bits).solve(_cone(cfg))
            except _Unbounded:
                continue
            sols.append((v[0], bits, v, lam))
        _, bits, v, lam = max(sols, key=lambda sol: sol[0])  # max keeps the first maximum
        cert = optimal_unicast_enumerated(cfg).certificate
        assert (cert.lp, _typed(cert.v), _typed(cert.lam)) == (genie_subproblem(cfg, bits), _typed(v), _typed(lam)), m
