"""Exact rational linear programming.

Programs are in inequality form over free variables,

    minimize    c . v
    subject to  A v <= b,

with every coefficient a `Fraction`. The Lagrange dual is

    maximize   -b . lam    subject to  A' lam = -c,  lam >= 0,

and a pair (v, lam) with both sides feasible and c.v + b.lam = 0 is an exact
optimality certificate for both programs (weak duality makes the gap
nonnegative, so zero pins both optima).

The solver runs a dense two-phase simplex with Bland's rule on the dual in
standard form; the optimal basic solution is lam and the simplex multipliers
of the equality rows are the primal optimum v, so every solve returns a
certificate pair whose gap is zero by construction.

Phase 1 (`_phase1`) reads only A' and c. Phase 2 (`_Walk`) reads b, the
dual's cost, as a linear form b = sum_k params_k * b_k: it memoizes each pivot
as an edge (node, entering column) -> child, each node keeping one
reduced-cost row per b_k, and solves at params by Bland's rule on those rows
summed at params, so it takes exactly the pivots of a solve from scratch. It
runs only at params >= 0, reading only columns with a negative component (no
other can price negative): `solve_inequality_min` at (1,), and `allocation`'s
walk per genie sign pattern in cone coordinates of m1 >= m2 >= m3.

The tableau is integer-preserving (Bareiss 1968): each equality row is scaled
to integers by the lcm of its denominators (`rational._to_integers`), and the
tableau, right-hand side and cost rows are Python ints over one common
denominator d, the absolute determinant of the current basis. A pivot on p
(`_Tableau.pivot`, for the tableau and any cost rows) updates every entry to
(p*x - f*y) / d, which divides exactly, and then sets d = p. Bland's rule,
the ratio test and the phase-1 feasibility test compare integers, so the
solver takes the same pivots as an elimination over `Fraction`s would.
`Fraction` is re-entered only when reading off the solution: the basic
values as rhs / d, and the multipliers with the row sign, row scale, cost
scale and d divided back out.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter, mul

from .errors import InternalError, InvalidInputError, instance, sequence
from .rational import _rationals, _to_integers, frac_str

__all__ = [
    "LinearProgram",
    "LPSolution",
    "DualityStatus",
    "DualityCertificate",
    "verify_duality",
    "solve_inequality_min",
]

_MAX_SIZE = 256  # most variables, and most rows, of a LinearProgram; reads of its inputs stop one past it


@dataclass(frozen=True)
class LinearProgram:
    """min c.v subject to rows(a).v <= b, v free; all entries rational."""

    c: tuple[Fraction, ...]
    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    variables: tuple[str, ...] = ()
    constraints: tuple[str, ...] = ()

    def __post_init__(self):
        c = _rationals(self.c, "c must be a sequence of rationals", _MAX_SIZE)
        a = tuple(_rationals(row, "each row of a must be a sequence of rationals", len(c))
                  for row in sequence(self.a, "a must be a sequence of rows", _MAX_SIZE))
        b = _rationals(self.b, "b must be a sequence of rationals", len(a))
        if max(len(c), len(a)) > _MAX_SIZE:
            raise InvalidInputError(f"a linear program has at most {_MAX_SIZE} variables and {_MAX_SIZE} rows")
        if len(a) != len(b):
            raise InvalidInputError(f"{len(a)} constraint rows but {len(b)} right-hand sides")
        if any(len(row) != len(c) for row in a):
            raise InvalidInputError("constraint row width differs from len(c)")
        variables = sequence(self.variables, "variables must be a sequence of labels", len(c))
        variables = variables or tuple(f"v{j}" for j in range(len(c)))
        constraints = sequence(self.constraints, "constraints must be a sequence of labels", len(a))
        constraints = constraints or tuple(f"row{i}" for i in range(len(a)))
        if len(variables) != len(c):
            raise InvalidInputError(f"{len(variables)} variable labels for {len(c)} variables")
        if len(constraints) != len(a):
            raise InvalidInputError(f"{len(constraints)} constraint labels for {len(a)} rows")
        for name, value in zip(("c", "a", "b", "variables", "constraints"), (c, a, b, variables, constraints)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _integer_rows(self):
        """(c, rows of a, s): c and a as integers over their lcm s, for `verify_duality`; `_at` shares them."""
        coeffs, s = _to_integers((*self.c, *(x for row in self.a for x in row)))
        n = len(self.c)
        return coeffs[:n], tuple(coeffs[n * (i + 1) : n * (i + 2)] for i in range(len(self.a))), s

    def _at(self, b: tuple[Fraction, ...]) -> "LinearProgram":
        """This program with the rhs `b`, a tuple of one Fraction per row, which skips the checks."""
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, _integer_rows=self._integer_rows, b=b)
        return lp

    @property
    def n_variables(self) -> int:
        return len(self.c)

    @property
    def n_constraints(self) -> int:
        return len(self.a)

    def to_json(self) -> dict:
        return {
            "c": [frac_str(x) for x in self.c],
            "a": [[frac_str(x) for x in row] for row in self.a],
            "b": [frac_str(x) for x in self.b],
            "variables": list(self.variables),
            "constraints": list(self.constraints),
        }


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    v: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]


class DualityStatus(enum.Enum):
    OPTIMAL = "Optimal"
    NOT_PRIMAL_FEASIBLE = "NotPrimalFeasible"
    NOT_DUAL_FEASIBLE = "NotDualFeasible"
    NONZERO_GAP = "NonzeroGap"


@dataclass(frozen=True)
class DualityCertificate:
    status: DualityStatus
    gap: Fraction
    violations: tuple[str, ...] = ()

    @property
    def is_optimal(self) -> bool:
        return self.status is DualityStatus.OPTIMAL


def verify_duality(lp: LinearProgram, v, lam) -> DualityCertificate:
    """Check a candidate primal/dual pair exactly.

    Optimal iff v is feasible, lam is dual feasible (lam >= 0, A'lam = -c),
    and the gap c.v + b.lam is exactly zero. It runs on integer numerators (v
    over dv, lam over dl, c and A over s, b over sb) and makes Fractions only
    to report; the integer c and A are the program's `_integer_rows`.
    """
    instance(lp, LinearProgram)
    v = _rationals(v, "v must be a sequence of rationals", lp.n_variables)
    lam = _rationals(lam, "lam must be a sequence of rationals", lp.n_constraints)
    if len(v) != lp.n_variables:
        raise InvalidInputError(f"v has {len(v)} entries, expected {lp.n_variables}")
    if len(lam) != lp.n_constraints:
        raise InvalidInputError(f"lam has {len(lam)} entries, expected {lp.n_constraints}")
    (vn, dv), (ln, dl) = _to_integers(v), _to_integers(lam)
    (c, rows, s), (b, sb) = lp._integer_rows, _to_integers(lp.b)  # c and A over s, b over sb

    gap = Fraction(sum(map(mul, c, vn)) * dl * sb + sum(map(mul, b, ln)) * dv * s, s * sb * dv * dl)

    lhs = (sum(map(mul, row, vn)) for row in rows)  # s*dv times A v
    primal_bad = tuple(
        f"{label}: {frac_str(Fraction(x, s * dv))} > {frac_str(bi)}"
        for label, x, bn, bi in zip(lp.constraints, lhs, b, lp.b) if x * sb > bn * s * dv
    )
    if primal_bad:
        return DualityCertificate(DualityStatus.NOT_PRIMAL_FEASIBLE, gap, primal_bad)

    dual_bad = [f"{lp.constraints[i]}: multiplier {frac_str(lam[i])} < 0" for i, li in enumerate(ln) if li < 0]
    for j, cj in enumerate(c):
        stat = sum(li * row[j] for li, row in zip(ln, rows)) + cj * dl  # s*dl times (A'lam + c)[j]
        if stat:
            dual_bad.append(f"stationarity[{lp.variables[j]}]: residual {frac_str(Fraction(stat, s * dl))}")
    if dual_bad:
        return DualityCertificate(DualityStatus.NOT_DUAL_FEASIBLE, gap, tuple(dual_bad))

    if gap != 0:
        return DualityCertificate(DualityStatus.NONZERO_GAP, gap)
    return DualityCertificate(DualityStatus.OPTIMAL, gap)


class _Unbounded(Exception):
    pass


@dataclass
class _Tableau:
    """Integer tableau rows [row | artificial | rhs] over d, the absolute
    determinant of the basis; `live` lists the original equality rows that
    phase 1 kept, made integer by the row `scales` and `signs`."""

    tab: list[list[int]]
    basis: list[int]
    live: list[int]
    d: int
    scales: list[int]
    signs: list[int]

    def pivot(self, prow, pcol, costs):
        # Bareiss step on the tableau and each row of `costs`: every entry
        # becomes (p*x - f*y) / d, an exact division because the result is
        # the entry of |det B'| * B'^-1 A. A changed row gets a new list in
        # its place, so a pivot on copies of the row lists keeps the old rows.
        tab, d = self.tab, self.d
        top = tab[prow]
        p = top[pcol]
        if p < 0:  # only when a leftover artificial is pivoted out
            top = tab[prow] = [-y for y in top]
            p = -p
        for rows in tab, costs:
            for i, row in enumerate(rows):
                if row is top:
                    continue
                f = row[pcol]
                if f:
                    rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
                elif p != d:
                    rows[i] = [p * x // d for x in row]
        self.d = p
        self.basis[prow] = pcol

    def reduced_costs(self, full_cost):
        # d * (full_cost - c_B B^-1 A); the rhs slot holds -d * objective
        costrow = [self.d * x for x in full_cost] + [0]
        for row, b in zip(self.tab, self.basis):
            f = full_cost[b]
            if f:
                costrow = [x - f * y for x, y in zip(costrow, row)]
        return costrow

    def leaving(self, enter):
        # min rhs_i / tab[i][enter] over tab[i][enter] > 0, by cross-multiplying;
        # ties go to the smallest basic index; None when no entry is positive
        basis, prow = self.basis, None
        for i, row in enumerate(self.tab):
            a = row[enter]
            if a > 0:
                if prow is None:
                    prow, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[prow]):
                    prow, num, den = i, row[-1], a
        return prow


def _phase1(g_rows, g_rhs) -> _Tableau | None:
    """Phase 1 for (g_rows) x = g_rhs, x >= 0 with Fraction or int entries:
    the tableau with every artificial out of the basis and redundant rows
    dropped, or None when the system is infeasible.

    Row i of the input is scaled by sign_i * s_i (s_i the lcm of its
    denominators, the sign making its rhs >= 0); its artificial column stays
    the unit vector, which makes that artificial s_i times the unscaled one,
    so phase 1 weighs it by lcm(s) / s_i. Positive row and column scalings
    leave every sign, ratio order and zero pattern the simplex decides on
    unchanged.
    """
    n_eq, n_var = len(g_rows), len(g_rows[0])
    rows, scales, signs = [], [], []
    for i, (g, rhs) in enumerate(zip(g_rows, g_rhs)):
        row, s = _to_integers((*g, rhs))
        sign = -1 if row[-1] < 0 else 1
        rows.append([sign * x for x in row[:-1]] + [int(k == i) for k in range(n_eq)] + [sign * row[-1]])
        scales.append(s)
        signs.append(sign)
    t = _Tableau(rows, [n_var + i for i in range(n_eq)], list(range(n_eq)), 1, scales, signs)

    # drive the artificials to zero: their weighted sum is bounded below by 0, so a
    # column that prices negative always has a positive entry to leave by
    big = lcm(*scales)
    phase1_cost = [0] * n_var + [big // s for s in scales]
    costs = [t.reduced_costs(phase1_cost)]
    while (enter := next((j for j in range(n_var + n_eq) if costs[0][j] < 0), None)) is not None:
        t.pivot(t.leaving(enter), enter, costs)
    if sum(phase1_cost[b] * row[-1] for row, b in zip(t.tab, t.basis)) > 0:
        return None

    # pivot leftover artificials out of the basis; all-zero rows are redundant
    for i in reversed(range(len(t.tab))):
        if t.basis[i] >= n_var:
            pcol = next((j for j in range(n_var) if t.tab[i][j] != 0), None)
            if pcol is None:  # the basic artificial's equality row is a sum of the others
                t.live.remove(t.basis[i] - n_var)
                del t.tab[i], t.basis[i]
            else:
                t.pivot(i, pcol, ())
    return t


class _Walk:
    """Phase 2 from a `_phase1` tableau, which stays untouched, for every cost
    cost[j] = sum_k params[k] * forms[j][k] (integer forms, params >= 0) at once.

    A node is [tableau, reduced costs, edges, x, scan]: one reduced-cost row
    per form component, each pivoted by the same Bareiss step (exact on each
    row by itself); edges maps an entering column to its child (None:
    unbounded along it); x is set once the node ends a solve; scan, set at
    its first visit, pairs each column that has a negative component with its
    components, the only columns that can price negative at params >= 0 (a
    cone's points in the coordinates of its generators), so each pivot is
    the one a full scan takes. Bland's rule never revisits a basis, so the
    memo is finite and a solve takes at most one step per basis; one that
    takes more has met a cycle in the memo, and raises InternalError.
    """

    def __init__(self, start: _Tableau, forms):
        self.n_var = len(forms)
        self.bases = comb(self.n_var, len(start.tab))
        n_eq = len(start.scales)
        rows = [start.reduced_costs([*component, *[0] * n_eq]) for component in zip(*forms)]
        self.root = [start, rows, {}, None, None]

    @staticmethod
    def _child(node, enter):
        t = node[0]
        prow = t.leaving(enter)
        if prow is None:
            return None
        t, rows = _Tableau(t.tab[:], t.basis[:], t.live, t.d, t.scales, t.signs), node[1][:]
        t.pivot(prow, enter, rows)  # leaves each row (p f - f p) / d = 0 on the entering column, which turns basic
        return [t, rows, {}, None, None]

    def optimum(self, params):
        """The node where Bland's rule stops at `params`, each >= 0;
        _Unbounded when the minimum is -infinity."""
        if min(params) < 0:  # then a column off the scan could price < 0
            raise InternalError(f"a walk runs only at params >= 0, got {params}")
        node, n_var, steps = self.root, self.n_var, 0
        while True:
            if (scan := node[4]) is None:
                scan = node[4] = [(j, col) for j, col in zip(range(n_var), zip(*node[1])) if min(col) < 0]
            for enter, col in scan:  # Bland's rule: the first negative reduced cost
                if sum(map(mul, params, col)) < 0:
                    break
            else:
                return node
            steps += 1
            if steps > self.bases:
                raise InternalError(f"a Bland walk took {steps} steps among {self.bases} bases: its memo cycles")
            edges = node[2]
            if enter not in edges:
                edges[enter] = self._child(node, enter)
            node = edges[enter]
            if node is None:
                raise _Unbounded()

    def multiplier(self, node, params, k) -> int:
        """d times equality row k's multiplier at an optimal `node`: minus the
        reduced cost of its artificial column, row sign and scale undone."""
        t, column = node[0], map(itemgetter(self.n_var + k), node[1])
        return -sum(map(mul, params, column)) * t.signs[k] * t.scales[k] if k in t.live else 0

    def solve(self, params):
        """(x, pi) at `params`: the optimal basic solution and the equality-row
        multipliers (0 on dropped redundant rows); _Unbounded when the
        minimum is -infinity."""
        return self.read(self.optimum(params), params)

    def read(self, node, params):
        """(x, pi) at the optimal `node` of `params`, as Fractions."""
        t, n_var = node[0], self.n_var
        if node[3] is None:
            x = [Fraction(0)] * n_var
            for row, b in zip(t.tab, t.basis):
                if b < n_var:
                    x[b] = Fraction(row[-1], t.d)
            node[3] = tuple(x)
        return node[3], tuple(Fraction(self.multiplier(node, params, k), t.d) for k in range(len(t.scales)))


def solve_inequality_min(lp: LinearProgram) -> LPSolution | None:
    """Solve min c.v s.t. Av <= b exactly; None when the program has no
    finite optimum certified by a dual solution (infeasible or unbounded)."""
    instance(lp, LinearProgram)
    m, n = lp.n_constraints, lp.n_variables
    if n == 0:
        raise InvalidInputError("program has no variables")
    # dual standard form: one equality per primal variable, one lam per row
    g_rows = [[lp.a[i][j] for i in range(m)] for j in range(n)]
    g_rhs = [-cj for cj in lp.c]
    start = _phase1(g_rows, g_rhs)
    if start is None:
        return None  # dual infeasible => primal unbounded or infeasible
    cost, cost_scale = _to_integers(lp.b)
    try:
        lam, v = _Walk(start, [(bi,) for bi in cost]).solve((1,))
    except _Unbounded:
        return None  # dual unbounded below => primal infeasible
    if cost_scale != 1:
        v = tuple(vj / cost_scale for vj in v)
    return LPSolution(value=sum(map(mul, lp.c, v), Fraction(0)), v=v, lam=lam)
