"""Optimal homologous chain instances solved by exact rational linear
programming, with a branch-and-bound integer fallback: a node is its parent
plus one bound row, re-optimised by dual simplex.

No floating point anywhere: the simplex pivots an integer tableau over one
common denominator with Bland's rule, so optima like 17/40 are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .complexes import (Chain, InvalidArgument, SimplicialComplex,
                        boundary_of, canon, chain_boundary)
from .homology import (_Budget, _Spent, bareiss_step, boundary_matrix,
                       snf_solve)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass
class LinearProgram:
    """min objective . z  subject to  rows . z = rhs,  z >= 0."""
    objective: list                 # ints or Fractions, length N
    rows: list                      # m lists of ints or Fractions, length N
    rhs: list                       # ints or Fractions, length m

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise InvalidArgument(f"{len(self.rows)} rows for "
                                  f"{len(self.rhs)} rhs entries")
        for row in self.rows:
            if len(row) != len(self.objective):
                raise InvalidArgument(f"a row of {len(row)} entries for "
                                      f"{len(self.objective)} costs")


@dataclass
class LPResult:
    status: str
    values: Optional[list] = None   # Fractions, length N
    objective: Optional[Fraction] = None
    # the final tableau of an optimum, which branch and bound warm-starts
    _tableau: Optional["_Tableau"] = field(default=None, repr=False,
                                           compare=False)


def _integral(values: list, factor: int) -> list:
    """The ints factor * v; factor is a multiple of each v's denominator."""
    return [v.numerator * (factor // v.denominator) for v in values]


@dataclass
class _Tableau:
    """A fraction-free simplex tableau: T is d times the rational one, d > 0
    the last pivot, objective rows last; basis[i] is the column basic in row
    i.  cost_scale clears the denominators of the costs."""
    T: list
    basis: list
    d: int
    cost_scale: int

    def pivot(self, ri: int, cj: int) -> None:
        """One Bareiss step on every other row (Edmonds 1967); a negative
        pivot negates its row first, so d stays positive.  A row with 0 in
        column cj is multiplied by pivot / d: left out when that is 1."""
        T, d = self.T, self.d
        if T[ri][cj] < 0:
            T[ri] = [-v for v in T[ri]]
        unit = T[ri][cj] == d
        rows = [i for i in range(len(T)) if i != ri and (T[i][cj] or not unit)]
        self.d = bareiss_step(T, ri, cj, d, rows, range(len(T[ri])))
        self.basis[ri] = cj

    def optimum(self) -> LPResult:
        """The basic solution and its cost, read off an optimal tableau."""
        T, d = self.T, self.d
        values = [Fraction(0)] * (len(T[-1]) - 1)
        for i, j in enumerate(self.basis):
            values[j] = Fraction(T[i][-1], d)
        return LPResult(status=OPTIMAL, values=values,
                        objective=Fraction(-T[-1][-1], d * self.cost_scale),
                        _tableau=self)

    def fractional(self, n: int) -> Optional[tuple]:
        """(j, floor z[j]) of the most fractional z[j], j < n, or None."""
        T, d = self.T, self.d
        dist, j, low = max(((min(r, d - r), -j, T[i][-1] // d)
                            for i, j in enumerate(self.basis)
                            if j < n and (r := T[i][-1] % d)),
                           default=(0, 0, 0))
        return (-j, low) if dist else None


def solve_lp_exact(lp: LinearProgram) -> LPResult:
    """Primal simplex over exact rationals, Bland's rule, from a crash basis.

    Each row is scaled to integers with rhs >= 0; d is the gcd of the
    entries left of the rhs.  A column d e_i starts as basic in row i, any
    other row gets an artificial column d e_i, and phase 1 runs only if one
    exists.  So OHCP starts at x = c, y = 0: each row has x+_i or x-_i.

    Below the m constraint rows the tableau holds the phase-2 and then the
    phase-1 objective row: reduced costs, and minus the objective value in
    the last cell.  Pivots update them like every other row.

    The tableau is fraction-free (``_Tableau``).  Divided by d, the start
    is integral but for the rhs, so every later entry is d times a minor
    linear in the rhs: the Bareiss divisions stay exact.
    """
    m = len(lp.rows)
    n = len(lp.objective)
    scale = math.lcm(*(v.denominator for r in lp.rows + [lp.rhs] for v in r))
    cost_scale = math.lcm(*(v.denominator for v in lp.objective))
    T = [_integral(row + [b], -scale if b < 0 else scale)
         for row, b in zip(lp.rows, lp.rhs)]
    d = math.gcd(*(math.gcd(*row[:-1]) for row in T)) or 1
    basis = [None] * m
    for j, col in zip(range(n), zip(*T)):
        if col.count(0) == m - 1 and d in col and basis[col.index(d)] is None:
            basis[col.index(d)] = j
    artificial = [i for i in range(m) if basis[i] is None]
    for k, i in enumerate(artificial):
        basis[i] = n + k
    for i, row in enumerate(T):
        row[n:n] = [d * (i == a) for a in artificial]
    # the costs, priced out of the crash basis
    costs = _integral(lp.objective, cost_scale)
    cost = [d * v for v in costs] + [0] * (len(artificial) + 1)
    for i, j in enumerate(basis):
        if j < n and costs[j]:
            cost = [c - costs[j] * v for c, v in zip(cost, T[i])]
    T.append(cost)
    tab = _Tableau(T, basis, d, cost_scale)

    def optimize(ncols):
        """Pivot on the last row's costs; False when unbounded."""
        while True:
            entering = next((j for j in range(ncols) if T[-1][j] < 0), None)
            if entering is None:
                return True
            rows = [i for i in range(len(basis)) if T[i][entering] > 0]
            if not rows:
                return False
            leaving = rows[0]
            for i in rows[1:]:
                # the ratios T[i][-1] / T[i][entering], cross-multiplied
                cross = (T[i][-1] * T[leaving][entering]
                         - T[leaving][-1] * T[i][entering])
                if cross < 0 or (cross == 0 and basis[i] < basis[leaving]):
                    leaving = i
            tab.pivot(leaving, entering)

    if artificial:
        # phase 1 minimises the sum of the artificials, priced out
        T.append([-sum(T[i][j] for i in artificial) for j in range(n)]
                 + [0] * len(artificial)
                 + [-sum(T[i][-1] for i in artificial)])
        optimize(n + len(artificial))
        if T.pop()[-1]:
            return LPResult(status=INFEASIBLE)
        # drive artificials out of the basis, drop redundant rows
        for i in reversed(range(len(basis))):
            if basis[i] >= n:
                for j in range(n):
                    if T[i][j]:
                        tab.pivot(i, j)
                        break
                else:
                    del T[i]
                    del basis[i]
        for row in T:
            del row[n:-1]
    if not optimize(n):
        return LPResult(status=UNBOUNDED)
    return tab.optimum()


def _branch(parent: _Tableau, var: int, sense: int,
            val: int) -> Optional[_Tableau]:
    """The parent's optimum plus one row z[var] + sense * s = val, with a new
    slack column s: sense 1 bounds z[var] <= val, sense -1 bounds
    z[var] >= val.  Re-optimised by dual simplex from the parent's tableau;
    the optimal tableau, or None when the node is infeasible.

    z[var] is basic in row r, so the new row over the nonbasic columns is
    sense * (d e_var - T[r]) with d at s, and the rhs sense * (d val -
    T[r][-1]) < 0.  The reduced costs stay >= 0 (dual feasible).  Bland's
    rule for the dual: the row of least basic index among negative rhs
    entries leaves, the column of least ratio (lowest index on ties) enters;
    a leaving row with no negative entry makes the node infeasible.  No
    node can be unbounded.
    """
    d = parent.d
    r = parent.basis.index(var)
    rr = parent.T[r]
    bound = ([sense * (d * (j == var) - v) for j, v in enumerate(rr[:-1])]
             + [d, sense * (d * val - rr[-1])])
    T = [row[:-1] + [0, row[-1]] for row in parent.T]
    T.insert(-1, bound)
    tab = _Tableau(T, parent.basis + [len(rr) - 1], d, parent.cost_scale)
    basis = tab.basis
    while True:
        rows = [i for i in range(len(basis)) if T[i][-1] < 0]
        if not rows:
            return tab
        leaving = min(rows, key=basis.__getitem__)
        lr, cost = T[leaving], T[-1]
        entering = None
        for j, a in enumerate(lr[:-1]):
            # the ratios cost[j] / -a, cross-multiplied
            if a < 0 and (entering is None
                          or cost[j] * lr[entering] > cost[entering] * a):
                entering = j
        if entering is None:
            return None
        tab.pivot(leaving, entering)


def solve_ilp(lp: LinearProgram, budget: Optional[int] = None) -> LPResult:
    """Branch and bound on fractional variables with exact LP relaxations.

    The root is ``solve_lp_exact``; a node is its parent plus one bound row,
    re-optimised by dual simplex from the parent's final tableau (``_branch``).
    Branches on the most fractional variable, ties by lowest index: z[j] =
    T[i][-1] / d is min(r, d - r) / d off an integer, r = T[i][-1] mod d.
    Depth first, floor branch first; values become Fractions only at an
    incumbent.  Infeasible nodes are pruned.  If rows . z = rhs has no integral
    solution even without z >= 0 (``snf_solve``, skipped when each row i has a
    column +-e_i and the rhs is integral), INFEASIBLE before any node.  Only
    the root can be unbounded, since a child of a bounded LP is bounded; then
    the ILP is unbounded iff it has an integral point (Meyer's theorem for
    rational data): the same search on a zero objective, sharing the budget,
    decides UNBOUNDED, INFEASIBLE or BUDGET_EXCEEDED, maybe never without a
    budget.  budget caps the number of node solves, the root's included.
    """
    m = len(lp.rows)
    units = {i for col in zip(*lp.rows) if col.count(0) == m - 1
             for i, v in enumerate(col) if v in (1, -1)}
    if len(units) < m or any(b.denominator != 1 for b in lp.rhs):
        scale = math.lcm(*(v.denominator for r in lp.rows + [lp.rhs]
                           for v in r))
        y = snf_solve([_integral(r, scale) for r in lp.rows],
                      _integral(lp.rhs, scale))
        if y is None or any(v.denominator != 1 for v in y):
            return LPResult(INFEASIBLE)
    return _branch_and_bound(lp, _Budget.of(budget))


def _branch_and_bound(lp: LinearProgram, budget: _Budget) -> LPResult:
    """The search of solve_ilp, past the lattice test it runs only once."""
    n = len(lp.objective)
    incumbent: Optional[LPResult] = None
    stack = [None]  # the root; a child is (parent tableau, var, sense, val)
    while stack:
        try:
            budget.spend()
        except _Spent:
            break
        node = stack.pop()
        if node is None and (res := solve_lp_exact(lp)).status == UNBOUNDED:
            point = _branch_and_bound(replace(lp, objective=[0] * n), budget)
            return point if point.values is None else LPResult(UNBOUNDED)
        tab = res._tableau if node is None else _branch(*node)
        if tab is None:     # an infeasible relaxation
            continue
        objective = Fraction(-tab.T[-1][-1], tab.d * tab.cost_scale)
        if incumbent is not None and objective >= incumbent.objective:
            continue
        if (frac := tab.fractional(n)) is None:
            incumbent = LPResult(OPTIMAL, tab.optimum().values[:n], objective)
            continue
        var, low = frac
        stack += [(tab, var, -1, low + 1), (tab, var, 1, low)]
    result = incumbent or LPResult(status=INFEASIBLE)
    if stack:   # the budget ran out with nodes left to solve
        result.status = BUDGET_EXCEEDED
    return result


# -- OHCP -------------------------------------------------------------------

def _check_chain(complex: SimplicialComplex, p: int, chain: Chain) -> None:
    """p >= 0, and every key of chain is a canonical p-simplex of complex."""
    if p < 0:
        raise InvalidArgument(f"p={p} is negative")
    for s in chain:
        if canon(s) != s or s not in complex.simplices or len(s) != p + 1:
            raise InvalidArgument(f"chain simplex {s} is not a canonical "
                                  f"{p}-simplex of the complex")


@dataclass
class OHCPInstance:
    """Find the p-chain x homologous to chain that minimises
    sum_s complex.weight(s) * |x_s|."""
    complex: SimplicialComplex
    p: int
    chain: Chain                    # input p-chain c

    def __post_init__(self):
        _check_chain(self.complex, self.p, self.chain)


@dataclass
class LPSolution:
    status: str
    chain: Chain = field(default_factory=dict)        # optimal p-chain x
    objective: Optional[Fraction] = None
    certificate: Chain = field(default_factory=dict)  # (p+1)-chain y, x = c + dy
    cocycle: Chain = field(default_factory=dict)      # dual p-cochain u

    def to_json(self) -> dict:
        def enc(ch):
            return [{"coeff": str(Fraction(v)), "simplex": list(s)}
                    for s, v in sorted(ch.items())]
        return {"status": self.status,
                "objective": None if self.objective is None else str(self.objective),
                "chain": enc(self.chain),
                "certificate": enc(self.certificate),
                "cocycle": enc(self.cocycle)}


def _layout(instance: OHCPInstance) -> tuple:
    """The LP's variables are x+, x-, y+, y-: one block each, over the
    p-simplices (x) and the (p+1)-simplices (y) in this order."""
    cx, p = instance.complex, instance.p
    return cx.p_simplices(p), cx.p_simplices(p + 1) if p < cx.dim else []


def formulate(instance: OHCPInstance) -> LinearProgram:
    """Standard-form LP: split x and y into nonnegative parts, one equality
    row [e_i, -e_i, -d_i, d_i] per p-simplex, d_i its row of [d_{p+1}]."""
    p_simplices, q_simplices = _layout(instance)
    bm = (boundary_matrix(instance.complex, instance.p + 1).entries
          if q_simplices else [[] for _ in p_simplices])
    rows = []
    for i, d_i in enumerate(bm):
        e_i = [int(k == i) for k in range(len(p_simplices))]
        rows.append(e_i + [-v for v in e_i] + [-v for v in d_i] + d_i)
    weights = [instance.complex.weight(s) for s in p_simplices]
    return LinearProgram(
        objective=weights + weights + [0] * (2 * len(q_simplices)),
        rows=rows, rhs=[instance.chain.get(s, 0) for s in p_simplices])


def _extract(instance: OHCPInstance, lp: LinearProgram,
             res: LPResult) -> LPSolution:
    """Check x = c + dy on numerators over d, the tableau's (1 for an ILP
    optimum): a value or c not over d fails.  An LP optimum also gives the dual
    optimum u = w - r(x+), r the reduced costs: check that u is a p-cocycle,
    |u| <= w and <u, c> is the objective (Dey-Hirani-Krishnamoorthy 2011)."""
    if res.values is None:
        return LPSolution(status=res.status)
    tab = res._tableau
    d = tab.d if tab else 1
    c = instance.chain
    if any(d % v.denominator for v in res.values + list(c.values())):
        raise InvalidArgument("certificate identity x = c + dy failed")
    v = _integral(res.values, d)
    cd = dict(zip(c, _integral(list(c.values()), d)))

    def difference(simplices, at):
        k = len(simplices)
        return {s: v[at + i] - v[at + k + i] for i, s in enumerate(simplices)
                if v[at + i] != v[at + k + i]}

    p_simplices, q_simplices = _layout(instance)
    chain = difference(p_simplices, 0)
    cert = difference(q_simplices, 2 * len(p_simplices))
    moved = {s: e for s in chain.keys() | cd.keys()
             if (e := chain.get(s, 0) - cd.get(s, 0))}
    if moved != chain_boundary(cert):
        raise InvalidArgument("certificate identity x = c + dy failed")
    sol = LPSolution(status=res.status, objective=res.objective,
                     chain={s: Fraction(e, d) for s, e in chain.items()},
                     certificate={s: Fraction(e, d) for s, e in cert.items()})
    if tab is None:     # an ILP optimum
        return sol
    D = d * tab.cost_scale
    w = _integral(lp.objective[:len(p_simplices)], D)
    u = {s: ws - r for s, ws, r in zip(p_simplices, w, tab.T[-1])}
    if (any(sum(sign * u[f] for f, sign in boundary_of(t).items())
            for t in q_simplices)
            or any(abs(u[s]) > ws for s, ws in zip(p_simplices, w))
            or sum(u[s] * e for s, e in cd.items()) != res.objective * D * d):
        raise InvalidArgument("dual certificate u failed: not a cocycle, "
                              "past a weight or off the objective")
    sol.cocycle = {s: Fraction(e, D) for s, e in u.items() if e}
    return sol


def solve_ohcp_lp(instance: OHCPInstance) -> LPSolution:
    return _extract(instance, lp := formulate(instance), solve_lp_exact(lp))


def solve_ohcp_ilp(instance: OHCPInstance,
                   budget: Optional[int] = None) -> LPSolution:
    """Integral x and y make c = x - dy integral, so a chain with a
    fractional coefficient is INFEASIBLE without branching."""
    budget = _Budget.of(budget)
    if any(Fraction(v).denominator != 1 for v in instance.chain.values()):
        return LPSolution(status=INFEASIBLE)
    return _extract(instance, lp := formulate(instance),
                    solve_ilp(lp, budget=budget))


# -- homologousness check ---------------------------------------------------

def verify_homologous(complex: SimplicialComplex, p: int, c: Chain, x: Chain,
                      coefficients: str = "rational"):
    """Is x homologous to c, i.e. is x - c a (p+1)-boundary?

    Returns (True, y) with the certificate chain, or (False, None).
    coefficients="integer" demands an integer certificate (int coefficients),
    "rational" allows Fractions.  Both solve B y = x - c with ``snf_solve``,
    whose y is integral iff an integral solution exists.
    """
    if coefficients not in ("integer", "rational"):
        raise InvalidArgument(f"unknown coefficient mode {coefficients!r}")
    for ch in (c, x):
        _check_chain(complex, p, ch)
    d = [Fraction(x.get(s, 0)) - Fraction(c.get(s, 0))
         for s in complex.p_simplices(p)]
    if p >= complex.dim:
        return (True, {}) if not any(d) else (False, None)
    bm = boundary_matrix(complex, p + 1)
    y = snf_solve(bm.entries, d)
    if coefficients == "integer" and y is not None:
        y = [int(v) for v in y] if all(v.denominator == 1 for v in y) else None
    if y is None:
        return (False, None)
    return (True, {s: y[j] for j, s in enumerate(bm.cols) if y[j]})
