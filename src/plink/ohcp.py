"""Optimal homologous chain instances solved by exact rational linear
programming, with a branch-and-bound integer fallback.

No floating point anywhere: the simplex method runs on Fractions with Bland's
anti-cycling rule, so optima like 17/40 are certified exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .complexes import (Chain, InvalidArgument, SimplicialComplex, canon,
                        chain_boundary)
from .homology import boundary_matrix, smith_normal_form

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass
class LinearProgram:
    """min objective . z  subject to  rows . z = rhs,  z >= 0."""
    objective: list                 # Fractions, length N
    rows: list                      # list of lists of Fractions
    rhs: list                       # Fractions, length m


@dataclass
class LPResult:
    status: str
    values: Optional[list] = None   # Fractions, length N
    objective: Optional[Fraction] = None


def solve_lp_exact(lp: LinearProgram) -> LPResult:
    """Two-phase primal simplex over exact rationals, Bland's rule.

    Below the m constraint rows the tableau holds the phase-2 and then the
    phase-1 objective row: reduced costs, and minus the objective value in
    the last cell.  Pivots update them like every other row.
    """
    m = len(lp.rows)
    n = len(lp.objective)
    T = []
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        sign = -1 if b < 0 else 1
        T.append([sign * Fraction(v) for v in row]
                 + [Fraction(int(k == i)) for k in range(m)]
                 + [sign * Fraction(b)])
    basis = [n + i for i in range(m)]
    T.append([Fraction(c) for c in lp.objective] + [Fraction(0)] * (m + 1))
    # phase 1 minimises the sum of the artificials, priced out of the basis
    T.append([-sum(row[j] for row in T[:m]) for j in range(n)]
             + [Fraction(0)] * m + [-sum(row[-1] for row in T[:m])])

    def pivot(ri, cj):
        piv = T[ri][cj]
        T[ri] = [v / piv for v in T[ri]]
        for i in range(len(T)):
            if i != ri and T[i][cj]:
                f = T[i][cj]
                T[i] = [a - f * b for a, b in zip(T[i], T[ri])]
        basis[ri] = cj

    def optimize(ncols):
        """Pivot on the last row's costs; False when unbounded."""
        while True:
            entering = next((j for j in range(ncols) if T[-1][j] < 0), None)
            if entering is None:
                return True
            leaving = None
            best = None
            for i in range(len(basis)):
                if T[i][entering] > 0:
                    ratio = T[i][-1] / T[i][entering]
                    if (best is None or ratio < best
                            or (ratio == best and basis[i] < basis[leaving])):
                        best, leaving = ratio, i
            if leaving is None:
                return False
            pivot(leaving, entering)

    optimize(n + m)
    if T.pop()[-1]:
        return LPResult(status=INFEASIBLE)
    # drive artificials out of the basis, drop redundant rows
    for i in reversed(range(len(basis))):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j]:
                    pivot(i, j)
                    break
            else:
                del T[i]
                del basis[i]
    for row in T:
        del row[n:-1]
    if not optimize(n):
        return LPResult(status=UNBOUNDED)
    values = [Fraction(0)] * n
    for i, j in enumerate(basis):
        values[j] = T[i][-1]
    return LPResult(status=OPTIMAL, values=values, objective=-T[-1][-1])


def _bounded(lp: LinearProgram, var: int, sense: int,
             val: int) -> LinearProgram:
    """lp plus one row z[var] + sense * slack = val with a new slack column:
    sense 1 bounds z[var] <= val, sense -1 bounds z[var] >= val."""
    row = [Fraction(0)] * len(lp.objective) + [Fraction(sense)]
    row[var] = Fraction(1)
    return LinearProgram(objective=lp.objective + [Fraction(0)],
                         rows=[r + [Fraction(0)] for r in lp.rows] + [row],
                         rhs=lp.rhs + [Fraction(val)])


def solve_ilp(lp: LinearProgram, budget: Optional[int] = None) -> LPResult:
    """Branch and bound on fractional variables with exact LP relaxations.

    A node is an LP: its parent plus one bound row (``_bounded``).  Branches
    on the most fractional variable, ties by lowest index; depth first, floor
    branch first.  A node whose relaxation is infeasible or unbounded is
    pruned, so an unbounded relaxation reads INFEASIBLE.  budget caps the
    number of LP solves.
    """
    n = len(lp.objective)
    solves = 0
    incumbent: Optional[LPResult] = None
    stack = [lp]
    while stack and (budget is None or solves < budget):
        node = stack.pop()
        solves += 1
        res = solve_lp_exact(node)
        if res.status != OPTIMAL:
            continue
        if incumbent is not None and res.objective >= incumbent.objective:
            continue
        values = res.values[:n]
        frac_var = None
        best_dist = Fraction(0)
        for j, v in enumerate(values):
            dist = abs(v - Fraction(round(v)))
            if dist > best_dist:
                best_dist, frac_var = dist, j
        if frac_var is None:
            incumbent = LPResult(status=OPTIMAL, values=values,
                                 objective=res.objective)
            continue
        v = values[frac_var]
        stack.append(_bounded(node, frac_var, -1, math.ceil(v)))
        stack.append(_bounded(node, frac_var, 1, math.floor(v)))
    result = incumbent or LPResult(status=INFEASIBLE)
    if stack:   # the budget ran out with nodes left to solve
        result.status = BUDGET_EXCEEDED
    return result


# -- OHCP -------------------------------------------------------------------

def _check_chain(complex: SimplicialComplex, p: int, chain: Chain) -> None:
    """Every key of chain must be a canonical p-simplex of complex."""
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

    def to_json(self) -> dict:
        def enc(ch):
            return [{"coeff": str(Fraction(v)), "simplex": list(s)}
                    for s, v in sorted(ch.items())]
        return {"status": self.status,
                "objective": None if self.objective is None else str(self.objective),
                "chain": enc(self.chain),
                "certificate": enc(self.certificate)}


def _layout(instance: OHCPInstance) -> tuple:
    """The LP's variables are x+, x-, y+, y-: one block each, over the
    p-simplices (x) and the (p+1)-simplices (y) in this order."""
    cx, p = instance.complex, instance.p
    return cx.p_simplices(p), cx.p_simplices(p + 1) if p < cx.dim else []


def formulate(instance: OHCPInstance) -> LinearProgram:
    """Standard-form LP: split x and y into nonnegative parts, one equality
    row per p-simplex."""
    p_simplices, q_simplices = _layout(instance)
    np_, nq = len(p_simplices), len(q_simplices)
    if nq:
        bm = boundary_matrix(instance.complex, instance.p + 1)
    weights = [instance.complex.weight(s) for s in p_simplices]
    obj = weights + weights + [Fraction(0)] * (2 * nq)
    rows = []
    rhs = []
    for i, s in enumerate(p_simplices):
        row = [Fraction(0)] * (2 * np_ + 2 * nq)
        row[i] = Fraction(1)
        row[np_ + i] = Fraction(-1)
        for j in range(nq):
            bij = bm.entries[i][j]
            if bij:
                row[2 * np_ + j] = Fraction(-bij)
                row[2 * np_ + nq + j] = Fraction(bij)
        rows.append(row)
        rhs.append(Fraction(instance.chain.get(s, 0)))
    return LinearProgram(objective=obj, rows=rows, rhs=rhs)


def _extract(instance: OHCPInstance, res: LPResult) -> LPSolution:
    """Read x and y off the LP values and check x = c + dy."""
    if res.values is None:
        return LPSolution(status=res.status)
    v = res.values

    def difference(simplices, at):
        k = len(simplices)
        return {s: v[at + i] - v[at + k + i] for i, s in enumerate(simplices)
                if v[at + i] != v[at + k + i]}

    p_simplices, q_simplices = _layout(instance)
    chain = difference(p_simplices, 0)
    cert = difference(q_simplices, 2 * len(p_simplices))
    c = instance.chain
    moved = {s: d for s in chain.keys() | c.keys()
             if (d := chain.get(s, 0) - c.get(s, 0))}
    if moved != chain_boundary(cert):
        raise InvalidArgument("certificate identity x = c + dy failed")
    return LPSolution(status=res.status, chain=chain, objective=res.objective,
                      certificate=cert)


def solve_ohcp_lp(instance: OHCPInstance) -> LPSolution:
    return _extract(instance, solve_lp_exact(formulate(instance)))


def solve_ohcp_ilp(instance: OHCPInstance,
                   budget: Optional[int] = None) -> LPSolution:
    return _extract(instance, solve_ilp(formulate(instance), budget=budget))


# -- homologousness check ---------------------------------------------------

def verify_homologous(complex: SimplicialComplex, p: int, c: Chain, x: Chain,
                      coefficients: str = "rational"):
    """Is x homologous to c, i.e. is x - c a (p+1)-boundary?

    Returns (True, y) with the certificate chain, or (False, None).
    coefficients="integer" demands an integer certificate (int coefficients),
    "rational" allows Fractions.  Both solve B y = x - c through the Smith
    normal form U B V = D: D z = U (x - c) is diagonal, and y = V z.
    """
    if coefficients not in ("integer", "rational"):
        raise InvalidArgument(f"unknown coefficient mode {coefficients!r}")
    for ch in (c, x):
        _check_chain(complex, p, ch)
    d = [Fraction(x.get(s, 0)) - Fraction(c.get(s, 0))
         for s in complex.p_simplices(p)]
    if p >= complex.dim:
        return (True, {}) if not any(d) else (False, None)
    integer = coefficients == "integer"
    if integer:
        if any(v.denominator != 1 for v in d):
            return (False, None)
        d = [int(v) for v in d]
    bm = boundary_matrix(complex, p + 1)
    snf = smith_normal_form(bm.entries)
    z = [0] * len(bm.cols)
    for i, row in enumerate(snf.U):
        ud = sum(u * v for u, v in zip(row, d))
        if i >= snf.rank:
            if ud:
                return (False, None)
        elif integer:
            if ud % snf.diag[i]:
                return (False, None)
            z[i] = ud // snf.diag[i]
        else:
            z[i] = Fraction(ud, snf.diag[i])
    y = [sum(v * zj for v, zj in zip(row, z)) for row in snf.V]
    return (True, {s: y[j] for j, s in enumerate(bm.cols) if y[j]})
