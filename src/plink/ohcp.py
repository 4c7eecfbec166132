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

from .complexes import (Chain, InvalidArgument, Simplex, SimplicialComplex,
                        canon, chain_boundary)
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
    var_names: list                 # parallel to objective


@dataclass
class LPResult:
    status: str
    values: Optional[list] = None   # Fractions, length N
    objective: Optional[Fraction] = None


def solve_lp_exact(lp: LinearProgram) -> LPResult:
    """Two-phase primal simplex over exact rationals, Bland's rule."""
    m = len(lp.rows)
    n = len(lp.objective)
    T = [[Fraction(v) for v in row] + [Fraction(lp.rhs[i])]
         for i, row in enumerate(lp.rows)]
    for row in T:
        if row[-1] < 0:
            for k in range(n + 1):
                row[k] = -row[k]
    # phase 1: append artificials
    for i, row in enumerate(T):
        row[-1:-1] = [Fraction(1) if k == i else Fraction(0) for k in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m

    def pivot(ri, cj):
        piv = T[ri][cj]
        T[ri] = [v / piv for v in T[ri]]
        for i in range(len(T)):
            if i != ri and T[i][cj]:
                f = T[i][cj]
                T[i] = [a - f * b for a, b in zip(T[i], T[ri])]
        basis[ri] = cj

    def optimize(cost, ncols):
        while True:
            cb = [cost[j] for j in basis]
            entering = None
            for j in range(ncols):
                if j in basis:
                    continue
                red = cost[j] - sum(cb[i] * T[i][j] for i in range(len(T)))
                if red < 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = None
            best = None
            for i in range(len(T)):
                if T[i][entering] > 0:
                    ratio = T[i][-1] / T[i][entering]
                    if (best is None or ratio < best
                            or (ratio == best and basis[i] < basis[leaving])):
                        best, leaving = ratio, i
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    state = optimize(cost1, total)
    phase1 = sum(cost1[j] * T[i][-1] for i, j in enumerate(basis))
    if phase1 > 0:
        return LPResult(status=INFEASIBLE)
    # drive artificials out of the basis, drop redundant rows
    for i in reversed(range(len(T))):
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
    cost2 = [Fraction(c) for c in lp.objective]
    state = optimize(cost2, n)
    if state == "unbounded":
        return LPResult(status=UNBOUNDED)
    values = [Fraction(0)] * n
    for i, j in enumerate(basis):
        values[j] = T[i][-1]
    obj = sum(c * v for c, v in zip(cost2, values))
    return LPResult(status=OPTIMAL, values=values, objective=obj)


def solve_lp_with_bounds(lp: LinearProgram, bounds: list) -> LPResult:
    """Solve lp with extra single-variable bounds (var, "<="|">=", int),
    encoded as slack/surplus rows."""
    if not bounds:
        return solve_lp_exact(lp)
    n = len(lp.objective)
    extra = len(bounds)
    rows = [list(r) + [Fraction(0)] * extra for r in lp.rows]
    rhs = list(lp.rhs)
    for k, (var, sense, val) in enumerate(bounds):
        row = [Fraction(0)] * (n + extra)
        row[var] = Fraction(1)
        row[n + k] = Fraction(1) if sense == "<=" else Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(val))
    aug = LinearProgram(objective=list(lp.objective) + [Fraction(0)] * extra,
                        rows=rows, rhs=rhs,
                        var_names=list(lp.var_names) + [f"_s{k}" for k in range(extra)])
    res = solve_lp_exact(aug)
    if res.values is not None:
        res = LPResult(status=res.status, values=res.values[:n],
                       objective=res.objective)
    return res


def solve_ilp(lp: LinearProgram, budget: Optional[int] = None) -> LPResult:
    """Branch and bound on fractional variables with exact LP relaxations.

    Branches on the most fractional variable, ties by lowest index; depth
    first, floor branch first.  budget caps the number of LP solves.
    """
    solves = 0
    incumbent: Optional[LPResult] = None
    exceeded = False
    stack = [[]]
    while stack:
        bounds = stack.pop()
        if budget is not None and solves >= budget:
            exceeded = True
            break
        solves += 1
        res = solve_lp_with_bounds(lp, bounds)
        if res.status != OPTIMAL:
            continue
        if incumbent is not None and res.objective >= incumbent.objective:
            continue
        frac_var = None
        best_dist = Fraction(0)
        for j, v in enumerate(res.values):
            dist = abs(v - Fraction(round(v)))
            if dist > best_dist:
                best_dist, frac_var = dist, j
        if frac_var is None:
            incumbent = res
            continue
        v = res.values[frac_var]
        stack.append(bounds + [(frac_var, ">=", math.ceil(v))])
        stack.append(bounds + [(frac_var, "<=", math.floor(v))])
    if incumbent is None:
        return LPResult(status=BUDGET_EXCEEDED if exceeded else INFEASIBLE)
    if exceeded:
        return LPResult(status=BUDGET_EXCEEDED, values=incumbent.values,
                        objective=incumbent.objective)
    return incumbent


# -- OHCP -------------------------------------------------------------------

@dataclass
class OHCPInstance:
    complex: SimplicialComplex
    p: int
    chain: Chain                    # input p-chain c
    weights: Optional[dict] = None  # p-simplex -> Fraction >= 0; default 1

    def __post_init__(self):
        for s in self.chain:
            if canon(s) not in self.complex.simplices or len(s) != self.p + 1:
                raise InvalidArgument(f"chain simplex {s} invalid")

    def weight_of(self, simplex: Simplex) -> Fraction:
        if self.weights is not None:
            w = Fraction(self.weights.get(simplex, 1))
        else:
            w = self.complex.weight(simplex)
        if w < 0:
            raise InvalidArgument(f"negative weight on {simplex}")
        return w


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


def formulate(instance: OHCPInstance) -> LinearProgram:
    """Standard-form LP: split x and y into nonnegative parts, one equality
    row per p-simplex."""
    cx, p = instance.complex, instance.p
    p_simplices = cx.p_simplices(p)
    q_simplices = cx.p_simplices(p + 1) if p < cx.dim else []
    np_, nq = len(p_simplices), len(q_simplices)
    if nq:
        bm = boundary_matrix(cx, p + 1)
    names = ([f"x+{s}" for s in p_simplices] + [f"x-{s}" for s in p_simplices]
             + [f"y+{s}" for s in q_simplices] + [f"y-{s}" for s in q_simplices])
    obj = [Fraction(0)] * (2 * np_ + 2 * nq)
    for i, s in enumerate(p_simplices):
        w = instance.weight_of(s)
        obj[i] = w
        obj[np_ + i] = w
    rows = []
    rhs = []
    for i, s in enumerate(p_simplices):
        row = [Fraction(0)] * (2 * np_ + 2 * nq)
        row[i] = Fraction(1)
        row[np_ + i] = Fraction(-1)
        for j in range(nq):
            bij = bm.entries[i][j] if nq else 0
            if bij:
                row[2 * np_ + j] = Fraction(-bij)
                row[2 * np_ + nq + j] = Fraction(bij)
        rows.append(row)
        rhs.append(Fraction(instance.chain.get(s, 0)))
    return LinearProgram(objective=obj, rows=rows, rhs=rhs, var_names=names)


def _extract(instance: OHCPInstance, res: LPResult) -> LPSolution:
    if res.status not in (OPTIMAL, BUDGET_EXCEEDED) or res.values is None:
        return LPSolution(status=res.status)
    cx, p = instance.complex, instance.p
    p_simplices = cx.p_simplices(p)
    q_simplices = cx.p_simplices(p + 1) if p < cx.dim else []
    np_, nq = len(p_simplices), len(q_simplices)
    chain = {}
    for i, s in enumerate(p_simplices):
        v = res.values[i] - res.values[np_ + i]
        if v:
            chain[s] = v
    cert = {}
    for j, s in enumerate(q_simplices):
        v = res.values[2 * np_ + j] - res.values[2 * np_ + nq + j]
        if v:
            cert[s] = v
    sol = LPSolution(status=res.status, chain=chain, objective=res.objective,
                     certificate=cert)
    if res.status == OPTIMAL:
        _check_certificate(instance, sol)
    return sol


def _check_certificate(instance: OHCPInstance, sol: LPSolution) -> None:
    diff = dict(sol.chain)
    for s, v in instance.chain.items():
        d = diff.get(canon(s), 0) - v
        if d:
            diff[canon(s)] = d
        else:
            diff.pop(canon(s), None)
    if diff != chain_boundary(sol.certificate):
        raise InvalidArgument("certificate identity x = c + dy failed")


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
        for s in ch:
            if canon(s) not in complex.simplices or len(s) != p + 1:
                raise InvalidArgument(f"chain simplex {s} invalid")
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
