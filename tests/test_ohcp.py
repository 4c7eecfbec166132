import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plink import ohcp
from plink.complexes import (InvalidArgument, SimplicialComplex, boundary_of,
                             canon, chain_boundary)
from plink.fixtures import (annulus, cone, mobius, mobius_ohcp_instance,
                            random_complex)
from plink.homology import _Budget, bareiss_step, boundary_matrix
from plink.ohcp import (BUDGET_EXCEEDED, INFEASIBLE, OPTIMAL, UNBOUNDED,
                        LinearProgram, OHCPInstance, formulate, solve_ilp,
                        solve_lp_exact, solve_ohcp_ilp, solve_ohcp_lp,
                        verify_homologous)
from plink.tugraph import is_totally_unimodular

F = Fraction


def lp(obj, rows, rhs):
    return LinearProgram(objective=[F(v) for v in obj],
                         rows=[[F(v) for v in r] for r in rows],
                         rhs=[F(v) for v in rhs])


# -- exact LP solver ----------------------------------------------------------

def test_lp_simple_optimum():
    # min z0 + z1 s.t. z0 + z1 = 1 -> 1
    res = solve_lp_exact(lp([1, 1], [[1, 1]], [1]))
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_lp_prefers_cheaper_variable():
    res = solve_lp_exact(lp([3, 1], [[1, 1]], [1]))
    assert res.objective == 1
    assert res.values == [F(0), F(1)]


def test_lp_fractional_optimum_is_exact():
    # min z0 s.t. 40 z0 = 17
    res = solve_lp_exact(lp([1], [[40]], [17]))
    assert res.objective == F(17, 40)


def test_lp_infeasible():
    res = solve_lp_exact(lp([1], [[0]], [1]))
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    # min -z0 s.t. z0 - z1 = 0, both free to grow
    res = solve_lp_exact(lp([-1, 0], [[1, -1]], [0]))
    assert res.status == UNBOUNDED


def test_lp_negative_rhs_normalized():
    res = solve_lp_exact(lp([1, 1], [[-1, -1]], [-1]))
    assert res.objective == 1


def test_lp_redundant_rows():
    res = solve_lp_exact(lp([1, 1], [[1, 1], [2, 2]], [1, 2]))
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_ragged_lp_is_rejected():
    # each once read INFEASIBLE or OPTIMAL, silently dropping data
    shapes = [([1, 1], [[1, 1], [1, 0]], [1]),        # 2 rows, 1 rhs entry
              ([1, 1], [[1, 1]], [1, 2]),             # 1 row, 2 rhs entries
              ([1, 1], [[1, 1, 5]], [1]),             # 3 entries, 2 costs
              ([1, 1, 1], [[1, 1], [1, 0]], [1, 1])]  # 2 entries, 3 costs
    for solve in (solve_lp_exact, solve_ilp):
        for obj, rows, rhs in shapes:
            with pytest.raises(InvalidArgument):
                solve(lp(obj, rows, rhs))


@given(st.integers(0, 2000))
def test_lp_solution_is_feasible(seed):
    r = random.Random(seed)
    m, n = r.randint(1, 3), r.randint(2, 5)
    rows = [[F(r.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
    rhs = [F(r.randint(-3, 3)) for _ in range(m)]
    obj = [F(r.randint(0, 4)) for _ in range(n)]
    res = solve_lp_exact(lp(obj, rows, rhs))
    if res.status == OPTIMAL:
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, res.values)) == b
        assert all(v >= 0 for v in res.values)
        assert res.objective == sum(
            c * v for c, v in zip(obj, res.values))


def unique_solution(rows, rhs, cols):
    """The one z on the columns cols with rows . z = rhs, or None when
    there is none or there are many: Gauss-Jordan over Fractions."""
    M = [[row[j] for j in cols] + [b] for row, b in zip(rows, rhs)]
    for c in range(len(cols)):          # column c pivots in row c
        piv = next((i for i in range(c, len(M)) if M[i][c]), None)
        if piv is None:
            return None
        M[c], M[piv] = M[piv], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for i in range(len(M)):
            if i != c and M[i][c]:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[c])]
    if any(row[-1] for row in M[len(cols):]):
        return None
    return [row[-1] for row in M[:len(cols)]]


def basic_feasible_solutions(rows, rhs, n):
    """Every z >= 0 with rows . z = rhs whose support has independent
    columns, found by trying every column subset."""
    for k in range(n + 1):
        for cols in itertools.combinations(range(n), k):
            sol = unique_solution(rows, rhs, cols)
            if sol is not None and all(v >= 0 for v in sol):
                z = [F(0)] * n
                for j, v in zip(cols, sol):
                    z[j] = v
                yield z


@st.composite
def small_lps(draw, entries=st.integers(-3, 3), values=st.integers(-3, 3),
              denominators=st.integers(1, 4)):
    def rational(numerators):
        return F(draw(numerators), draw(denominators))

    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rows = [[rational(entries) for _ in range(n)] for _ in range(m)]
    rhs = [rational(values) for _ in range(m)]
    if m > 1 and draw(st.booleans()):     # a redundant last row
        k = draw(st.integers(-2, 2))
        rows[-1] = [a + k * b for a, b in zip(rows[0], rows[-2])]
        rhs[-1] = rhs[0] + k * rhs[-2]
    obj = [rational(st.integers(-3, 3)) for _ in range(n)]
    return obj, rows, rhs


@given(small_lps())
def test_lp_matches_basic_feasible_solution_oracle(case):
    # feasible iff some basic feasible solution exists; unbounded iff some
    # extreme ray d >= 0, rows . d = 0, sum d = 1 has obj . d < 0;
    # otherwise the optimum is the cheapest basic feasible solution
    obj, rows, rhs = case
    n = len(obj)

    def cost(z):
        return sum(c * v for c, v in zip(obj, z))

    vertices = list(basic_feasible_solutions(rows, rhs, n))
    rays = basic_feasible_solutions(rows + [[F(1)] * n],
                                    [F(0)] * len(rows) + [F(1)], n)
    res = solve_lp_exact(lp(obj, rows, rhs))
    if not vertices:
        assert res.status == INFEASIBLE
    elif any(cost(d) < 0 for d in rays):
        assert res.status == UNBOUNDED
    else:
        assert res.status == OPTIMAL
        assert res.objective == min(cost(z) for z in vertices)
        assert res.objective == cost(res.values)


@settings(max_examples=300)
@given(small_lps(entries=st.integers(1, 3), values=st.integers(0, 6),
                 denominators=st.just(1)))
def test_ilp_matches_brute_force(case):
    # the first row is positive with rhs >= 0, so it bounds every variable
    # and the integer points form a finite box
    obj, rows, rhs = case
    box = itertools.product(*(range(int(rhs[0] // a) + 1) for a in rows[0]))
    costs = [sum(c * v for c, v in zip(obj, z)) for z in box
             if all(sum(a * v for a, v in zip(row, z)) == b
                    for row, b in zip(rows, rhs))]
    # every variable lies in [0, 6], so the search is finite: the worst of
    # 5,000 drawn cases took 99 node solves.  A search that re-solves one
    # node ends at the budget and fails the status check below.
    res = solve_ilp(lp(obj, rows, rhs), budget=2000)
    if not costs:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.objective == min(costs)
        assert all(v.denominator == 1 for v in res.values)


# -- branch and bound ---------------------------------------------------------

def test_ilp_rounds_up_fractional_lp():
    # min z0 + z1 s.t. 2 z0 + 2 z1 = 3: LP gives 3/2, no integer point
    res = solve_ilp(lp([1, 1], [[2, 2]], [3]))
    assert res.status == INFEASIBLE


def test_ilp_integral_lp_is_returned_unchanged():
    res = solve_ilp(lp([1, 1], [[1, 1]], [2]))
    assert res.objective == 2
    assert all(v.denominator == 1 for v in res.values)


def test_ilp_knapsack_style():
    # min 2a + 3b s.t. a + 2b = 3 -> integral best a=1, b=1 cost 5
    res = solve_ilp(lp([2, 3], [[1, 2]], [3]))
    assert res.objective == 5
    assert res.values == [F(1), F(1)]


def test_ilp_budget_exceeded():
    # 2a + 2b = 3 has no integral solution at all: the lattice test at the
    # root proves it before any node solve
    assert solve_ilp(lp([1, 1], [[2, 2]], [3]), budget=1).status == INFEASIBLE
    # min a + b s.t. 2a + 4b = 6: the root b = 3/2 is fractional, and
    # (3, 0) and (1, 1) are integral points
    res = solve_ilp(lp([1, 1], [[2, 4]], [6]), budget=1)
    assert res.status == BUDGET_EXCEEDED and res.values is None
    assert solve_ilp(lp([1, 1], [[2, 4]], [6])).values == [F(1), F(1)]


def test_ilp_unbounded_relaxation_needs_an_integral_point(deadline):
    deadline(5)
    # min -a s.t. a - b = 1: every (k + 1, k) is feasible
    start = time.perf_counter()
    assert solve_ilp(lp([-1, 0], [[1, -1]], [1])).status == UNBOUNDED
    assert time.perf_counter() - start < 1
    # min -b s.t. 2a = 1: the relaxation is unbounded, no integral point
    assert solve_ilp(lp([0, -1], [[2, 0]], [1])).status == INFEASIBLE
    # min -a s.t. 2a - 2b = 1: no integral solution even with a, b < 0
    assert solve_ilp(lp([-1, 0], [[2, -2]], [1])).status == INFEASIBLE
    # min -a s.t. a - b = 1/2: a unit column does not make up for the rhs
    res = solve_ilp(lp([-1, 0], [[1, -1]], [F(1, 2)]), budget=50)
    assert res.status == INFEASIBLE
    # the search for an integral point honours the budget
    res = solve_ilp(lp([-1, 0], [[1, -1]], [1]), budget=1)
    assert res.status == BUDGET_EXCEEDED


# -- warm start against cold-start oracles ----------------------------------

def bounded(lp, var, sense, val):
    """lp plus one row z[var] + sense * slack = val with a new slack column:
    sense 1 bounds z[var] <= val, sense -1 bounds z[var] >= val.  The
    cold-start form of a branch-and-bound child."""
    row = [0] * len(lp.objective) + [sense]
    row[var] = 1
    return LinearProgram(objective=lp.objective + [0],
                         rows=[r + [0] for r in lp.rows] + [row],
                         rhs=lp.rhs + [val])


def fraction_rule(values, n):
    """solve_ilp's branching rule on Fractions: (var, floor, ceil) of the
    most fractional of values[:n], ties by lowest index, or None when they
    are integral.  The slow reference of _Tableau.fractional."""
    dists = [abs(v - round(v)) for v in values[:n]]
    var = max(range(n), key=dists.__getitem__, default=None)
    if var is None or not dists[var]:
        return None
    return var, math.floor(values[var]), math.ceil(values[var])


def tableau_rule(tab, n):
    """_Tableau.fractional in fraction_rule's form."""
    frac = tab.fractional(n)
    return frac and (*frac, frac[1] + 1)


def cold_ilp(lp):
    """Branch and bound in solve_ilp's order, every node an LP solved from
    scratch: (status, objective).  For LPs with a bounded relaxation."""
    n = len(lp.objective)
    best, stack = None, [lp]
    while stack:
        node = stack.pop()
        res = solve_lp_exact(node)
        assert res.status != UNBOUNDED
        if res.status != OPTIMAL or (best is not None
                                     and res.objective >= best):
            continue
        rule = fraction_rule(res.values, n)
        if rule is None:
            best = res.objective
            continue
        j, low, high = rule
        stack.append(bounded(node, j, -1, high))
        stack.append(bounded(node, j, 1, low))
    return (INFEASIBLE, None) if best is None else (OPTIMAL, best)


def exact_bareiss_step(a, k, c, prev, rows, cols):
    """bareiss_step that fails unless every division is exact."""
    for i in rows:
        for j in cols:
            assert (a[i][j] * a[k][c] - a[i][c] * a[k][j]) % prev == 0
    return bareiss_step(a, k, c, prev, rows, cols)


def bounded_ilp(r):
    """A seeded ILP whose first row is positive with rhs >= 0, so every
    variable is bounded; small costs with repeats make ties common."""
    m, n = r.randint(1, 3), r.randint(2, 6)
    rows = [[F(r.randint(1, 3)) for _ in range(n)]]
    rows += [[F(r.randint(-3, 3)) for _ in range(n)] for _ in range(m - 1)]
    rhs = [F(r.randint(0, 8))] + [F(r.randint(-3, 6)) for _ in range(m - 1)]
    obj = [F(r.randint(-2, 3), r.choice([1, 1, 2])) for _ in range(n)]
    return LinearProgram(objective=obj, rows=rows, rhs=rhs)


def walk_warm_children(lp, seen, limit=60):
    """Branch as solve_ilp does from every fractional node, at most limit
    children: the tableau's branching rule must pick fraction_rule's
    (var, floor, ceil) at every node, each warm child must give the status
    and objective of its cold-start LP, and its values, read off its
    tableau, must be feasible there."""
    n = len(lp.objective)
    root = solve_lp_exact(lp)
    stack = [(root, lp)] if root.status == OPTIMAL else []
    while stack and limit > 0:
        res, node = stack.pop()
        tab = res._tableau
        rule = fraction_rule(res.values, n)
        assert tableau_rule(tab, n) == rule
        seen["nodes"] += 1
        if rule is None:
            continue
        var, low, high = rule
        r = tab.basis.index(var)
        for sense, val in ((-1, high), (1, low)):
            limit -= 1
            cold_lp = bounded(node, var, sense, val)
            child = ohcp._branch(tab, var, sense, val)
            warm = (ohcp.LPResult(INFEASIBLE) if child is None
                    else child.optimum())
            cold = solve_lp_exact(cold_lp)
            assert (warm.status, warm.objective) == (cold.status,
                                                     cold.objective)
            seen[warm.status] += 1
            # a tie for the first entering column: two columns of the
            # bound row reach the least ratio
            entries = [sense * (tab.d * (j == var) - v)
                       for j, v in enumerate(tab.T[r][:-1])]
            ratios = [F(tab.T[-1][j], -e) for j, e in enumerate(entries)
                      if e < 0]
            seen["tie"] += bool(ratios) and ratios.count(min(ratios)) > 1
            if warm.status == OPTIMAL:
                z = warm.values
                assert all(v >= 0 for v in z)
                for row, b in zip(cold_lp.rows, cold_lp.rhs):
                    assert sum(a * v for a, v in zip(row, z)) == b
                assert warm.objective == sum(
                    c * v for c, v in zip(cold_lp.objective, z))
                stack.append((warm, cold_lp))


def test_warm_children_match_cold_solves_on_seeded_ilps(monkeypatch,
                                                        deadline):
    deadline(30)
    monkeypatch.setattr(ohcp, "bareiss_step", exact_bareiss_step)
    r = random.Random(15)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, "tie": 0, "nodes": 0}
    for _ in range(150):
        walk_warm_children(bounded_ilp(r), seen)
    assert min(seen.values()) > 0, seen


def test_warm_children_match_cold_solves_on_mobius(deadline):
    deadline(30)
    for inst in (mobius_ohcp_instance(), weighted_mobius(7),
                 weighted_mobius(9)):
        seen = {OPTIMAL: 0, INFEASIBLE: 0, "tie": 0, "nodes": 0}
        walk_warm_children(formulate(inst), seen)
        assert seen[OPTIMAL] >= 10


def test_tableau_branching_matches_fraction_rule_at_every_node(monkeypatch):
    # every node solve_ilp reads the rule at, from the root on: a tie for
    # the most fractional variable must go to the lowest index there too
    fractional, nodes, ties = ohcp._Tableau.fractional, [], 0

    def checked(tab, n):
        nonlocal ties
        frac = fractional(tab, n)
        values = tab.optimum().values[:n]
        assert (frac and (*frac, frac[1] + 1)) == fraction_rule(values, n)
        dists = [abs(v - round(v)) for v in values]
        ties += frac is not None and dists.count(max(dists)) > 1
        nodes.append(frac)
        return frac

    monkeypatch.setattr(ohcp._Tableau, "fractional", checked)
    r = random.Random(1515)
    for _ in range(300):
        solve_ilp(bounded_ilp(r), budget=1000)
    for k in (7, 9):
        assert solve_ohcp_ilp(weighted_mobius(k)).status == OPTIMAL
    assert None in nodes and len(nodes) > 500 and ties > 50, ties


def test_ilp_matches_cold_branch_and_bound(deadline):
    deadline(30)
    r = random.Random(1515)
    statuses = set()
    for _ in range(300):
        lp = bounded_ilp(r)
        res = solve_ilp(lp, budget=1000)
        assert (res.status, res.objective) == cold_ilp(lp)
        statuses.add(res.status)
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_mobius_ilp_pivot_count_and_budget_statuses(monkeypatch, deadline):
    # a cold start per node took 684 pivots over 21 nodes here; pivots and
    # node solves are machine-independent, so they are pinned exactly
    deadline(30)
    pivots = 0

    def counting(*args):
        nonlocal pivots
        pivots += 1
        return bareiss_step(*args)

    monkeypatch.setattr(ohcp, "bareiss_step", counting)
    inst = mobius_ohcp_instance()
    for case, objective, count in ((inst, F(13, 10), 29),
                                   (weighted_mobius(9), F(7, 5), 31)):
        pivots, budget = 0, _Budget(100)
        sol = solve_ohcp_ilp(case, budget=budget)
        assert (sol.status, sol.objective) == (OPTIMAL, objective)
        assert (pivots, budget.used) == (count, 21)
    sol = solve_ohcp_ilp(inst, budget=1)
    assert sol.status == BUDGET_EXCEEDED and not sol.chain
    sol = solve_ohcp_ilp(inst, budget=2)
    assert sol.status == BUDGET_EXCEEDED and sol.objective == F(13, 10)


# -- crash start against the all-artificial two-phase start --------------------

def two_phase_reference(lp):
    """solve_lp_exact with the all-artificial start: every row gets an
    artificial column 1 at d = 1, phase 1 always runs, and a pivot updates
    every other row.  The slow reference of the crash start; its final
    tableau warm-starts branch and bound like solve_lp_exact's."""
    m, n = len(lp.rows), len(lp.objective)
    scale = math.lcm(*(v.denominator for r in lp.rows + [lp.rhs] for v in r))
    cost_scale = math.lcm(*(v.denominator for v in lp.objective))
    T = []
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        f = -scale if b < 0 else scale
        T.append([int(v * f) for v in row] + [int(k == i) for k in range(m)]
                 + [int(b * f)])
    T.append([int(v * cost_scale) for v in lp.objective] + [0] * (m + 1))
    T.append([-sum(row[j] for row in T[:m]) for j in range(n)]
             + [0] * m + [-sum(row[-1] for row in T[:m])])
    tab = ohcp._Tableau(T, [n + i for i in range(m)], 1, cost_scale)
    basis = tab.basis

    def pivot(ri, cj):
        tab.d = bareiss_step(T, ri, cj, tab.d,
                             [i for i in range(len(T)) if i != ri],
                             range(len(T[ri])))
        if tab.d < 0:
            T[:] = [[-v for v in row] for row in T]
            tab.d = -tab.d
        basis[ri] = cj

    def optimize(ncols):
        while True:
            entering = next((j for j in range(ncols) if T[-1][j] < 0), None)
            if entering is None:
                return True
            rows = [i for i in range(len(basis)) if T[i][entering] > 0]
            if not rows:
                return False
            pivot(min(rows, key=lambda i: (F(T[i][-1], T[i][entering]),
                                           basis[i])), entering)

    optimize(n + m)
    if T.pop()[-1]:
        return ohcp.LPResult(INFEASIBLE)
    for i in reversed(range(len(basis))):
        if basis[i] >= n:
            j = next((j for j in range(n) if T[i][j]), None)
            if j is None:
                del T[i], basis[i]
            else:
                pivot(i, j)
    for row in T:
        del row[n:-1]
    if not optimize(n):
        return ohcp.LPResult(UNBOUNDED)
    return tab.optimum()


def random_lp(r):
    """m <= 4 rows over n <= 6 columns, entries in -2..2, rhs of both signs;
    half plant columns c e_i (a crash column if row i keeps its sign and
    its scaled c is d), a third have a fractional rhs."""
    m, n = r.randint(1, 4), r.randint(1, 6)
    rows = [[r.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    if r.random() < 0.5:
        for j in r.sample(range(n), r.randint(1, n)):
            i = r.randrange(m)
            for k in range(m):
                rows[k][j] = 0
            rows[i][j] = r.choice([1, 1, 2, -1])
    den = r.choice([1, 1, 2, 3, 4, 6])
    rhs = [F(r.randint(-4, 4), den) for _ in range(m)]
    obj = [r.randint(-2, 2) for _ in range(n)]
    return lp(obj, rows, rhs)


def assert_feasible(lp, res, integral=False):
    z = res.values[:len(lp.objective)]
    assert all(v >= 0 for v in z)
    for row, b in zip(lp.rows, lp.rhs):
        assert sum(a * v for a, v in zip(row, z)) == b
    assert res.objective == sum(c * v for c, v in zip(lp.objective, z))
    assert not integral or all(v.denominator == 1 for v in z)


def test_crash_start_matches_two_phase_reference(monkeypatch, deadline):
    # both roots warm-start the same branch and bound; every status and
    # objective, LP and ILP, must agree
    deadline(60)
    tableau, starts = ohcp._Tableau, []

    def recording(T, basis, d, cost_scale):
        starts.append(list(basis))
        return tableau(T, basis, d, cost_scale)

    r = random.Random(2525)
    seen = dict.fromkeys([OPTIMAL, INFEASIBLE, UNBOUNDED, "crash rows",
                          "no phase 1", "fractional rhs, no phase 1"], 0)
    for _ in range(2000):
        lp = random_lp(r)
        with monkeypatch.context() as mp:
            mp.setattr(ohcp, "_Tableau", recording)
            mp.setattr(ohcp, "bareiss_step", exact_bareiss_step)
            res = solve_lp_exact(lp)
        ref = two_phase_reference(lp)
        assert (res.status, res.objective) == (ref.status, ref.objective)
        seen[res.status] += 1
        if res.status == OPTIMAL:
            assert_feasible(lp, res)
        crash = [j < len(lp.objective) for j in starts[-1]]
        seen["crash rows"] += any(crash)
        seen["no phase 1"] += all(crash)
        seen["fractional rhs, no phase 1"] += all(crash) and any(
            b.denominator > 1 for b in lp.rhs)
        with monkeypatch.context() as mp:
            mp.setattr(ohcp, "solve_lp_exact", two_phase_reference)
            ref = solve_ilp(lp, budget=200)
        res = solve_ilp(lp, budget=200)
        assert (res.status, res.objective) == (ref.status, ref.objective)
        if res.status == OPTIMAL:
            assert_feasible(lp, res, integral=True)
    assert min(seen.values()) >= 50, seen


def core_cycle(k):
    """The oriented cycle 0 -> 1 -> ... -> k-1 -> 0."""
    return {canon((i, (i + 1) % k)): 1 if i + 1 < k else -1
            for i in range(k)}


def weighted_mobius(k):
    """The core cycle of mobius(k), rim edges at 1/10, core edges at 1."""
    cx = mobius(k)
    rim = {canon((i, (i + 2) % k)) for i in range(k)}
    weights = {e: F(1, 10) if e in rim else F(1) for e in cx.edges}
    return OHCPInstance(SimplicialComplex(cx.simplices, weights), 1,
                        core_cycle(k))


def weighted_annulus(k, seed):
    """The core cycle of annulus(k), each edge at a seeded weight a/b."""
    r = random.Random(seed)
    cx = annulus(k)
    weights = {e: F(r.randint(1, 9), r.randint(1, 4)) for e in cx.edges}
    return OHCPInstance(SimplicialComplex(cx.simplices, weights), 1,
                        core_cycle(k))


HALF_CHAIN = {(1, 2): F(1, 2), (1, 4): F(-1, 2), (2, 4): F(-1, 2)}


def test_crash_start_pivot_counts(monkeypatch):
    # the all-artificial two-phase start took 23, 29, 72 and 17 pivots here
    widths = []
    pivot = ohcp._Tableau.pivot

    def counting(tab, ri, cj):
        widths.append(len(tab.T[ri]))
        pivot(tab, ri, cj)

    monkeypatch.setattr(ohcp._Tableau, "pivot", counting)
    for inst, most, objective in (
            (weighted_mobius(7), 9, F(7, 20)),
            (weighted_mobius(9), 11, F(9, 20)),
            (weighted_annulus(10, 1), 32, F(73, 6)),
            # the rows scale by 2, and so does d
            (OHCPInstance(mobius(5), 1, HALF_CHAIN), 7, F(3, 2))):
        widths.clear()
        assert solve_ohcp_lp(inst).objective == objective
        assert 0 < len(widths) <= most
        # no phase 1: no pivot sees an artificial column
        assert set(widths) == {len(formulate(inst).objective) + 1}


def test_ohcp_lp_dual_cocycle_certifies_the_optimum():
    # max <u, c> over p-cocycles u with |u| <= w is the dual of the LP
    cx = mobius(5)
    for inst in (weighted_mobius(7), weighted_mobius(9),
                 weighted_annulus(10, 1), OHCPInstance(cx, 1, HALF_CHAIN),
                 OHCPInstance(cx, 2, {cx.p_simplices(2)[0]: -3}),
                 OHCPInstance(cx, 0, {(0,): 1, (3,): -1})):
        sol = solve_ohcp_lp(inst)
        u, w = sol.cocycle, inst.complex.weight
        assert u and all(type(v) is F and v for v in u.values())
        for t in inst.complex.p_simplices(inst.p + 1):
            assert sum(sign * u.get(f, 0)
                       for f, sign in boundary_of(t).items()) == 0
        assert all(abs(v) <= w(s) for s, v in u.items())
        assert sum(v * inst.chain.get(s, 0)
                   for s, v in u.items()) == sol.objective
        assert sol.to_json()["cocycle"] == [
            {"coeff": str(v), "simplex": list(s)}
            for s, v in sorted(u.items())]
        ilp = solve_ohcp_ilp(inst)
        assert ilp.cocycle == {} and ilp.to_json()["cocycle"] == []


def test_ohcp_rejects_tampered_dual_cocycle(monkeypatch):
    # one reduced cost off by 1 / D moves u off the cocycles
    optimum = ohcp._Tableau.optimum

    def tampered(tab):
        res = optimum(tab)
        tab.T[-1][0] -= 1
        return res

    with monkeypatch.context() as mp:
        mp.setattr(ohcp._Tableau, "optimum", tampered)
        with pytest.raises(InvalidArgument, match="dual certificate"):
            solve_ohcp_lp(weighted_mobius(7))
    # an objective off by 1/100 leaves x = c + dy and the cocycle intact,
    # but not <u, c> = objective
    solve = ohcp.solve_lp_exact

    def shifted(lp):
        res = solve(lp)
        res.objective += F(1, 100)
        return res

    monkeypatch.setattr(ohcp, "solve_lp_exact", shifted)
    with pytest.raises(InvalidArgument, match="dual certificate"):
        solve_ohcp_lp(weighted_mobius(7))


def test_negative_p_is_rejected():
    # once accepted, then reported as "p=0 out of range for dim 2"
    cx = annulus(3)
    with pytest.raises(InvalidArgument, match="p=-1 is negative"):
        OHCPInstance(complex=cx, p=-1, chain={})
    with pytest.raises(InvalidArgument, match="p=-1 is negative"):
        verify_homologous(cx, -1, {}, {})


# -- OHCP ---------------------------------------------------------------------

def test_ohcp_instance_validates_chain():
    with pytest.raises(InvalidArgument):
        OHCPInstance(complex=mobius(5), p=1, chain={(0, 9): 1})


def test_ohcp_null_homologous_input_costs_zero():
    # boundary of a triangle is homologous to the empty chain
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    sol = solve_ohcp_lp(OHCPInstance(
        complex=cx, p=1, chain={(0, 1): 1, (1, 2): 1, (0, 2): -1}))
    assert sol.status == OPTIMAL
    assert sol.objective == 0
    assert sol.chain == {}


def test_ohcp_certificate_identity():
    cx = annulus(4)
    chain = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1}  # inner rim
    sol = solve_ohcp_lp(OHCPInstance(complex=cx, p=1, chain=chain))
    assert sol.status == OPTIMAL
    diff = dict(sol.chain)
    for s, v in chain.items():
        diff[s] = diff.get(s, 0) - v
    diff = {s: v for s, v in diff.items() if v}
    assert diff == chain_boundary(sol.certificate)


def tamper_first_y(monkeypatch, cx, owner, name):
    """Make every result read through owner.name add 1 to y+ of the first
    triangle: one changed coefficient of y breaks x = c + dy."""
    first_y = 2 * len(cx.p_simplices(1))
    read = getattr(owner, name)

    def tampered(*args):
        res = read(*args)
        res.values[first_y] += 1
        return res

    monkeypatch.setattr(owner, name, tampered)


def test_ohcp_rejects_tampered_certificate(monkeypatch):
    cx = annulus(4)
    chain = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1}
    tamper_first_y(monkeypatch, cx, ohcp, "solve_lp_exact")
    with pytest.raises(InvalidArgument, match="certificate identity"):
        solve_ohcp_lp(OHCPInstance(complex=cx, p=1, chain=chain))


def test_ohcp_rejects_value_off_the_tableau_denominator(monkeypatch):
    # y+ of the first triangle is 0; 1 / 3d over the tableau's d would read
    # as 0 on integer numerators over d, so the denominator itself must fail
    cx = annulus(4)
    chain = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1}
    first_y = 2 * len(cx.p_simplices(1))
    solve = ohcp.solve_lp_exact

    def tampered(lp):
        res = solve(lp)
        assert res.values[first_y] == 0
        res.values[first_y] = F(1, 3 * res._tableau.d)
        return res

    monkeypatch.setattr(ohcp, "solve_lp_exact", tampered)
    with pytest.raises(InvalidArgument, match="certificate identity"):
        solve_ohcp_lp(OHCPInstance(complex=cx, p=1, chain=chain))


def fraction_extract(instance, lp, res):
    """_extract over Fractions: the slow reference of its integer check."""
    if res.values is None:
        return ohcp.LPSolution(status=res.status)
    v = res.values

    def difference(simplices, at):
        k = len(simplices)
        return {s: v[at + i] - v[at + k + i] for i, s in enumerate(simplices)
                if v[at + i] != v[at + k + i]}

    p_simplices, q_simplices = ohcp._layout(instance)
    chain = difference(p_simplices, 0)
    cert = difference(q_simplices, 2 * len(p_simplices))
    c = instance.chain
    moved = {s: d for s in chain.keys() | c.keys()
             if (d := chain.get(s, 0) - c.get(s, 0))}
    if moved != chain_boundary(cert):
        raise InvalidArgument("certificate identity x = c + dy failed")
    sol = ohcp.LPSolution(status=res.status, chain=chain,
                          objective=res.objective, certificate=cert)
    tab = res._tableau
    if tab is None:     # an ILP optimum
        return sol
    D = tab.d * tab.cost_scale
    w = ohcp._integral(lp.objective[:len(p_simplices)], D)
    u = {s: ws - r for s, ws, r in zip(p_simplices, w, tab.T[-1])}
    if (any(sum(sign * u[f] for f, sign in boundary_of(t).items())
            for t in q_simplices)
            or any(abs(u[s]) > ws for s, ws in zip(p_simplices, w))
            or sum(u[s] * v for s, v in c.items()) != res.objective * D):
        raise InvalidArgument("dual certificate u failed: not a cocycle, "
                              "past a weight or off the objective")
    sol.cocycle = {s: F(v, D) for s, v in u.items() if v}
    return sol


def solution_types(sol):
    return (sol.status, type(sol.objective),
            [{s: type(v) for s, v in ch.items()}
             for ch in (sol.chain, sol.certificate, sol.cocycle)])


def test_extract_matches_fraction_reference(deadline):
    # LP and ILP answers on weighted annuli, Moebius bands and random
    # complexes, integral and half-integral chains: every LPSolution field
    # and the type of every value agree with the Fraction reference
    deadline(30)
    r = random.Random(3131)
    cases = [weighted_mobius(7), weighted_mobius(9), mobius_ohcp_instance(),
             OHCPInstance(mobius(5), 1, HALF_CHAIN)]
    cases += [weighted_annulus(k, seed) for k in (6, 8, 10) for seed in (1, 2)]
    while len(cases) < 60:
        cx = random_complex(r, n_vertices=6, max_dim=3, n_generators=5)
        p = r.randrange(cx.dim + 1)
        ps = cx.p_simplices(p)
        chain = {s: r.choice([-2, -1, 1, 2, F(1, 2), F(-3, 2)])
                 for s in r.sample(ps, min(3, len(ps)))}
        cx = SimplicialComplex(cx.simplices, {
            s: F(r.randint(0, 6), r.randint(1, 3)) for s in ps})
        cases.append(OHCPInstance(cx, p, chain))
    seen = set()
    for inst in cases:
        lp = formulate(inst)
        for res in (solve_lp_exact(lp), solve_ilp(lp, budget=200)):
            sol = ohcp._extract(inst, lp, res)
            ref = fraction_extract(inst, lp, res)
            assert sol == ref
            assert solution_types(sol) == solution_types(ref)
            seen.add((res._tableau is None, sol.status, bool(sol.chain),
                      bool(sol.certificate), bool(sol.cocycle)))
    assert {(False, OPTIMAL, True, True, True), (True, OPTIMAL, True, True,
            False), (True, INFEASIBLE, False, False, False)} <= seen, seen


def test_ohcp_checks_budget_exceeded_incumbent(monkeypatch):
    # two node solves leave the weighted Moebius band's branch and bound
    # with an integral incumbent and nodes still to solve; the root and every
    # warm-started node read their values off the final tableau
    inst = mobius_ohcp_instance()
    sol = solve_ohcp_ilp(inst, budget=2)
    assert sol.status == BUDGET_EXCEEDED and sol.chain
    tamper_first_y(monkeypatch, inst.complex, ohcp._Tableau, "optimum")
    with pytest.raises(InvalidArgument, match="certificate identity"):
        solve_ohcp_ilp(inst, budget=2)


def test_ilp_fractional_chain_is_infeasible_at_once():
    # integral x and y make c = x - dy integral; the LP still has an optimum
    inst = OHCPInstance(complex=mobius(5), p=1,
                        chain={(1, 2): F(1, 2), (1, 4): F(-1, 2),
                               (2, 4): F(-1, 2)})
    start = time.perf_counter()
    assert solve_ohcp_ilp(inst).status == INFEASIBLE
    assert time.perf_counter() - start < 1.0
    assert solve_ohcp_lp(inst).status == OPTIMAL


def test_chain_keys_must_be_canonical():
    # (1, 0) names the edge (0, 1), but chains are read by canonical key
    cx = mobius(5)
    with pytest.raises(InvalidArgument):
        OHCPInstance(complex=cx, p=1, chain={(1, 0): 1})
    for c, x in (({(1, 0): 1}, {}), ({}, {(1, 0): 1})):
        with pytest.raises(InvalidArgument):
            verify_homologous(cx, 1, c, x)


def test_ohcp_respects_weights():
    # two homologous rims; make the input rim expensive
    cx = annulus(3)
    inner = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    weights = {e: (F(10) if e in inner else F(1)) for e in cx.edges}
    cx = SimplicialComplex(cx.simplices, weights)
    sol = solve_ohcp_lp(OHCPInstance(complex=cx, p=1, chain=inner))
    assert sol.status == OPTIMAL
    assert set(sol.chain) == {(3, 4), (4, 5), (3, 5)}


def test_ohcp_top_dimension_chain_has_no_certificate():
    cx = mobius(5)
    tri = cx.p_simplices(2)[0]
    sol = solve_ohcp_lp(OHCPInstance(complex=cx, p=2, chain={tri: 1}))
    assert sol.status == OPTIMAL
    assert sol.chain == {tri: 1}
    assert sol.certificate == {}


def test_ohcp_lp_equals_ilp_on_tu_complexes(rng, deadline):
    deadline(10)     # about 0.02 s here
    done = 0
    while done < 25:
        cx = random_complex(rng, n_vertices=6, max_dim=2, n_generators=4)
        if cx.dim < 2 or not cx.edges:
            continue
        if not is_totally_unimodular(boundary_matrix(cx, 2)).status:
            continue
        chain = {e: rng.choice([-1, 1]) for e in cx.edges
                 if rng.random() < 0.4}
        if not chain:
            continue
        inst = OHCPInstance(complex=cx, p=1, chain=chain)
        assert solve_ohcp_lp(inst).objective == solve_ohcp_ilp(inst).objective
        done += 1


def test_ohcp_ilp_budget_status():
    cx = mobius(5)
    sol = solve_ohcp_ilp(OHCPInstance(complex=cx, p=1, chain={(0, 2): 1}),
                         budget=1)
    assert sol.status in (BUDGET_EXCEEDED, OPTIMAL)


# -- homologousness verification ---------------------------------------------

def test_verify_homologous_rational_positive():
    cx = annulus(3)
    inner = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    outer = {(3, 4): 1, (4, 5): 1, (3, 5): -1}
    ok, cert = verify_homologous(cx, 1, inner, outer)
    assert ok
    diff = {s: outer.get(s, 0) - inner.get(s, 0)
            for s in set(inner) | set(outer)}
    diff = {s: v for s, v in diff.items() if v}
    assert chain_boundary(cert) == diff


def test_verify_homologous_negative():
    cx = annulus(3)
    inner = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    ok, cert = verify_homologous(cx, 1, inner, {})
    assert not ok and cert is None


def test_verify_homologous_integer_vs_rational():
    # a 2-torsion cycle in the projective plane: rationally null-homologous
    # (the double is a boundary), integrally not
    rp2 = SimplicialComplex.from_maximal([
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4)])
    torsion_cycle = {(0, 1): 1, (1, 3): 1, (0, 3): -1}
    ok_rat, cert = verify_homologous(rp2, 1, {}, torsion_cycle, "rational")
    ok_int, _ = verify_homologous(rp2, 1, {}, torsion_cycle, "integer")
    assert ok_rat and not ok_int
    assert chain_boundary(cert) == torsion_cycle
    # reflexivity with an integer certificate
    ok, cert = verify_homologous(rp2, 1, torsion_cycle, torsion_cycle,
                                 "integer")
    assert ok and cert == {}


def test_verify_homologous_rejects_bad_mode():
    cx = annulus(3)
    with pytest.raises(InvalidArgument):
        verify_homologous(cx, 1, {}, {}, "real")


def test_verify_homologous_fractional_diff_never_integer():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    ok, cert = verify_homologous(cx, 1, {}, {(0, 1): F(1, 2)}, "integer")
    assert not ok


def test_verify_homologous_matches_rank_and_invariant_factor_tests():
    # x = c + dy0, y0 sometimes halved, x sometimes shifted by 1 or 1/2 on
    # one simplex.  Rationally, B y = d is solvable iff rank B = rank [B | d];
    # integrally, iff d is integral and B and [B | d] have the same nonzero
    # invariant factors.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def factors(M):
        return [f for f in invariant_factors(M, domain=sympy.ZZ) if f]

    r = random.Random(4242)
    seen = set()
    for _ in range(40):
        cx = random_complex(r, n_vertices=7, max_dim=3, n_generators=5)
        for p in range(cx.dim):
            ps, qs = cx.p_simplices(p), cx.p_simplices(p + 1)
            c = {s: r.choice([-2, -1, 1, 2])
                 for s in r.sample(ps, min(3, len(ps)))}
            scale = r.choice([1, 1, F(1, 2)])
            y0 = {t: scale * r.randint(-2, 2) for t in qs}
            x = dict(c)
            for s, v in chain_boundary(y0).items():
                x[s] = x.get(s, 0) + v
            shift = r.choice([0, 0, 1, F(1, 2)])
            shifted = r.choice(ps)
            x[shifted] = x.get(shifted, 0) + shift
            x = {s: v for s, v in x.items() if v}
            diff = {s: F(x.get(s, 0) - c.get(s, 0)) for s in ps}
            B = sympy.Matrix(len(ps), len(qs), lambda i, j:
                             boundary_of(qs[j]).get(ps[i], 0))
            Bd = B.row_join(sympy.Matrix(
                [sympy.Rational(v.numerator, v.denominator)
                 for v in diff.values()]))
            expect = {"rational": B.rank() == Bd.rank(),
                      "integer": all(v.denominator == 1
                                     for v in diff.values())
                      and factors(B) == factors(Bd)}
            if shift == 0:
                assert expect["rational"] and (expect["integer"]
                                               or scale != 1)
            seen.add(tuple(expect.values()))
            for mode, ref in expect.items():
                ok, y = verify_homologous(cx, p, c, x, mode)
                assert ok is ref, (mode, p, sorted(cx.simplices))
                if not ok:
                    assert y is None
                    continue
                assert chain_boundary(y) == {s: v for s, v in diff.items()
                                             if v}
                kinds = {int} if mode == "integer" else {int, Fraction}
                assert all(type(v) in kinds for v in y.values())
    # every (rational, integer) outcome but the impossible (False, True)
    assert seen == {(True, True), (True, False), (False, False)}
