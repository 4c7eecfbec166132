import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plink import ohcp
from plink.complexes import (InvalidArgument, SimplicialComplex, boundary_of,
                             chain_boundary)
from plink.fixtures import (annulus, cone, mobius, mobius_ohcp_instance,
                            random_complex)
from plink.homology import boundary_matrix
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
def small_lps(draw, entries=st.integers(-3, 3), values=st.integers(-3, 3)):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rows = [[F(draw(entries)) for _ in range(n)] for _ in range(m)]
    rhs = [F(draw(values)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):     # a redundant last row
        k = draw(st.integers(-2, 2))
        rows[-1] = [a + k * b for a, b in zip(rows[0], rows[-2])]
        rhs[-1] = rhs[0] + k * rhs[-2]
    obj = [F(draw(st.integers(-3, 3))) for _ in range(n)]
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
@given(small_lps(entries=st.integers(1, 3), values=st.integers(0, 6)))
def test_ilp_matches_brute_force(case):
    # the first row is positive with rhs >= 0, so it bounds every variable
    # and the integer points form a finite box
    obj, rows, rhs = case
    box = itertools.product(*(range(int(rhs[0] // a) + 1) for a in rows[0]))
    costs = [sum(c * v for c, v in zip(obj, z)) for z in box
             if all(sum(a * v for a, v in zip(row, z)) == b
                    for row, b in zip(rows, rhs))]
    res = solve_ilp(lp(obj, rows, rhs))
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
    res = solve_ilp(lp([1, 1], [[2, 2]], [3]), budget=1)
    assert res.status == BUDGET_EXCEEDED


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


def tamper_first_y(monkeypatch, cx):
    """Make every LP solve add 1 to y+ of the first triangle: one changed
    coefficient of y breaks x = c + dy."""
    first_y = 2 * len(cx.p_simplices(1))
    solve = ohcp.solve_lp_exact

    def tampered(lp):
        res = solve(lp)
        res.values[first_y] += 1
        return res

    monkeypatch.setattr(ohcp, "solve_lp_exact", tampered)


def test_ohcp_rejects_tampered_certificate(monkeypatch):
    cx = annulus(4)
    chain = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1}
    tamper_first_y(monkeypatch, cx)
    with pytest.raises(InvalidArgument, match="certificate identity"):
        solve_ohcp_lp(OHCPInstance(complex=cx, p=1, chain=chain))


def test_ohcp_checks_budget_exceeded_incumbent(monkeypatch):
    # two LP solves leave the weighted Moebius band's branch and bound
    # with an integral incumbent and nodes still to solve
    inst = mobius_ohcp_instance()
    sol = solve_ohcp_ilp(inst, budget=2)
    assert sol.status == BUDGET_EXCEEDED and sol.chain
    tamper_first_y(monkeypatch, inst.complex)
    with pytest.raises(InvalidArgument, match="certificate identity"):
        solve_ohcp_ilp(inst, budget=2)


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


def test_ohcp_lp_equals_ilp_on_tu_complexes(rng):
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
