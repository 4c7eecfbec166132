import itertools
import random

import pytest
from hypothesis import given, strategies as st

from plink.complexes import (MIRROR, InvalidArgument, SimplicialComplex,
                             contract_edge)
from plink.fixtures import (FIXTURE_NAMES, FIXTURES, annulus, cone,
                            fig_plink_right, generate, mobius,
                            punctured_mobius, random_complex)
from plink.homology import Verdict, _Budget, _Spent, boundary_matrix
from plink.tugraph import (B_EVEN, B_ODD, CircuitDomainError, IncidenceGraph,
                           PreconditionError, _tu_by_circuit_search,
                           _tu_by_signed_colouring, _tu_core, b_parity,
                           build_p_graph, check_circuit,
                           construct_preimage_circuit, det_int,
                           enumerate_chordless_cycles, is_totally_unimodular,
                           map_circuit_f)
from cycle_space import enumerate_circuits

sign_matrix_st = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def brute_tu(entries):
    """Reference TU decision by enumerating every square submatrix."""
    m, n = len(entries), len(entries[0])
    for k in range(1, min(m, n) + 1):
        for ri in itertools.combinations(range(m), k):
            for cj in itertools.combinations(range(n), k):
                d = det_int([[entries[i][j] for j in cj] for i in ri])
                if abs(d) >= 2:
                    return False
    return True


def brute_chordless_cycles(graph):
    """All induced cycles by checking every vertex subset (tiny graphs only)."""
    verts = graph.vertices
    out = set()
    for r in range(3, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            sset = set(sub)
            degs = {v: len(graph.adj[v] & sset) for v in sub}
            if all(d == 2 for d in degs.values()):
                # connected check
                seen = {sub[0]}
                stack = [sub[0]]
                while stack:
                    v = stack.pop()
                    for w in graph.adj[v] & sset:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if seen == sset:
                    edges = frozenset(
                        e for e in graph.weights
                        if e[0] in sset and e[1] in sset)
                    out.add(edges)
    return out


def complete_graph(n):
    return SimplicialComplex.from_maximal(
        list(itertools.combinations(range(n), 2)))


# -- incidence graphs ---------------------------------------------------------

def test_from_matrix_builds_edges():
    g = IncidenceGraph.from_matrix([[1, -1], [0, 1]])
    assert g.weights == {(("r", 0), ("c", 0)): 1, (("r", 0), ("c", 1)): -1,
                         (("r", 1), ("c", 1)): 1}


def test_from_matrix_rejects_big_entries():
    with pytest.raises(InvalidArgument):
        IncidenceGraph.from_matrix([[2]])


def test_build_p_graph_labels_are_simplices():
    g = build_p_graph(mobius(5), 2)
    assert all(len(r) == 2 for r in g.rows)
    assert all(len(c) == 3 for c in g.cols)
    # each triangle dual has degree 3
    for c in g.cols:
        assert len(g.adj[c]) == 3


# -- circuits and b-parity ----------------------------------------------------

def test_b_parity_rejects_odd_degree():
    g = IncidenceGraph.from_matrix([[1, 1], [1, 1]])
    with pytest.raises(InvalidArgument):
        b_parity(g, frozenset({(("r", 0), ("c", 0))}))


def test_b_parity_square():
    g = IncidenceGraph.from_matrix([[1, 1], [1, 1]])
    cyc = frozenset(g.weights)
    assert b_parity(g, cyc) == B_EVEN
    g2 = IncidenceGraph.from_matrix([[1, 1], [-1, 1]])
    assert b_parity(g2, frozenset(g2.weights)) == B_ODD


@given(st.integers(0, 5000))
def test_chordless_cycles_match_brute_force(seed):
    r = random.Random(seed)
    m, n = r.randint(1, 4), r.randint(1, 4)
    entries = [[r.choice([-1, 0, 1]) for _ in range(n)] for _ in range(m)]
    g = IncidenceGraph.from_matrix(entries)
    got = set(enumerate_chordless_cycles(g))
    assert got == brute_chordless_cycles(g)


def test_chordless_cycles_budget_yields_none():
    g = build_p_graph(mobius(7), 2)
    out = list(enumerate_chordless_cycles(g, budget=5))
    assert out and out[-1] is None


@pytest.mark.parametrize("budget", [5, 500])
def test_chordless_cycles_budget_yields_none_once(budget):
    # every open recursion level and start edge once yielded None again
    g = build_p_graph(annulus(6), 2)
    spent = _Budget(budget)
    out = list(enumerate_chordless_cycles(g, budget=spent))
    assert out.count(None) == 1 and out[-1] is None
    assert spent.used == budget
    assert len(out) == (1 if budget == 5 else 2)


def test_chordless_cycles_every_budget_gives_a_prefix():
    # a budget short of the whole search ends in one None after a prefix of
    # the cycles; any larger budget gives them all, with no None
    for cx, p in ((complete_graph(4), 1), (annulus(3), 2), (mobius(5), 2),
                  (fig_plink_right(), 2)):
        g = build_p_graph(cx, p)
        spent = _Budget()
        cycles = list(enumerate_chordless_cycles(g, budget=spent))
        total = spent.used
        for budget in range(total + 2):
            out = list(enumerate_chordless_cycles(g, budget=budget))
            if budget < total:
                assert out.count(None) == 1 and out[-1] is None
                assert out[:-1] == cycles[:len(out) - 1]
            else:
                assert out == cycles


def test_enumerate_circuits_cycle_space_size():
    # complete bipartite 2x2 grid: cycle space dimension = e - v + comps
    g = IncidenceGraph.from_matrix([[1, 1], [1, 1]])
    circs = list(enumerate_circuits(g))
    assert len(circs) == 1
    g = IncidenceGraph.from_matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    circs = list(enumerate_circuits(g))
    # e=7, v=6, connected -> dim 2 -> 3 nonempty combinations
    assert len(circs) == 3
    for c in circs:
        b_parity(g, c)  # every element of the cycle space is a circuit


@given(sign_matrix_st)
def test_b_parity_is_even_or_odd(entries):
    # a bipartite circuit has an even number of +-1 weights: 0 or 2 mod 4
    g = IncidenceGraph.from_matrix(entries)
    for c in itertools.islice(enumerate_circuits(g), 50):
        total = sum(g.weights[e] for e in c) % 4
        assert total in (0, 2)
        assert b_parity(g, c) == (B_EVEN if total == 0 else B_ODD)


def test_circuit_strategy_states():
    assert is_totally_unimodular(
        boundary_matrix(annulus(3), 2)).status is True
    v = is_totally_unimodular(boundary_matrix(mobius(5), 2))
    assert v.status is False
    weights = build_p_graph(mobius(5), 2).weights
    assert sum(weights[e] for e in v.witness) % 4 == 2
    v = is_totally_unimodular(boundary_matrix(mobius(5), 2), budget=2)
    assert v.status is None
    assert v.budget_used == 2


# -- determinants and TU ------------------------------------------------------

@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_int_matches_cofactor_expansion(a):
    def cof(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j]
                   * cof([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)))
    assert det_int(a) == cof(a)


@given(sign_matrix_st)
def test_tu_strategies_agree_with_brute_force(entries):
    ref = brute_tu(entries)
    det_v = is_totally_unimodular(entries, strategy="determinant")
    cir_v = is_totally_unimodular(entries, strategy="circuit")
    assert det_v.status is ref
    assert cir_v.status is ref


def test_tu_false_comes_with_witness():
    bm = boundary_matrix(mobius(5), 2)
    v = is_totally_unimodular(bm, strategy="determinant")
    assert v.status is False
    sub = [[bm.entry(r, c) for c in v.witness["cols"]]
           for r in v.witness["rows"]]
    assert abs(det_int(sub)) >= 2
    v2 = is_totally_unimodular(bm, strategy="circuit")
    assert v2.status is False
    g = build_p_graph(mobius(5), 2)
    assert b_parity(g, v2.witness) == B_ODD


@given(sign_matrix_st)
def test_tu_budget_only_makes_verdicts_inconclusive(entries):
    for strategy in ("circuit", "determinant"):
        unbounded = is_totally_unimodular(entries, strategy=strategy).status
        for budget in range(21):
            v = is_totally_unimodular(entries, strategy=strategy,
                                      budget=budget)
            assert v.status is None or v.status is unbounded
            assert v.budget_used is None or v.budget_used <= budget


def test_tu_determinant_honours_budget():
    v = is_totally_unimodular(boundary_matrix(mobius(9), 2),
                              strategy="determinant", budget=10)
    assert v.status is None
    assert v.budget_used == 10
    assert v.mode == "determinant"


def test_tu_inconclusive_budget():
    v = is_totally_unimodular(boundary_matrix(mobius(7), 2),
                              strategy="circuit", budget=3)
    assert v.status is None
    with pytest.raises(ValueError):
        bool(v)


def test_tu_rejects_unknown_strategy():
    with pytest.raises(InvalidArgument):
        is_totally_unimodular([[1]], strategy="magic")


def test_tu_rejects_ragged_matrix():
    # read as the 2 x 1 matrix [[1], [1]], this once came out TU
    for strategy in ("circuit", "determinant"):
        with pytest.raises(InvalidArgument):
            is_totally_unimodular([[1], [1, -1]], strategy=strategy)


def test_tu_non_sign_entry_short_circuit():
    v = is_totally_unimodular([[3]], strategy="circuit")
    assert v.status is False
    assert v.witness["det"] == 3


# -- two nonzeros per line: the signed colouring ------------------------------

def chordless_circuit(entries, rows, cols, circuit):
    """Whether the (row, col) label pairs form one cycle of nonzero entries
    with no other nonzero entry joining two of its rows and columns."""
    r_index = {r: i for i, r in enumerate(rows)}
    c_index = {c: j for j, c in enumerate(cols)}
    cells = {(r_index[r], c_index[c]) for r, c in circuit}
    if not cells or any(entries[i][j] == 0 for i, j in cells):
        return False
    adj = {}
    for i, j in cells:
        adj.setdefault(("r", i), []).append(("c", j))
        adj.setdefault(("c", j), []).append(("r", i))
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(adj):
        return False
    on_rows = {i for i, _ in cells}
    on_cols = {j for _, j in cells}
    return all((i, j) in cells for i in on_rows for j in on_cols
               if entries[i][j])


def graph_of(rows, cols, entries):
    return IncidenceGraph(rows=rows, cols=cols, weights={
        (r, c): entries[i][j] for i, r in enumerate(rows)
        for j, c in enumerate(cols) if entries[i][j]})


def check_witness(entries, rows, cols, verdict):
    graph = graph_of(rows, cols, entries)
    check_circuit(graph, verdict.witness)
    assert b_parity(graph, verdict.witness) == B_ODD
    assert chordless_circuit(entries, rows, cols, verdict.witness)


def core_of(rows, cols, entries):
    """(rows, cols, entries) of the submatrix _tu_core keeps."""
    ri, cj = _tu_core(entries)
    return (tuple(rows[i] for i in ri), tuple(cols[j] for j in cj),
            [[entries[i][j] for j in cj] for i in ri])


def on_core(core, budget):
    """The signed colouring of a core, else its circuit search, on one
    budget; a spent budget gives an inconclusive verdict."""
    try:
        verdict = _tu_by_signed_colouring(*core, budget)
        if verdict is None:
            verdict = _tu_by_circuit_search(graph_of(*core), budget)
        return verdict
    except _Spent:
        return Verdict(None, "circuit", budget_used=budget.used)


def differential(matrix, det_budget=2000):
    """Compare is_totally_unimodular with the signed colouring, with the
    circuit search on the whole matrix (the reference status), with the
    colouring or search on its core, and (where it is conclusive) with the
    determinant strategy; returns whether the matrix has the two-per-line
    shape."""
    if isinstance(matrix, list):
        rows = tuple(("r", i) for i in range(len(matrix)))
        cols = tuple(("c", j) for j in range(len(matrix[0])))
        entries = matrix
    else:
        rows, cols, entries = matrix.rows, matrix.cols, matrix.entries
    fast = _tu_by_signed_colouring(rows, cols, entries, _Budget())
    search = _tu_by_circuit_search(IncidenceGraph.from_matrix(matrix),
                                   _Budget())
    verdict = is_totally_unimodular(matrix)
    assert verdict.status is search.status
    if fast is None:
        assert verdict == on_core(core_of(rows, cols, entries), _Budget())
    else:
        assert verdict == fast
    for v in (fast, search, verdict):
        if v is not None and v.status is False:
            check_witness(entries, rows, cols, v)
    det = is_totally_unimodular(matrix, strategy="determinant",
                                budget=det_budget)
    if det.status is not None:
        assert det.status is search.status
    return fast is not None


def test_signed_colouring_matches_search_on_fixture_families():
    sized = {"mobius": (5, 7, 9), "mobius-boundary": (5, 9),
             "punctured-mobius": (9, 15), "annulus": (3, 4, 6),
             "cone": (3, 4, 6)}
    in_shape = verdicts = 0
    for name in FIXTURE_NAMES:
        size = FIXTURES[name][1]
        for value in sized.get(name, (None,)):
            cx = generate(name, **({size: value} if size else {}))
            for p in (1, 2):
                if p <= cx.dim:
                    bm = boundary_matrix(cx, p)
                    in_shape += differential(bm)
                    verdicts += 1
    # only fig_plink_right's d_2 falls through: its edge ab has three
    # cofaces, and each of its triangles three edges
    assert verdicts == 30 and in_shape == 29


@pytest.mark.parametrize("n", range(3, 10))
def test_signed_colouring_matches_search_on_complete_graphs(n):
    bm = boundary_matrix(complete_graph(n), 1)
    assert differential(bm)
    assert is_totally_unimodular(bm).budget_used == n * (n - 1) // 2


def test_signed_colouring_matches_search_on_random_complexes():
    rng = random.Random(13)
    shapes = {True: 0, False: 0}
    for _ in range(120):
        cx = random_complex(rng, n_vertices=rng.randint(4, 7), max_dim=3,
                            n_generators=rng.randint(2, 5))
        for p in (1, 2):
            if p <= cx.dim:
                bm = boundary_matrix(cx, p)
                shapes[differential(bm)] += 1
    assert shapes[True] >= 150 and shapes[False] >= 30


@st.composite
def two_per_column(draw, max_rows=5, max_cols=6):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    columns = []
    for _ in range(n):
        column = [0] * m
        for i in draw(st.lists(st.integers(0, m - 1), max_size=2,
                               unique=True)):
            column[i] = draw(st.sampled_from([-1, 1]))
        columns.append(column)
    return [list(row) for row in zip(*columns)]


@given(two_per_column())
def test_signed_colouring_matches_search_two_per_column(entries):
    assert differential(entries, det_budget=None)


@given(two_per_column())
def test_signed_colouring_matches_search_two_per_row(entries):
    transposed = [list(column) for column in zip(*entries)]
    assert differential(transposed, det_budget=None)


def test_dense_matrix_reaches_the_search_on_its_core():
    # every column and some row of this 2-complex's d_2 hold three nonzeros
    rng = random.Random(7)
    triangles = list(itertools.combinations(range(7), 3))
    whole = reduced = 0
    for _ in range(10):
        cx = SimplicialComplex.from_maximal(rng.sample(triangles, 14))
        bm = boundary_matrix(cx, 2)
        assert _tu_by_signed_colouring(bm.rows, bm.cols, bm.entries,
                                       _Budget()) is None
        reference = _tu_by_circuit_search(build_p_graph(cx, 2), _Budget())
        core = core_of(bm.rows, bm.cols, bm.entries)
        for budget in (None, 50):
            v = is_totally_unimodular(bm, budget=budget)
            assert v == on_core(core, _Budget(budget))
            assert v.status in (None, reference.status)
        if v.status is False:
            check_witness(bm.entries, bm.rows, bm.cols, v)
        whole += reference.budget_used
        reduced += v.budget_used
    assert reduced * 5 < whole


@given(sign_matrix_st)
def test_core_keeps_tu_and_leaves_no_reducible_line(entries):
    ri, cj = _tu_core(entries)
    core = [[entries[i][j] for j in cj] for i in ri]
    assert brute_tu(entries) is (not core or brute_tu(core))
    for lines in (core, [list(c) for c in zip(*core)]):
        keys = set()
        for line in lines:
            assert sum(map(bool, line)) >= 2
            keys |= {tuple(line), tuple(-v for v in line)}
        assert len(keys) == 2 * len(lines)


def test_balanced_matrix_that_is_not_tu():
    # rows 1, 3, 4, 5 and columns 0, 2, 3, 5 form an Eulerian submatrix of
    # determinant -2, but the graph has no chordless b-odd circuit
    entries = [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0],
               [1, 0, 1, 1, 0, 1], [1, 0, 1, 0, 0, 0], [-1, 0, 0, -1, 0, 0]]
    graph = IncidenceGraph.from_matrix(entries)
    assert _tu_by_circuit_search(graph, _Budget()).status is True
    v = is_totally_unimodular(entries)
    assert (v.status, v.mode) == (False, "circuit")
    sub = [[entries[r[1]][c[1]] for c in v.witness["cols"]]
           for r in v.witness["rows"]]
    assert det_int(sub) == v.witness["det"] and abs(v.witness["det"]) >= 2
    assert is_totally_unimodular(entries, budget=v.budget_used) == v


def test_balanced_core_beyond_order_8_is_inconclusive():
    # interval matrices are TU, and only their determinants show it
    def interval(n):
        return [[int(i <= j < i + 3) for j in range(n)] for i in range(n)]
    assert is_totally_unimodular(interval(7)).status is True
    v = is_totally_unimodular(interval(12))
    assert v.status is None and v.mode == "circuit"


def test_circuit_strategy_matches_brute_force_up_to_7x7():
    # this seeded sweep holds a balanced matrix that is not TU
    rng = random.Random(1)
    for _ in range(3000):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        zero = rng.choice([0.4, 0.5, 0.6, 0.7])
        entries = [[0 if rng.random() < zero else rng.choice((1, -1))
                    for _ in range(n)] for _ in range(m)]
        assert is_totally_unimodular(entries).status is brute_tu(entries)


def test_budget_used_is_the_exact_work_of_every_verdict():
    # (matrix, takes the signed colouring, TU)
    cases = [(boundary_matrix(complete_graph(6), 1), True, True),
             (boundary_matrix(mobius(7), 2), True, False),
             (boundary_matrix(fig_plink_right(), 2), False, True),
             # a third triangle on the Moebius band's interior edge 01
             (boundary_matrix(SimplicialComplex.from_maximal(
                 mobius(5).p_simplices(2) + [(0, 1, 5)]), 2), False, False)]
    for bm, colouring, tu in cases:
        fast = _tu_by_signed_colouring(bm.rows, bm.cols, bm.entries,
                                       _Budget())
        assert (fast is not None) is colouring
        v = is_totally_unimodular(bm)
        assert v.status is tu and v.budget_used > 0
        assert is_totally_unimodular(bm, budget=v.budget_used) == v
        short = is_totally_unimodular(bm, budget=v.budget_used - 1)
        assert short.status is None
        assert short.budget_used == v.budget_used - 1


def test_tu_rejects_negative_budget():
    for strategy in ("circuit", "determinant"):
        for matrix in ([[1]], boundary_matrix(mobius(5), 2)):
            with pytest.raises(InvalidArgument, match="negative"):
                is_totally_unimodular(matrix, strategy=strategy, budget=-1)


# -- circuit transport --------------------------------------------------------

def b_side_mirrors_over(ct, circuit):
    """b-side mirror (p+1)-simplices with a preimage edge over the circuit."""
    p = len(next(iter(circuit))[0]) - 1
    out = set()
    for sigma in ct.source.p_simplices(p + 1):
        if ct.fate(sigma) != MIRROR or ct.b not in sigma:
            continue
        for tau in itertools.combinations(sigma, p + 1):
            if (ct.image(tau), ct.image(sigma)) in circuit:
                out.add(sigma)
    return out


def round_trips(ct, p, circuits):
    """Transport each target circuit back and forth; returns how many round
    trips kept the circuit and its b-parity, and how many target circuits
    lie over a b-side mirror (p+1)-simplex."""
    gs = build_p_graph(ct.source, p + 1)
    gt = build_p_graph(ct.target, p + 1)
    trips = over_b_side = 0
    for circuit in circuits:
        pre = construct_preimage_circuit(ct, circuit)
        assert map_circuit_f(ct, pre) == circuit
        assert b_parity(gs, pre) == b_parity(gt, circuit)
        # the preimage takes the a side of every mirror pair
        assert not any(ct.fate(sigma) == MIRROR
                       and ct.b in sigma for (_, sigma) in pre)
        trips += 1
        over_b_side += bool(b_side_mirrors_over(ct, circuit))
    return trips, over_b_side


def transport_cases():
    """1-link-gated contractions of 2-complexes and of seeded 3-complexes."""
    complexes = [annulus(4), mobius(7), fig_plink_right(), punctured_mobius(15)]
    for seed in range(30):
        rng = random.Random(seed)
        complexes.append(random_complex(rng, n_vertices=rng.randint(5, 9),
                                        max_dim=3))
    for cx in complexes:
        for e in sorted(cx.edges):
            if not cx.satisfies_p_link(e, 1):
                continue
            ct = contract_edge(cx, e)
            if ct.target.dim < 2:
                continue
            yield ct


def test_map_circuit_round_trip_and_parity():
    trips = over_b_side = 0
    for ct in transport_cases():
        gt = build_p_graph(ct.target, 2)
        circuits = set(itertools.islice(enumerate_circuits(gt), 12))
        circuits |= {c for c in enumerate_chordless_cycles(gt, budget=5000)
                     if c is not None}
        t, o = round_trips(ct, 1, circuits)
        trips += t
        over_b_side += o
    assert trips >= 1000 and over_b_side >= 100


def test_preimage_takes_a_side_of_mirror_tetrahedron():
    # contracting (0, 3) folds the b-side triangle 134 onto 014
    cx = SimplicialComplex.from_maximal([(0, 1, 3, 4), (0, 1, 5), (0, 4, 5)])
    ct = contract_edge(cx, (0, 3))
    assert cx.satisfies_p_link((0, 3), 1) and ct.b == 3
    circuits = list(enumerate_chordless_cycles(build_p_graph(ct.target, 2)))
    assert any(b_side_mirrors_over(ct, c) == {(1, 3, 4)} for c in circuits)
    trips, over_b_side = round_trips(ct, 1, circuits)
    assert trips >= 1 and over_b_side >= 1


def test_transport_round_trips_at_p2():
    # the suspension of a Moebius band: G_3 has b-odd and b-even circuits
    band = mobius(5)
    cx = SimplicialComplex.from_maximal(
        [t + (apex,) for t in band.p_simplices(2) for apex in (5, 6)])
    trips = 0
    parities = set()
    for e in sorted(cx.edges):
        if not cx.satisfies_p_link(e, 2):
            continue
        ct = contract_edge(cx, e)
        gt = build_p_graph(ct.target, 3)
        circuits = list(enumerate_chordless_cycles(gt))
        parities |= {b_parity(gt, c) for c in circuits}
        trips += round_trips(ct, 2, circuits)[0]
    assert trips >= 100 and parities == {B_EVEN, B_ODD}


def test_map_circuit_rejects_collapsing_vertex():
    cx = mobius(7)
    e = (0, 1)
    ct = contract_edge(cx, e)
    g = build_p_graph(cx, 2)
    # find a chordless cycle through the collapsing triangle (0, 1, 2)
    for cyc in enumerate_chordless_cycles(g):
        if any(len(v) == 2 and set(v) <= {0, 1} for v in
               {x for edge in cyc for x in edge}):
            with pytest.raises(CircuitDomainError):
                map_circuit_f(ct, cyc)
            break
    else:
        pytest.skip("no cycle through the contracted edge dual")


def test_preimage_requires_p_link():
    cx = punctured_mobius(15)
    e = (0, 2)
    assert not cx.satisfies_p_link(e, 1)
    ct = contract_edge(cx, e)
    gt = build_p_graph(ct.target, 2)
    cyc = next(iter(enumerate_chordless_cycles(gt)))
    with pytest.raises(PreconditionError):
        construct_preimage_circuit(ct, cyc)


def test_preimage_of_empty_circuit_is_empty():
    cx = annulus(4)
    ct = contract_edge(cx, (0, 4))
    assert construct_preimage_circuit(ct, frozenset()) == frozenset()
