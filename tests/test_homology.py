import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plink import homology
from plink.complexes import InvalidArgument, SimplicialComplex, contract_edge
from plink.fixtures import (PUNCTURED_MOBIUS_EDGE, annulus, cone, mobius,
                            mobius_boundary, punctured_mobius, random_complex)
from plink.homology import (SubcomplexPair, TRUNCATED, _boundary, _shape,
                            _smith, _sparse_boundary, _unit_pivots,
                            bareiss_step, boundary_matrix, det_int,
                            enumerate_pure_pairs, has_relative_torsion,
                            homology_group, is_pure, relative_boundary_matrix,
                            relative_homology_group, smith_normal_form,
                            snf_solve)


def matrix_rank(entries: list) -> int:
    """Rank of an integer matrix by Bareiss elimination, the reference rank
    of these tests; a column with no pivot is skipped."""
    m, n = _shape(entries)
    a = [list(row) for row in entries]
    rank = 0
    prev = 1
    for c in range(n):
        for i in range(rank, m):
            if a[i][c]:
                break
        else:
            continue
        a[rank], a[i] = a[i], a[rank]
        prev = bareiss_step(a, rank, c, prev, range(rank + 1, m),
                            range(c + 1, n))
        rank += 1
        if rank == m:
            break
    return rank


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(a):
    a = [list(r) for r in a]
    n = len(a)
    a = [[Fraction(v) for v in r] for r in a]
    sign = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    out = sign
    for k in range(n):
        out *= a[k][k]
    assert out.denominator == 1
    return int(out)


int_matrix_st = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m, max_size=m)))


# -- Smith normal form --------------------------------------------------------

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@given(int_matrix_st)
def test_snf_diagonalizes_with_unimodular_transforms(A):
    if not A or not A[0]:
        return
    m, n = len(A), len(A[0])
    # identity passengers come out as U (columns past n) and V (rows past m)
    M = [row + e for row, e in zip(A, identity(m))] + identity(n)
    diag = _smith(M, m, n)
    U = [row[n:] for row in M[:m]]
    V = M[m:]
    D = matmul(matmul(U, A), V)
    for i in range(m):
        for j in range(n):
            if i == j and i < len(diag):
                assert D[i][j] == diag[i]
            else:
                assert D[i][j] == 0
    assert [row[:n] for row in M[:m]] == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1


@given(int_matrix_st)
def test_snf_divisibility_chain(A):
    if not A or not A[0]:
        return
    diag = smith_normal_form(A)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_snf_known_small_case():
    # [[2, 0], [0, 3]] has invariant factors 1, 6
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_matrix_rank_matches_field_rank():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_matrix(sympy, A):
    return sympy.Matrix(len(A), len(A[0]) if A else 0,
                        [v for row in A for v in row])


@given(int_matrix_st)
def test_matrix_rank_matches_snf_rank(A):
    # the full Smith normal form stays the slow reference for the rank
    assert matrix_rank(A) == len(smith_normal_form(A))


@given(int_matrix_st)
def test_matrix_rank_matches_sympy(sympy, A):
    assert matrix_rank(A) == sympy_matrix(sympy, A).rank()


@given(int_matrix_st)
def test_snf_diag_matches_sympy_invariant_factors(sympy, A):
    from sympy.matrices.normalforms import invariant_factors
    ref = invariant_factors(sympy_matrix(sympy, A), domain=sympy.ZZ)
    assert smith_normal_form(A) == [int(d) for d in ref if d]


matrix_rhs_st = int_matrix_st.flatmap(lambda B: st.tuples(
    st.just(B), st.lists(st.integers(-6, 6), min_size=len(B),
                         max_size=len(B))))


# the passenger column of snf_solve holds Fractions, which floor division
# would corrupt; integral d alone cannot tell
rational_rhs_st = int_matrix_st.flatmap(lambda B: st.tuples(
    st.just(B), st.lists(st.integers(-6, 6) | st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 4)),
        min_size=len(B), max_size=len(B))))


@given(rational_rhs_st)
def test_snf_solve_matches_rank_test(case):
    B, d = case
    y = snf_solve(B, d)
    # matrix_rank is integer-only: scale [B | d] to integers
    k = math.lcm(*(Fraction(v).denominator for v in d))
    Bd = [[k * b for b in row] + [int(k * v)] for row, v in zip(B, d)]
    assert (y is None) == (matrix_rank(Bd) > matrix_rank(B))
    if y is not None:
        assert [sum(b * v for b, v in zip(row, y)) for row in B] == d


@given(matrix_rhs_st)
def test_snf_solve_integral_iff_invariant_factors_agree(sympy, case):
    from sympy.matrices.normalforms import invariant_factors
    B, d = case
    y = snf_solve(B, d)
    if y is None:
        return

    def factors(A):
        return [f for f in invariant_factors(sympy_matrix(sympy, A),
                                             domain=sympy.ZZ) if f]

    Bd = [row + [v] for row, v in zip(B, d)]
    integral = all(Fraction(v).denominator == 1 for v in y)
    assert integral == (not B or factors(B) == factors(Bd))


DENSE_7X7 = [[5, 5, 2, -3, 5, -1, 2], [-1, 5, 1, -3, 1, 2, 2],
             [5, 1, -3, -1, 1, 1, 1], [5, -3, -1, 5, 2, -3, -1],
             [0, -3, 5, 0, 0, -3, 1], [0, 5, 0, -1, 1, 5, 0],
             [0, -1, 0, 2, 1, 1, 5]]


def test_snf_ends_on_a_dense_matrix(deadline):
    # minimal-|pivot| elimination grows its entries past 4,000 digits
    deadline(5)
    assert smith_normal_form(DENSE_7X7) == [1] * 6 + [24223]


def test_snf_dense_matches_sympy(sympy, deadline):
    from sympy.matrices.normalforms import invariant_factors
    deadline(10)
    r = random.Random(0x5EED)
    for size in range(6, 11):
        for _ in range(4):
            A = [[r.randint(-5, 5) for _ in range(size)] for _ in range(size)]
            ref = invariant_factors(sympy_matrix(sympy, A), domain=sympy.ZZ)
            assert smith_normal_form(A) == [int(d) for d in ref if d]


def test_snf_solve_rejects_mismatched_rhs():
    with pytest.raises(InvalidArgument):
        snf_solve([[1, 2]], [1, 2])


# Each of these once read only the first row's width and answered wrongly:
# [1], rank 0, det 1 and None.
@pytest.mark.parametrize("call", [
    lambda: smith_normal_form([[1], [0, 2]]),
    lambda: matrix_rank([[0], [0, 1]]),
    lambda: det_int([[1, 2]]),
    lambda: snf_solve([[1], [0, 2]], [1, 1]),
], ids=["snf", "rank", "det", "snf_solve"])
def test_ragged_or_non_square_matrix_is_rejected(call):
    with pytest.raises(InvalidArgument):
        call()


def test_empty_and_rectangular_matrices_keep_their_answers():
    assert smith_normal_form([]) == [] and matrix_rank([[], []]) == 0
    assert det_int([]) == 1 and det_int([[0, 1], [1, 0]]) == -1
    assert matrix_rank([[0, 2, 4]]) == 1
    assert snf_solve([[2, 4]], [6]) is not None


# -- sparse unit-pivot front end ---------------------------------------------
# smith_normal_form eliminates +-1 pivots sparsely before the dense _smith;
# the dense _smith and the Bareiss matrix_rank stay its slow references.

def grid_surface(n, m, twist):
    """n x m grid of triangles with opposite sides glued: a torus, or a
    Klein bottle when one gluing reverses direction."""
    def v(i, j):
        if i == n:
            i, j = 0, (-j if twist else j)
        return (i % n) * m + (j % m)
    tris = []
    for i in range(n):
        for j in range(m):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return SimplicialComplex.from_maximal(tris)


def sparse_matrices(seed, count):
    """Seeded sparse matrices over {0, +-1, 2, -3}: the non-unit entries
    leave a residual for the dense _smith."""
    r = random.Random(seed)
    for _ in range(count):
        m, n = r.randint(1, 12), r.randint(1, 12)
        density = r.choice([0.15, 0.3, 0.5])
        yield [[r.choice([1, -1, 2, -3]) if r.random() < density else 0
                for _ in range(n)] for _ in range(m)]


def boundary_corpus():
    r = random.Random(0x5A7)
    for _ in range(60):
        cx = random_complex(r, n_vertices=8, max_dim=3, n_generators=6)
        for p in range(1, cx.dim + 1):
            yield boundary_matrix(cx, p).entries
    for n in range(5, 9):
        for twist in (False, True):
            cx = grid_surface(n, n, twist)
            for p in (1, 2):
                yield boundary_matrix(cx, p).entries


def sparse_rows(A):
    """A as the {row: {col: value}} map _unit_pivots takes: nonzero
    entries only, no empty row."""
    return {i: {j: v for j, v in enumerate(row) if v}
            for i, row in enumerate(A) if any(row)}


def dense_factors(A):
    return _smith([list(row) for row in A], len(A), len(A[0]) if A else 0)


def test_sparse_snf_matches_dense_on_boundary_matrices():
    for A in boundary_corpus():
        diag = smith_normal_form(A)
        assert diag == dense_factors(A)
        assert len(diag) == matrix_rank(A)


def test_sparse_snf_matches_dense_on_non_unit_matrices():
    residuals = 0
    for A in sparse_matrices(0xBEEF, 400):
        diag = smith_normal_form(A)
        assert diag == dense_factors(A)
        assert len(diag) == matrix_rank(A)
        units, rest = _unit_pivots(sparse_rows(A))
        residuals += bool(rest) and units > 0
    # the corpus must exercise unit pivots followed by a dense residual
    # (the residual keeps no empty row)
    assert residuals > 50


def test_sparse_snf_matches_sympy(sympy):
    from sympy.matrices.normalforms import invariant_factors
    for A in sparse_matrices(0xF00D, 60):
        ref = invariant_factors(sympy_matrix(sympy, A), domain=sympy.ZZ)
        assert smith_normal_form(A) == [int(d) for d in ref if d]


def test_grid_boundaries_leave_at_most_one_dense_column():
    for n in (8, 16, 24):
        for twist in (False, True):
            for p in (1, 2):
                A = boundary_matrix(grid_surface(n, n, twist), p).entries
                units, rest = _unit_pivots(sparse_rows(A))
                assert units == len(A) - 1 or units == len(A[0]) - 1
                assert not rest or len(rest[0]) <= 1


def rescan_unit_pivots(rows: dict) -> tuple:
    """The unit-pivot step as it was before the worklist: every pivot
    rescans all surviving rows for the least Markowitz fill.  The slow
    reference of _unit_pivots."""
    cols = {}                   # col -> rows holding a nonzero there
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    units = 0
    while True:
        best = None
        for i, r in rows.items():
            fill = len(r) - 1
            for j, v in r.items():
                if v == 1 or v == -1:
                    cost = fill * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j = best
        prow = rows.pop(i)
        for c in prow:
            cols[c].discard(i)
        f0 = prow.pop(j)
        for k in cols.pop(j):
            r = rows[k]
            f = r.pop(j) * f0   # r[j] / prow[j], as prow[j] is +-1
            for c, w in prow.items():
                x = r.get(c, 0) - f * w
                if x:
                    r[c] = x
                    cols[c].add(k)
                else:
                    del r[c]
                    cols[c].discard(k)
            if not r:
                del rows[k]
        units += 1
    keep = sorted({c for r in rows.values() for c in r})
    return units, [[r.get(c, 0) for c in keep] for r in rows.values()]


def factors(units, rest):
    """Invariant factors from the (units, residual) of a unit-pivot step."""
    return [1] * units + _smith(rest, len(rest), len(rest[0]) if rest else 0)


def cone_over(cx):
    """The cone over cx: every top simplex joined to a new apex."""
    apex = max(cx.vertices) + 1
    return SimplicialComplex.from_maximal(
        s + (apex,) for s in cx.p_simplices(cx.dim))


def nonzero_rows(matrix):
    """sparse_rows of an IntegerMatrix, keyed by row label."""
    return {matrix.rows[i]: r for i, r in sparse_rows(matrix.entries).items()}


def test_worklist_unit_pivots_match_rescan_reference(monkeypatch):
    r = random.Random(0x28)
    complexes = [random_complex(r, n_vertices=r.randint(6, 9),
                                max_dim=r.randint(2, 5), n_generators=6)
                 for _ in range(300)]
    complexes += [grid_surface(n, m, twist) for n, m in
                  [(5, 5), (5, 7), (6, 6), (7, 9), (8, 8), (12, 12),
                   (16, 16), (24, 24)] for twist in (False, True)]
    complexes += [cone_over(cx) for cx in
                  (grid_surface(6, 6, False), grid_surface(10, 10, True),
                   mobius(7), annulus(8))]
    matrices = []
    for cx in complexes:
        simplices = cx.simplices
        for p in range(1, cx.dim + 1):
            rows, cols = tuple(cx.p_simplices(p - 1)), cx.p_simplices(p)
            sparse = _sparse_boundary(simplices, cols)
            assert sparse == nonzero_rows(_boundary(rows, cols))
            matrices.append(sparse)
    matrices += [sparse_rows(A) for A in sparse_matrices(0xBEEF, 400)]
    # every per-pair slice the torsion oracle reduces
    slices = []
    real = homology._unit_pivots
    monkeypatch.setattr(homology, "_unit_pivots", lambda rows: slices.append(
        {i: dict(row) for i, row in rows.items()}) or real(rows))
    for cx in (mobius(5), cone(4), SimplicialComplex.from_maximal(
            [(0, i, i + 1) for i in range(1, 5)])):
        has_relative_torsion(cx, 1, mode="oracle")
    monkeypatch.undo()
    assert len(slices) > 7000
    residuals = 0
    for rows in matrices + slices:
        copy = {i: dict(row) for i, row in rows.items()}
        units, rest = _unit_pivots(rows)
        # an empty worklist leaves no +-1 entry
        assert all(v not in (1, -1) for row in rest for v in row)
        assert factors(units, rest) == factors(*rescan_unit_pivots(copy))
        residuals += bool(rest)
    assert residuals > 50


def test_sparse_boundary_matches_dense_on_relative_pairs():
    r = random.Random(0x5EED)
    pairs = 0
    for _ in range(30):
        cx = random_complex(r, n_vertices=6, max_dim=3, n_generators=4)
        for p in range(cx.dim):
            for pair in itertools.islice(enumerate_pure_pairs(cx, p), 0,
                                         200, 7):
                rel = pair.L.simplices - pair.L0.simplices
                for q in range(max(p, 1), p + 2):
                    dense = relative_boundary_matrix(pair, q)
                    assert (_sparse_boundary(rel, dense.cols)
                            == nonzero_rows(dense))
                # the dense reference of relative_homology_group
                top = relative_boundary_matrix(pair, p + 1)
                diag = dense_factors(top.entries)
                rank_p = (len(dense_factors(relative_boundary_matrix(
                    pair, p).entries)) if p >= 1 else 0)
                assert relative_homology_group(pair).as_pair() == (
                    len(top.rows) - rank_p - len(diag),
                    tuple(d for d in diag if d > 1))
                pairs += 1
    assert pairs > 300


@pytest.mark.parametrize("n", [16, 48], ids=["16x16", "48x48"])
@pytest.mark.parametrize("twist, expect", [
    (False, [(1, ()), (2, ()), (1, ())]),
    (True, [(1, ()), (1, (2,)), (0, ())])], ids=["torus", "klein"])
def test_homology_of_grid_surfaces(n, twist, expect, deadline):
    # about 7.7 s per 16x16 surface through the dense elimination alone
    cx = grid_surface(n, n, twist)
    deadline(5)
    assert [homology_group(cx, p).as_pair() for p in range(3)] == expect


# -- [d_1] by union-find ------------------------------------------------------
# _graph_rank reads rank d_1 as vertices minus components; the sparse
# elimination _snf(_sparse_boundary(...)) stays its reference.

def d1_by_elimination(simplices, edges):
    """Invariant factors of [d_1] with the given edges as columns and the
    vertices in simplices as rows, by the sparse elimination."""
    return homology._snf(_sparse_boundary(simplices, edges))


def test_graph_rank_matches_elimination_on_absolute_d1():
    r = random.Random(0x32)
    complexes = [random_complex(r, n_vertices=r.randint(2, 12),
                                max_dim=r.randint(1, 4),
                                n_generators=r.randint(1, 8))
                 for _ in range(400)]
    complexes += [grid_surface(n, m, twist) for n, m in
                  [(5, 5), (5, 8), (7, 9), (12, 12), (16, 16), (24, 24)]
                  for twist in (False, True)]
    disconnected = isolated = 0
    for cx in complexes:
        edges = cx.p_simplices(1)
        diag = d1_by_elimination(cx.simplices, edges)
        assert homology._boundary_snf(cx.simplices, 1, cx.dim) == diag
        assert homology._graph_rank(edges) == len(diag)
        # rank d_1 = vertices - components
        disconnected += len(diag) < len(cx.vertices) - 1
        isolated += len({v for e in edges for v in e}) < len(cx.vertices)
    # the corpus must hold disconnected draws and isolated vertices
    assert disconnected > 50 and isolated > 50


def test_graph_rank_matches_elimination_on_relative_d1():
    r = random.Random(0x3207)
    complexes = [random_complex(r, n_vertices=6, max_dim=r.randint(1, 3),
                                n_generators=r.randint(2, 5))
                 for _ in range(40)]
    complexes += [mobius(5), annulus(4), cone(4)]
    pairs = 0
    looped = [0, 0]     # pairs at p = 0 and p = 1 with a loop
    for cx in complexes:
        for p in range(min(cx.dim, 2)):
            for pair in itertools.islice(enumerate_pure_pairs(cx, p), 0,
                                         600, 5):
                rel = pair.L.simplices - pair.L0.simplices
                ground = [s[0] for s in pair.L0.simplices if len(s) == 1]
                edges = [s for s in pair.L.p_simplices(1) if s in rel]
                diag = d1_by_elimination(rel, edges)
                # rows are the vertices off L0, columns the edges off L0
                assert homology._boundary_snf(rel, 1, p + 1, ground) == diag
                assert homology._graph_rank(edges, ground) == len(diag)
                looped[p] += any(a in ground and b in ground
                                 for a, b in edges)
                pairs += 1
    assert pairs > 1000
    # edges off L0 with both ends in L0 are loops of the ground node
    assert min(looped) > 100


# -- boundary matrices --------------------------------------------------------

def test_boundary_matrix_shape_and_entries():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    bm = boundary_matrix(cx, 2)
    assert bm.shape == (3, 1)
    assert bm.entry((1, 2), (0, 1, 2)) == 1
    assert bm.entry((0, 2), (0, 1, 2)) == -1
    assert bm.entry((0, 1), (0, 1, 2)) == 1


def test_boundary_matrices_compose_to_zero():
    r = random.Random(3)
    for _ in range(25):
        cx = random_complex(r, n_vertices=7, max_dim=3, n_generators=5)
        for p in range(2, cx.dim + 1):
            prod = matmul(boundary_matrix(cx, p - 1).entries,
                          boundary_matrix(cx, p).entries)
            assert all(v == 0 for row in prod for v in row)


def test_boundary_matrix_range_check():
    cx = SimplicialComplex.from_maximal([(0, 1)])
    with pytest.raises(InvalidArgument):
        boundary_matrix(cx, 2)
    with pytest.raises(InvalidArgument):
        boundary_matrix(cx, 0)


# -- absolute homology oracles ------------------------------------------------

def test_homology_of_circle():
    circle = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    assert homology_group(circle, 0).as_pair() == (1, ())
    assert homology_group(circle, 1).as_pair() == (1, ())


def test_homology_of_mobius_strip():
    cx = mobius(5)
    assert homology_group(cx, 0).as_pair() == (1, ())
    assert homology_group(cx, 1).as_pair() == (1, ())
    assert homology_group(cx, 2).as_pair() == (0, ())


def test_homology_of_annulus_and_cone():
    assert homology_group(annulus(4), 1).as_pair() == (1, ())
    assert homology_group(cone(5), 1).as_pair() == (0, ())
    assert homology_group(cone(5), 0).as_pair() == (1, ())


def test_homology_of_sphere():
    sphere = SimplicialComplex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert homology_group(sphere, 2).as_pair() == (1, ())
    assert homology_group(sphere, 1).as_pair() == (0, ())


def test_homology_of_projective_plane():
    # 6-vertex triangulation of the projective plane; H_1 = Z/2
    rp2 = SimplicialComplex.from_maximal([
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4)])
    assert homology_group(rp2, 0).as_pair() == (1, ())
    assert homology_group(rp2, 1).as_pair() == (0, (2,))
    assert homology_group(rp2, 2).as_pair() == (0, ())


def test_disconnected_betti_zero():
    cx = SimplicialComplex.from_maximal([(0, 1), (2, 3)])
    assert homology_group(cx, 0).betti == 2


# -- relative homology --------------------------------------------------------

def test_is_pure():
    assert is_pure(mobius(5), 2)
    assert not is_pure(SimplicialComplex.from_maximal([(0, 1, 2), (3, 4)]), 2)
    assert is_pure(mobius_boundary(5), 1)


def test_mobius_relative_torsion_is_z2():
    pair = SubcomplexPair(L=mobius(5), L0=mobius_boundary(5), p=1)
    group = relative_homology_group(pair)
    assert group.torsion_coeffs == [2]


def test_annulus_relative_no_torsion():
    rim = SimplicialComplex.from_maximal(
        [(i, (i + 1) % 4) for i in range(4)]
        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
    pair = SubcomplexPair(L=annulus(4), L0=rim, p=1)
    assert relative_homology_group(pair).torsion_coeffs == []


def test_subcomplex_pair_validation():
    with pytest.raises(InvalidArgument):
        SubcomplexPair(L=mobius(5), L0=mobius(5), p=1)
    with pytest.raises(InvalidArgument):
        SubcomplexPair(L=mobius(5),
                       L0=SimplicialComplex.from_maximal([(90, 91)]), p=1)


def test_relative_boundary_matrix_excludes_l0():
    pair = SubcomplexPair(L=mobius(5), L0=mobius_boundary(5), p=1)
    rel = relative_boundary_matrix(pair)
    boundary_edges = set(mobius_boundary(5).edges)
    assert not (set(rel.rows) & boundary_edges)
    assert len(rel.cols) == 5


# -- pure pair enumeration ----------------------------------------------------

def test_enumerate_pure_pairs_counts_single_triangle():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    pairs = list(enumerate_pure_pairs(cx, 1))
    # one L (the triangle), 2^3 - 1 edge subsets
    assert len(pairs) == 7


def test_enumerate_pure_pairs_budget():
    cx = SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])
    out = list(enumerate_pure_pairs(cx, 1, budget=3))
    assert out[-1] is TRUNCATED
    assert len(out) == 4


def test_has_relative_torsion_oracle_finds_mobius_witness():
    verdict = has_relative_torsion(mobius(5), 1, mode="oracle")
    assert verdict.status is True
    assert verdict.witness is not None
    assert relative_homology_group(verdict.witness).torsion_coeffs


def test_has_relative_torsion_oracle_negative():
    cx = SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])
    assert has_relative_torsion(cx, 1, mode="oracle").status is False


def test_has_relative_torsion_budget_inconclusive():
    verdict = has_relative_torsion(mobius(5), 1, mode="oracle", budget=2)
    assert verdict.status is None
    with pytest.raises(ValueError):
        bool(verdict)


def test_has_relative_torsion_oracle_budget_rule():
    cx = SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])  # 45 pairs
    for budget in range(50):
        v = has_relative_torsion(cx, 1, mode="oracle", budget=budget)
        assert v.mode == "oracle"
        assert v.status is (None if budget < 45 else False)
        assert v.budget_used == min(budget, 45)


def test_has_relative_torsion_tu_mode():
    assert has_relative_torsion(mobius(5), 1, mode="tu").status is True
    cx = SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)])
    assert has_relative_torsion(cx, 1, mode="tu").status is False


def test_tu_mode_witness_pair_has_torsion_two():
    # L spans the b-odd circuit's (p+1)-simplices, L0 their other p-faces;
    # status and budget_used are the circuit TU test's
    from plink.tugraph import is_totally_unimodular
    cases = [(mobius(5), 1), (mobius(7), 1),
             (contract_edge(punctured_mobius(15),
                            PUNCTURED_MOBIUS_EDGE).target, 1)]
    r = random.Random(41)
    for _ in range(300):
        cx = random_complex(r, n_vertices=r.randint(5, 8), max_dim=3,
                            n_generators=r.randint(2, 6))
        cases += [(cx, p) for p in range(cx.dim)]
    witnesses = 0
    for cx, p in cases:
        tu = is_totally_unimodular(boundary_matrix(cx, p + 1))
        v = has_relative_torsion(cx, p, mode="tu")
        assert (v.status, v.budget_used) == (not tu.status, tu.budget_used)
        assert (v.witness is not None) is v.status
        if v.status:
            witnesses += 1
            assert v.witness.L.p_simplices(p + 1) == sorted(
                {top for _, top in tu.witness})
            assert relative_homology_group(v.witness).torsion_coeffs == [2]
    assert witnesses >= 15


def test_relative_torsion_rejects_p_out_of_range():
    # p = -1 once read False in oracle mode; tu mode named p + 1 = 0
    cx = mobius(5)
    for p in (-1, 2):
        for mode in ("oracle", "tu"):
            with pytest.raises(InvalidArgument, match=f"p={p} out of range"):
                has_relative_torsion(cx, p, mode=mode)
        with pytest.raises(InvalidArgument, match=f"p={p} out of range"):
            next(enumerate_pure_pairs(cx, p))


def test_torsion_oracle_matches_relative_homology_loop(monkeypatch):
    # the reference walks the pairs itself and reads each pair's torsion off
    # relative_homology_group, the path the oracle no longer takes
    r = random.Random(77)
    cases = [(mobius(5), 1, None),      # its witness is pair 5,328
             (mobius(5), 1, 0)]
    for _ in range(40):
        cx = random_complex(r, n_vertices=6, max_dim=3, n_generators=4)
        cases += [(cx, p, r.choice([3, 60, 400])) for p in range(cx.dim)]
    # complete enumerations at every p, 12,308 pairs in all
    r = random.Random(89)
    for _ in range(10):
        cx = random_complex(r, n_vertices=5, max_dim=3, n_generators=3)
        cases += [(cx, p, None) for p in range(cx.dim)]
    # a late witness, pair 21,308: (0, 1, 5) is the third of six triangles,
    # and the witness's L takes the other five
    flap = SimplicialComplex.from_maximal(
        mobius(5).p_simplices(2) + [(0, 1, 5)])
    cases.append((flap, 1, None))
    made = []                   # from_maximal calls
    real = SimplicialComplex.from_maximal
    monkeypatch.setattr(SimplicialComplex, "from_maximal",
                        lambda *a, **k: made.append(1) or real(*a, **k))
    seen = set()
    for cx, p, budget in cases:
        expect = (False, None)
        used = 0
        for pair in enumerate_pure_pairs(cx, p, budget=budget):
            if pair is TRUNCATED:
                expect = (None, None)
                break
            used += 1
            if relative_homology_group(pair).torsion_coeffs:
                expect = (True, pair)
                break
        before = len(made)
        v = has_relative_torsion(cx, p, mode="oracle", budget=budget)
        assert (v.status, v.witness, v.budget_used) == (*expect, used)
        # only a witness builds complexes: its L and its L0
        assert len(made) - before == (2 if v.status else 0)
        seen.add((v.status, p, budget is None))
    assert {status for status, _, _ in seen} == {True, False, None}
    assert {(False, 0, True), (False, 1, True), (False, 2, True),
            (True, 1, True)} <= seen


def test_has_relative_torsion_rejects_negative_budget():
    for mode in ("oracle", "tu"):
        with pytest.raises(InvalidArgument, match="negative"):
            has_relative_torsion(mobius(5), 1, mode=mode, budget=-1)
        assert has_relative_torsion(mobius(5), 1, mode=mode,
                                    budget=0).status is None


def test_has_relative_torsion_tu_mode_reports_budget_used():
    # the signed colouring of mobius(5)'s d_2 meets its conflict at the
    # fifth signed edge; a budget of exactly that much reaches it too
    v = has_relative_torsion(mobius(5), 1, mode="tu")
    assert (v.status, v.budget_used) == (True, 5)
    assert has_relative_torsion(mobius(5), 1, mode="tu",
                                budget=5).status is True
    assert has_relative_torsion(mobius(5), 1, mode="tu",
                                budget=4).status is None
