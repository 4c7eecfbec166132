"""Boundary matrices, integer Smith normal form, absolute and relative homology.

All arithmetic is exact over arbitrary-precision integers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Union

from .complexes import InvalidArgument, Simplex, SimplicialComplex, faces_of


@dataclass
class IntegerMatrix:
    """Dense integer matrix with simplex-labelled rows and columns."""
    rows: tuple            # row labels ((p-1)-simplices)
    cols: tuple            # column labels (p-simplices)
    entries: list          # list of rows of ints

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def entry(self, row_label, col_label) -> int:
        return self.entries[self.rows.index(row_label)][self.cols.index(col_label)]


def _shape(entries: list, square: bool = False) -> tuple[int, int]:
    """(m, n) of a matrix given as a list of rows; rows of unequal length,
    or m != n when square is asked, are an InvalidArgument."""
    m = len(entries)
    n = len(entries[0]) if m else 0
    if any(len(row) != n for row in entries):
        raise InvalidArgument(f"ragged matrix: row lengths "
                              f"{sorted({len(row) for row in entries})}")
    if square and m != n:
        raise InvalidArgument(f"{m} x {n} matrix is not square")
    return m, n


def boundary_matrix(complex: SimplicialComplex, p: int) -> IntegerMatrix:
    """The p-boundary matrix: one column per p-simplex, one row per
    (p-1)-simplex, entries +-1 by orientation agreement."""
    if not 1 <= p <= complex.dim:
        raise InvalidArgument(f"p={p} out of range for dim {complex.dim}")
    return _boundary(tuple(complex.p_simplices(p - 1)),
                     tuple(complex.p_simplices(p)))


def _boundary(rows: tuple, cols: tuple) -> IntegerMatrix:
    """Boundary matrix with the given row and column simplices; a face that
    is not a row is skipped."""
    rindex = {s: i for i, s in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, sigma in enumerate(cols):
        for k in range(len(sigma)):
            i = rindex.get(sigma[:k] + sigma[k + 1:])
            if i is not None:
                entries[i][j] = 1 if k % 2 == 0 else -1
    return IntegerMatrix(rows=rows, cols=cols, entries=entries)


# -- Smith normal form ------------------------------------------------------

def _gcd_step(a: int, b: int) -> tuple:
    """(x, y, p, q) with [[x, y], [-q, p]] unimodular, taking (a, b), a != 0,
    to (g, 0): g = a if a divides b, else g = +-gcd(a, b) (extended Euclid)."""
    if b % a == 0:
        return 1, 0, 1, b // a
    g, g1, x, x1 = a, b, 1, 0
    while g1:
        k = g // g1
        g, g1, x, x1 = g1, g - k * g1, x1, x - k * x1
    return x, (g - x * a) // b, a // g, b // g


def _smith(M: list, m: int, n: int) -> list:
    """Reduce the leading m x n block of M in place to its Smith normal form
    U B V = D; return the invariant factors, positive, each dividing the next.

    Step t swaps the first nonzero entry of the trailing block (column by
    column) to (t, t), then clears column t and row t until both are clear,
    each entry b beside the pivot a by ``_gcd_step(a, b)`` on the pair of
    rows or columns (Cohen 1993, 2.4); that shrinks the pivot unless a | b.
    A trailing entry that the pivot does not divide has its row added to
    row t, and step t is redone.

    Row and column operations act on whole rows 0..m-1 and whole columns
    0..n-1: passenger columns past n come out multiplied by U and passenger
    rows past m by V.  No entry is divided: passengers may hold Fractions."""
    t = 0
    while True:
        i, j = next(((i, j) for j in range(t, n) for i in range(t, m)
                     if M[i][j]), (None, None))
        if i is None:
            return [M[k][k] for k in range(t)]
        M[t], M[i] = M[i], M[t]
        for row in M[t:]:       # rows above t are zero past their diagonal
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                if M[i][t]:
                    x, y, p, q = _gcd_step(M[t][t], M[i][t])
                    r, s = M[t], M[i]
                    if y:
                        M[t] = [x * u + y * v for u, v in zip(r, s)]
                    M[i] = [p * v - q * u for u, v in zip(r, s)]
            if not any(M[t][t + 1:n]):
                break
            for j in range(t + 1, n):
                if M[t][j]:
                    x, y, p, q = _gcd_step(M[t][t], M[t][j])
                    for row in M[t:]:
                        u, v = row[t], row[j]
                        if y:
                            row[t] = x * u + y * v
                        row[j] = p * v - q * u
        bad = next((i for i in range(t + 1, m) for j in range(t + 1, n)
                    if M[i][j] % M[t][t]), None)
        if bad is not None:
            M[t] = [u + v for u, v in zip(M[t], M[bad])]
            continue
        if M[t][t] < 0:
            M[t] = [-u for u in M[t]]
        t += 1


def _unit_pivots(rows: dict) -> tuple:
    """(units, residual): eliminate +-1 pivots of the sparse matrix
    rows = {row: {col: nonzero value}}, each row nonempty, until none is
    left; the invariant factors of the matrix are [1] * units followed by
    those of the dense residual over the surviving rows and columns.  rows
    is consumed.

    A last-in-first-out worklist, seeded with every row, holds the rows
    not examined since they last changed.  A popped row pivots on its +-1
    entry of shortest column; a row with none is dropped until an
    elimination changes it.  So each pass over a row pays for a change to
    it, and an empty worklist leaves no +-1 entry.

    A +-1 pivot clears the rest of its column by integral row operations;
    column operations then clear its row without touching any other row.
    Both are unimodular, and the pivot leaves an invariant factor 1
    (Dumas-Saunders-Villard 2001)."""
    cols = {}                   # col -> rows holding a nonzero there
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    work = list(rows)
    queued = set(work)
    units = 0
    while work:
        i = work.pop()
        queued.discard(i)
        prow = rows.get(i, {})
        j = None
        for c, v in prow.items():
            if (v == 1 or v == -1) and (j is None or len(cols[c]) < least):
                j, least = c, len(cols[c])
        if j is None:
            continue
        del rows[i]
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
            elif k not in queued:
                queued.add(k)
                work.append(k)
        units += 1
    keep = sorted({c for r in rows.values() for c in r})
    return units, [[r.get(c, 0) for c in keep] for r in rows.values()]


def _snf(rows: dict) -> list:
    """Invariant factors of the sparse matrix rows (consumed, as for
    _unit_pivots): unit pivots first, the dense _smith on what is left."""
    units, rest = _unit_pivots(rows)
    return [1] * units + _smith(rest, len(rest), len(rest[0]) if rest else 0)


def _sparse_boundary(rows, cols) -> dict:
    """{row: {column index: +-1}}: the nonzero rows of _boundary(rows,
    cols), read straight off the faces; rows is a set of simplices."""
    out = {}
    for j, sigma in enumerate(cols):
        for k in range(len(sigma)):
            face = sigma[:k] + sigma[k + 1:]
            if face in rows:
                out.setdefault(face, {})[j] = -1 if k % 2 else 1
    return out


def smith_normal_form(entries: list) -> list:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, all
    positive; r is its rank.  Unit pivots are eliminated sparsely first;
    the dense _smith reduces only what is left."""
    _shape(entries)
    return _snf({i: r for i, row in enumerate(entries)
                 if (r := {j: v for j, v in enumerate(row) if v})})


def snf_solve(entries: list, d: list) -> Optional[list]:
    """A solution y of B y = d (B = entries, integral; d rational), or None
    when there is no rational one.

    The Smith normal form U B V = D carries d as a passenger column and the
    identity as passenger rows, so it yields U d and V.  Then y = V z with
    z_i = (U d)_i / D_ii, and z_i = 0 past the rank.  V is unimodular, so y
    is integral iff B y = d has an integral solution."""
    m, n = _shape(entries)
    if len(d) != m:
        raise InvalidArgument(f"d has {len(d)} entries for {m} rows")
    M = [list(row) + [v] for row, v in zip(entries, d)]
    M += [[int(i == j) for j in range(n)] for i in range(n)]
    diag = _smith(M, m, n)
    if any(M[i][n] for i in range(len(diag), m)):
        return None
    z = [Fraction(M[i][n], f) for i, f in enumerate(diag)]
    return [sum(v * zi for v, zi in zip(M[m + j], z)) for j in range(n)]


# -- fraction-free (Bareiss) elimination -------------------------------------

def bareiss_step(a: list, k: int, c: int, prev: int, rows, cols) -> int:
    """Eliminate column c with the nonzero pivot a[k][c]: each entry of the
    given rows and columns becomes a minor, divided exactly by the previous
    pivot prev (Bareiss 1968).  Returns the new pivot."""
    rk = a[k]
    piv = rk[c]
    for i in rows:
        ri = a[i]
        f = ri[c]
        for j in cols:
            ri[j] = (ri[j] * piv - f * rk[j]) // prev
    return piv


def det_int(mat: list) -> int:
    """Exact determinant of a square integer matrix; stops at the first
    column with no pivot."""
    n, _ = _shape(mat, square=True)
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        prev = bareiss_step(a, k, k, prev, range(k + 1, n), range(k + 1, n))
    return sign * prev


@dataclass
class HomologyGroup:
    betti: int
    torsion_coeffs: list = field(default_factory=list)

    def as_pair(self) -> tuple:
        return (self.betti, tuple(self.torsion_coeffs))

    def to_json(self, p: int) -> dict:
        return {"p": p, "betti": self.betti, "torsion": list(self.torsion_coeffs)}


def _homology(n_p: int, diag_p: list, diag_next: list) -> HomologyGroup:
    """H_p from the number of p-cells and the invariant factors of [d_p]
    and [d_{p+1}] (an empty list for a zero map): the betti number is
    n_p - rank d_p - rank d_{p+1}, the torsion the invariant factors of
    d_{p+1} above 1."""
    return HomologyGroup(
        betti=n_p - len(diag_p) - len(diag_next),
        torsion_coeffs=[d for d in diag_next if d > 1])


def _boundary_snf(complex: SimplicialComplex, p: int) -> list:
    """Invariant factors of [d_p]; [] for the zero map outside 1..dim."""
    if not 1 <= p <= complex.dim:
        return []
    return _snf(_sparse_boundary(complex.simplices, complex.p_simplices(p)))


def homology_group(complex: SimplicialComplex, p: int) -> HomologyGroup:
    """H_p over the integers: betti number and torsion coefficients."""
    if not 0 <= p <= complex.dim:
        raise InvalidArgument(f"p={p} out of range for dim {complex.dim}")
    return _homology(len(complex.p_simplices(p)), _boundary_snf(complex, p),
                     _boundary_snf(complex, p + 1))


def homology_groups(complex: SimplicialComplex) -> list:
    """H_p for every 0 <= p <= dim, reducing each boundary matrix once:
    [d_p] serves both H_{p-1} and H_p."""
    n = complex.dim
    diags = [_boundary_snf(complex, p) for p in range(n + 2)]
    return [_homology(len(complex.p_simplices(p)), diags[p], diags[p + 1])
            for p in range(n + 1)]


# -- relative homology on pure (p+1, p) pairs -------------------------------

def is_pure(complex: SimplicialComplex, dim: int) -> bool:
    """Every simplex is a face of a dim-dimensional simplex."""
    tops = complex.p_simplices(dim)
    if complex.dim != dim:
        return False
    covered = set()
    for s in tops:
        covered.update(faces_of(s))
    return covered == set(complex.simplices)


@dataclass(frozen=True)
class SubcomplexPair:
    """A pure (p+1)-dimensional L with a pure p-dimensional L0 inside it."""
    L: SimplicialComplex
    L0: SimplicialComplex
    p: int

    def __post_init__(self):
        if not is_pure(self.L, self.p + 1):
            raise InvalidArgument(f"L is not pure of dimension {self.p + 1}")
        if not is_pure(self.L0, self.p):
            raise InvalidArgument(f"L0 is not pure of dimension {self.p}")
        if not self.L0.simplices <= self.L.simplices:
            raise InvalidArgument("L0 is not a subcomplex of L")


def relative_boundary_matrix(pair: SubcomplexPair, q: Optional[int] = None
                             ) -> IntegerMatrix:
    """Boundary matrix of C_q(L, L0) -> C_{q-1}(L, L0): rows and columns are
    restricted to simplices of L not in L0.  Defaults to q = p + 1."""
    if q is None:
        q = pair.p + 1
    in_l0 = pair.L0.simplices
    return _boundary(
        tuple(s for s in pair.L.p_simplices(q - 1) if s not in in_l0),
        tuple(s for s in pair.L.p_simplices(q) if s not in in_l0))


def relative_homology_group(pair: SubcomplexPair) -> HomologyGroup:
    """H_p(L, L0) at the pair's dimension p."""
    p = pair.p
    rel = pair.L.simplices - pair.L0.simplices
    cells = [[s for s in pair.L.p_simplices(q) if s in rel]
             for q in (p, p + 1)]
    return _homology(len(cells[0]),
                     _snf(_sparse_boundary(rel, cells[0])) if p >= 1 else [],
                     _snf(_sparse_boundary(rel, cells[1])))


class Truncated:
    """Marker yielded when a pair enumeration hits its budget."""

    def __repr__(self):
        return "Truncated()"


TRUNCATED = Truncated()


def _nonempty_subsets(items: list) -> Iterator[tuple]:
    for mask in range(1, 1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def enumerate_pure_pairs(complex: SimplicialComplex, p: int,
                         budget: Optional[int] = None
                         ) -> Iterator[Union[SubcomplexPair, Truncated]]:
    """All pairs (L, L0): L spanned by a nonempty set of (p+1)-simplices of the
    complex, L0 by a nonempty subset of the p-simplices of L.  Deterministic
    order; yields TRUNCATED if the budget runs out."""
    if not 0 <= p < complex.dim:
        raise InvalidArgument(f"p={p} out of range: pure pairs need "
                              f"0 <= p < dim {complex.dim}")
    spend = _Budget.of(budget).spend
    tops = complex.p_simplices(p + 1)
    for top_subset in _nonempty_subsets(tops):
        L = SimplicialComplex.from_maximal(top_subset)
        p_faces = L.p_simplices(p)
        for face_subset in _nonempty_subsets(p_faces):
            try:
                spend()
            except _Spent:
                yield TRUNCATED
                return
            yield SubcomplexPair(L=L,
                                 L0=SimplicialComplex.from_maximal(face_subset),
                                 p=p)


@dataclass
class Verdict:
    """Answer of a budgeted decision procedure (`mode` names the procedure).

    status is True or False, or None when the budget ran out first.
    budget_used counts the units of work the procedure's budget caps.
    """
    status: Optional[bool]
    mode: str
    witness: object = None
    budget_used: Optional[int] = None

    def __bool__(self):
        if self.status is None:
            raise ValueError("inconclusive verdict has no truth value")
        return self.status


class _Spent(Exception):
    """Unwinds a search whose _Budget is spent."""


class _Budget:
    """The work units an exponential search may spend: `limit` (None for no
    limit) and `used` so far.  A nested search shares its caller's _Budget;
    every public `budget` parameter takes an int, None or a _Budget."""
    __slots__ = ("limit", "used")

    def __init__(self, limit: Optional[int] = None):
        if limit is not None and limit < 0:
            raise InvalidArgument(f"budget {limit} is negative")
        self.limit = limit
        self.used = 0

    @classmethod
    def of(cls, budget) -> "_Budget":
        """budget itself when it is a _Budget, else a new one of that limit."""
        return budget if isinstance(budget, cls) else cls(budget)

    def spend(self) -> None:
        """Count one unit before its work; raise _Spent once limit units are
        spent."""
        if self.used == self.limit:
            raise _Spent
        self.used += 1


def has_relative_torsion(complex: SimplicialComplex, p: int,
                         mode: str = "oracle",
                         budget: Optional[int] = None) -> Verdict:
    """Does some pure pair (L, L0) have torsion in H_p(L, L0)?

    mode="oracle" enumerates pairs exhaustively (first witness pair in
    enumeration order; the budget caps the pairs); mode="tu" delegates to the
    circuit total-unimodularity test of the (p+1)-boundary matrix (the budget
    caps its signed edges when every column or every row has at most two
    nonzeros, its search nodes otherwise; there is no witness).  budget_used
    counts the units spent; a negative budget raises InvalidArgument.
    """
    if not 0 <= p < complex.dim:
        raise InvalidArgument(f"p={p} out of range: relative torsion needs "
                              f"0 <= p < dim {complex.dim}")
    budget = _Budget.of(budget)
    if mode == "tu":
        from .tugraph import is_totally_unimodular
        tu = is_totally_unimodular(boundary_matrix(complex, p + 1),
                                   strategy="circuit", budget=budget)
        status = None if tu.status is None else not tu.status
        return Verdict(status, "tu", budget_used=tu.budget_used)
    if mode != "oracle":
        raise InvalidArgument(f"unknown mode {mode!r}")
    # The relative [d_{p+1}] of a pair is a slice of [d_{p+1}]: its columns
    # are L's (p+1)-simplices S, its rows their p-faces not in L0.  Pairs
    # are taken in enumerate_pure_pairs' order; only a witness is built.
    for top_subset in _nonempty_subsets(complex.p_simplices(p + 1)):
        star = _sparse_boundary(complex.simplices, top_subset)
        for l0 in _nonempty_subsets(sorted(star)):
            try:
                budget.spend()
            except _Spent:
                return Verdict(None, "oracle", budget_used=budget.used)
            drop = set(l0)
            _, rest = _unit_pivots({f: dict(r) for f, r in star.items()
                                    if f not in drop})
            if rest and any(d > 1 for d in
                            _smith(rest, len(rest), len(rest[0]))):
                pair = SubcomplexPair(
                    L=SimplicialComplex.from_maximal(top_subset),
                    L0=SimplicialComplex.from_maximal(l0), p=p)
                return Verdict(True, "oracle", witness=pair,
                               budget_used=budget.used)
    return Verdict(False, "oracle", budget_used=budget.used)
