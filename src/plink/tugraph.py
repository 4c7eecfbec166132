"""Bipartite incidence graphs of boundary matrices, b-parity, chordless b-odd
circuit search, total-unimodularity tests, and the circuit transport maps that
carry circuits across an edge contraction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .complexes import (COLLAPSING, MIRROR, EdgeContraction, InvalidArgument,
                        SimplicialComplex)
from .homology import (IntegerMatrix, Verdict, _Budget, _shape, _Spent,
                       boundary_matrix, det_int)

B_EVEN = "b-even"
B_ODD = "b-odd"

# An edge of the bipartite graph is (row_label, col_label); a circuit is a
# frozenset of such edges.
Circuit = frozenset


class CircuitDomainError(ValueError):
    """Circuit is outside the domain of the contraction-induced map."""


class PreconditionError(ValueError):
    """A stated precondition of the operation does not hold."""


def _labelled(matrix: Union[IntegerMatrix, list]) -> tuple:
    """(rows, cols, entries); a bare list of rows gets ("r", i) and ("c", j)
    labels."""
    if isinstance(matrix, IntegerMatrix):
        return matrix.rows, matrix.cols, matrix.entries
    m, n = _shape(matrix)
    return (tuple(("r", i) for i in range(m)),
            tuple(("c", j) for j in range(n)), matrix)


@dataclass
class IncidenceGraph:
    """Weighted bipartite graph: one vertex per row and per column of a 0/+-1
    matrix, one edge of weight a_ij per nonzero entry."""
    rows: tuple
    cols: tuple
    weights: dict                  # (row_label, col_label) -> +-1

    def __post_init__(self):
        adj = {v: set() for v in self.rows + self.cols}
        for (r, c) in self.weights:
            adj[r].add(c)
            adj[c].add(r)
        self.adj = adj

    @property
    def vertices(self) -> tuple:
        return self.rows + self.cols

    @classmethod
    def from_matrix(cls, matrix: Union[IntegerMatrix, list]) -> "IncidenceGraph":
        rows, cols, entries = _labelled(matrix)
        weights = {}
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                if entries[i][j]:
                    if entries[i][j] not in (1, -1):
                        raise InvalidArgument(
                            f"entry {entries[i][j]} at {r},{c} not in 0,+-1")
                    weights[(r, c)] = entries[i][j]
        return cls(rows=rows, cols=cols, weights=weights)


def build_p_graph(complex: SimplicialComplex, p: int) -> IncidenceGraph:
    """The p-graph of a complex: duals of p- and (p-1)-simplices, edge weights
    equal to the entries of the p-boundary matrix."""
    return IncidenceGraph.from_matrix(boundary_matrix(complex, p))


# -- circuits and b-parity --------------------------------------------------

def _odd_vertices(edges) -> set:
    """The vertices of odd degree in a set of edges."""
    odd = set()
    for e in edges:
        odd ^= set(e)
    return odd


def check_circuit(graph: IncidenceGraph, circuit) -> None:
    for e in circuit:
        if e not in graph.weights:
            raise InvalidArgument(f"edge {e} not in graph")
    odd = _odd_vertices(circuit)
    if odd:
        raise InvalidArgument(f"odd-degree vertices {sorted(odd, key=repr)}")


def b_parity(graph: IncidenceGraph, circuit) -> str:
    """b-even if the edge weights sum to 0 mod 4, else b-odd: a bipartite
    circuit has an even number of +-1 weights, so they sum to 0 or 2 mod 4."""
    check_circuit(graph, circuit)
    total = sum(graph.weights[e] for e in circuit) % 4
    return B_EVEN if total == 0 else B_ODD


def enumerate_chordless_cycles(graph: IncidenceGraph,
                               budget: Optional[int] = None
                               ) -> Iterator[Union[Circuit, None]]:
    """Yield every chordless (induced) cycle as an edge frozenset, each once.

    Depth-first extension of induced paths with a canonical smallest start
    vertex.  The budget caps the search nodes; when it runs out, the search
    yields None once and stops.
    """
    order = {v: i for i, v in enumerate(graph.vertices)}
    adj = {v: sorted(graph.adj[v], key=order.get) for v in graph.vertices}
    spend = _Budget.of(budget).spend

    def extend(path, in_path):
        s, u = path[0], path[-1]
        for w in adj[u]:
            spend()
            if order[w] <= order[s] or w in in_path:
                continue
            nbrs = graph.adj[w] & in_path
            if nbrs == {u}:
                path.append(w)
                in_path.add(w)
                yield from extend(path, in_path)
                in_path.discard(w)
                path.pop()
            elif nbrs == {u, s} and len(path) >= 3:
                if order[path[1]] < order[w]:   # one direction only
                    cycle = path + [w]
                    edges = set()
                    for i in range(len(cycle)):
                        a, b = cycle[i], cycle[(i + 1) % len(cycle)]
                        edges.add((a, b) if (a, b) in graph.weights else (b, a))
                    yield frozenset(edges)

    try:
        for s in graph.vertices:
            for t in adj[s]:
                if order[t] > order[s]:
                    yield from extend([s, t], {s, t})
    except _Spent:
        yield None


# -- total unimodularity ----------------------------------------------------

MAX_DET_ORDER = 8


def _tu_by_determinants(rows, cols, entries, budget: _Budget) -> Verdict:
    m, n = len(rows), len(cols)
    cap = min(MAX_DET_ORDER, m, n)
    for k in range(2, cap + 1):
        for ri in itertools.combinations(range(m), k):
            sub = [entries[i] for i in ri]
            for cj in itertools.combinations(range(n), k):
                budget.spend()
                d = det_int([[row[j] for j in cj] for row in sub])
                if abs(d) >= 2:
                    return Verdict(False, "determinant",
                                   witness={"rows": tuple(rows[i] for i in ri),
                                            "cols": tuple(cols[j] for j in cj),
                                            "det": d},
                                   budget_used=budget.used)
    status = None if min(m, n) > MAX_DET_ORDER else True
    return Verdict(status, "determinant", budget_used=budget.used)


def _signed_edges(lines) -> Optional[list]:
    """One signed edge (line, i, k, equal) for each line with two nonzeros,
    at positions i < k, where equal tells whether they have the same sign;
    None as soon as a line has three or more nonzeros."""
    edges = []
    for line, values in enumerate(lines):
        nonzero = [i for i, v in enumerate(values) if v]
        if len(nonzero) > 2:
            return None
        if len(nonzero) == 2:
            i, k = nonzero
            edges.append((line, i, k, values[i] == values[k]))
    return edges


def _tree_cycle(parent, u, v, closing) -> list:
    """The edges of the cycle that the non-tree edge `closing` between u and
    v closes in a forest of parent pointers (node -> (parent, edge))."""
    depth = {}
    up_u = []
    x = u
    while True:
        depth[x] = len(up_u)
        if parent[x] is None:
            break
        x, e = parent[x]
        up_u.append(e)
    up_v = []
    x = v
    while x not in depth:
        x, e = parent[x]
        up_v.append(e)
    return up_u[:depth[x]] + up_v + [closing]


def _tu_by_signed_colouring(rows, cols, entries,
                            budget: _Budget) -> Optional[Verdict]:
    """Heller-Tompkins test, in Ghouila-Houri's form, for a 0/+-1 matrix
    with at most two nonzeros in every column (or in every row): it is TU
    iff its rows (columns) have a 2-colouring in which a column (row) with
    two equal signs joins opposite sides and one with opposite signs joins
    one side.  None when neither orientation has that shape.

    A breadth-first colouring charges one budget unit per signed edge.  A
    parity conflict closes a cycle of the forest; every line on it has only
    its two cycle edges, so the cycle is chordless, and it holds an odd
    number of equal-sign lines, so it is b-odd.
    """
    edges = _signed_edges(zip(*entries))
    transposed = edges is None
    if transposed:
        edges = _signed_edges(entries)
        if edges is None:
            return None
    adj = {}
    for e, (_, i, k, _) in enumerate(edges):
        adj.setdefault(i, []).append((k, e))
        adj.setdefault(k, []).append((i, e))
    side, parent = {}, {}
    examined = [False] * len(edges)
    for root in adj:
        if root in side:
            continue
        side[root], parent[root] = 0, None
        queue = [root]
        for u in queue:
            for v, e in adj[u]:
                if examined[e]:
                    continue
                budget.spend()
                examined[e] = True
                want = side[u] ^ edges[e][3]
                if v not in side:
                    side[v], parent[v] = want, (u, e)
                    queue.append(v)
                elif side[v] != want:
                    cells = set()
                    for f in _tree_cycle(parent, u, v, e):
                        line, i, k, _ = edges[f]
                        cells |= ({(line, i), (line, k)} if transposed
                                  else {(i, line), (k, line)})
                    witness = frozenset((rows[i], cols[j]) for i, j in cells)
                    if (_odd_vertices(witness)
                            or sum(entries[i][j] for i, j in cells) % 4 != 2):
                        raise InvalidArgument(
                            "signed colouring closed a cycle that is not a "
                            "b-odd circuit")
                    return Verdict(False, "circuit", witness=witness,
                                   budget_used=budget.used)
    return Verdict(True, "circuit", budget_used=budget.used)


def _tu_core(entries) -> tuple:
    """(row indices, column indices) of the core of a 0/+-1 matrix: every
    line with at most one nonzero, and every line equal to an earlier kept
    line or its negative, is deleted until none is left.  Both deletions
    keep TU in both directions (Schrijver 1986, ch. 19)."""
    rows = {i: {j: v for j, v in enumerate(row) if v}
            for i, row in enumerate(entries)}
    cols = {j: {} for j in range(len(entries[0]) if entries else 0)}
    for i, line in rows.items():
        for j, v in line.items():
            cols[j][i] = v
    # Lines list their nonzeros in index order.  A side is dirty while a
    # deletion on the other side may have left it a reducible line.
    dirty, side = [True, True], 0
    while dirty[side]:
        dirty[side] = False
        lines, other = (rows, cols) if side == 0 else (cols, rows)
        kept = set()
        for i, line in list(lines.items()):
            if len(line) > 1:
                key = tuple(line.items())
                if key[0][1] < 0:
                    key = tuple((j, -v) for j, v in key)
                if key not in kept:
                    kept.add(key)
                    continue
            del lines[i]
            for j in line:
                del other[j][i]
            dirty[1 - side] = True
        side = 1 - side
    return list(rows), list(cols)


def _has_four_cycle(entries) -> bool:
    """Whether two rows share two nonzero columns."""
    pairs = [pair for row in entries for pair in itertools.combinations(
        [j for j, v in enumerate(row) if v], 2)]
    return len(set(pairs)) < len(pairs)


def _tu_by_circuit_search(graph: IncidenceGraph, budget: _Budget) -> Verdict:
    """The first chordless b-odd circuit of the graph, or True when there is
    none; the budget caps the search nodes."""
    for cycle in enumerate_chordless_cycles(graph, budget=budget):
        if cycle is None:
            raise _Spent
        if sum(graph.weights[e] for e in cycle) % 4 == 2:
            return Verdict(False, "circuit", witness=cycle,
                           budget_used=budget.used)
    return Verdict(True, "circuit", budget_used=budget.used)


def is_totally_unimodular(matrix: Union[IntegerMatrix, list],
                          strategy: str = "circuit",
                          budget: Optional[int] = None) -> Verdict:
    """Decide total unimodularity of an integer matrix (an IntegerMatrix, or
    a list of rows labelled ("r", i) and ("c", j)).

    An entry outside 0/+-1 is its own 1x1 witness.  strategy="determinant"
    checks square submatrices of order 2..8 (the budget caps the submatrices
    checked) and returns an offending submatrix as witness; it is
    inconclusive beyond order 8.  strategy="circuit" returns a chordless
    b-odd circuit of the bipartite graph representation as witness.  When
    every column, or every row, has at most two nonzeros, it decides by the
    Heller-Tompkins signed 2-colouring in linear time (the budget caps the
    signed edges examined).  Otherwise it tries the colouring again on the
    matrix's core (`_tu_core`), a submatrix, and else searches the core's
    chordless cycles (the budget caps the search nodes), so budget_used
    counts the work done on the core.  No chordless b-odd circuit only shows
    that the matrix is balanced.  So if two rows of the core share two
    nonzero columns, the core's determinants decide on the same budget
    (witness {"rows", "cols", "det"}; more than 8 rows and columns is
    inconclusive).  A boundary matrix has no such pair: two (p+1)-simplices
    share at most one p-face.  That the search is exact without one is not
    proven here.  A spent budget gives status None; budget_used counts the
    units spent.  A negative budget raises InvalidArgument.
    """
    if strategy not in ("circuit", "determinant"):
        raise InvalidArgument(f"unknown strategy {strategy!r}")
    budget = _Budget.of(budget)
    rows, cols, entries = _labelled(matrix)
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v not in (-1, 0, 1):
                return Verdict(False, strategy,
                               witness={"rows": (rows[i],), "cols": (cols[j],),
                                        "det": v},
                               budget_used=budget.used)
    try:
        if strategy == "determinant":
            return _tu_by_determinants(rows, cols, entries, budget)
        verdict = _tu_by_signed_colouring(rows, cols, entries, budget)
        if verdict is None:
            ri, cj = _tu_core(entries)
            rows = tuple(rows[i] for i in ri)
            cols = tuple(cols[j] for j in cj)
            entries = [[entries[i][j] for j in cj] for i in ri]
            verdict = _tu_by_signed_colouring(rows, cols, entries, budget)
        if verdict is None:
            verdict = _tu_by_circuit_search(IncidenceGraph.from_matrix(
                IntegerMatrix(rows, cols, entries)), budget)
            if verdict.status and _has_four_cycle(entries):
                verdict = Verdict(None, "circuit", budget_used=budget.used)
                if min(len(rows), len(cols)) <= MAX_DET_ORDER:
                    verdict = _tu_by_determinants(rows, cols, entries, budget)
                    verdict.mode = "circuit"
        return verdict
    except _Spent:
        return Verdict(None, strategy, budget_used=budget.used)


# -- circuit transport under a contraction ----------------------------------

def _graph_dim(circuit) -> int:
    """p of the G_{p+1} graph a circuit lives in, from its column labels."""
    for (tau, sigma) in circuit:
        return len(tau) - 1
    raise InvalidArgument("empty circuit has no dimension")


def map_circuit_f(contraction: EdgeContraction, circuit) -> Circuit:
    """Image of a circuit of G_{p+1}(source) in G_{p+1}(target).

    Mirror connections collapse to a vertex; every other edge maps through the
    contraction.  The circuit must avoid collapsing p-vertices and mirror
    (p+1)-vertex pairs.
    """
    taus = {tau for (tau, _) in circuit}
    sigmas = {sigma for (_, sigma) in circuit}
    for tau in taus:
        if contraction.fate(tau) == COLLAPSING:
            raise CircuitDomainError(
                f"circuit contains collapsing p-vertex {tau}")
    for sigma in sigmas:
        partner = contraction.partner(sigma)
        if partner in sigmas:
            raise CircuitDomainError(
                f"circuit contains mirror (p+1)-vertex pair "
                f"{sigma}, {partner}")
    image = set()
    for (tau, sigma) in circuit:
        if contraction.fate(sigma) == COLLAPSING:
            continue                      # mirror connection -> vertex
        e = (contraction.image(tau), contraction.image(sigma))
        if e in image:
            raise InvalidArgument(f"unexpected edge collision on {e}")
        image.add(e)
    if _odd_vertices(image):
        raise InvalidArgument("image is not a circuit")
    return frozenset(image)


def construct_preimage_circuit(contraction: EdgeContraction,
                               target_circuit) -> Circuit:
    """Build a domain circuit whose image equals the given target circuit.

    Takes every preimage edge whose (p+1)-simplex is neither collapsing nor
    the b side of a mirror pair, then joins each odd mirror pair of
    p-simplices through its mirror connection (their common coface).
    """
    if not target_circuit:
        return frozenset()
    p = _graph_dim(target_circuit)
    a, b = contraction.a, contraction.b
    src = contraction.source
    if not src.satisfies_p_link(tuple(sorted((a, b))), p):
        raise PreconditionError(
            f"edge ({a},{b}) does not satisfy the {p}-link condition")
    target = frozenset(target_circuit)

    S = set()
    for sigma in src.p_simplices(p + 1):
        fate = contraction.fate(sigma)
        if fate == COLLAPSING or (fate == MIRROR and b in sigma):
            continue
        img = contraction.image(sigma)
        for k in range(len(sigma)):
            tau = sigma[:k] + sigma[k + 1:]
            if (contraction.image(tau), img) in target:
                S.add((tau, sigma))

    odd = _odd_vertices(S)
    for tau1 in sorted(v for v in odd if len(v) == p + 1):
        tau2 = contraction.partner(tau1)
        if tau2 is None or tau1 > tau2 or tau2 not in odd:
            continue
        sigma = tuple(sorted(set(tau1) | set(tau2)))
        if sigma not in src.simplices:
            raise PreconditionError(
                f"mirror connection coface {sigma} missing from source")
        S |= {(tau1, sigma), (tau2, sigma)}

    if _odd_vertices(S):
        raise InvalidArgument("preimage construction left odd degrees")
    circuit = frozenset(S)
    if map_circuit_f(contraction, circuit) != target:
        raise InvalidArgument("preimage circuit does not map onto the target")
    return circuit
