"""The whole cycle space of an incidence graph: a brute-force circuit
source for the tests (small graphs only)."""
from plink.complexes import InvalidArgument
from plink.tugraph import _tree_cycle

MAX_CIRCUITS = 1 << 20


def enumerate_circuits(graph):
    """Every nonempty element of the cycle space (all circuits), via GF(2)
    combinations of fundamental cycles.  For small graphs only: raises when
    there are more than MAX_CIRCUITS."""
    parent = {}             # a spanning forest: node -> (parent, edge)
    for root in graph.vertices:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            for w in sorted(graph.adj[v], key=str):
                if w not in parent:
                    parent[w] = (v, (v, w) if (v, w) in graph.weights
                                 else (w, v))
                    stack.append(w)
    # each non-tree edge closes one fundamental cycle of the spanning forest
    tree_edges = {up[1] for up in parent.values() if up}
    fundamentals = [frozenset(_tree_cycle(parent, r, c, (r, c)))
                    for (r, c) in graph.weights if (r, c) not in tree_edges]
    k = len(fundamentals)
    if (1 << k) - 1 > MAX_CIRCUITS:
        raise InvalidArgument(f"cycle space too large: 2^{k} circuits")
    for mask in range(1, 1 << k):
        acc: set = set()
        for i in range(k):
            if mask >> i & 1:
                acc ^= fundamentals[i]
        if acc:
            yield frozenset(acc)
