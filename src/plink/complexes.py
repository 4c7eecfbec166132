"""Simplicial complexes, star/link/closure operators, and edge contraction.

Simplices are canonical ascending tuples of non-negative integer vertex ids.
Orientation signs are carried by chain coefficients, never by reordering the
stored vertices, so simplex identity is a pure set question.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Optional

Simplex = tuple[int, ...]
# A chain is a dict mapping canonical simplices (all of one dimension) to
# nonzero integer or Fraction coefficients.
Chain = dict


class InvalidArgument(ValueError):
    """An operation was applied outside its stated domain."""


def canon(vertices: Iterable[int]) -> Simplex:
    """Canonical ascending form of a simplex given as any vertex iterable."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise InvalidArgument("a simplex needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise InvalidArgument(f"duplicate vertices in {vs}")
    if vs[0] < 0:
        raise InvalidArgument(f"negative vertex id in {vs}")
    return vs


def faces_of(simplex: Simplex) -> Iterable[Simplex]:
    """All nonempty faces of a simplex, the simplex itself included."""
    for k in range(1, len(simplex) + 1):
        yield from itertools.combinations(simplex, k)


def boundary_of(simplex: Simplex) -> Chain:
    """Boundary chain of one canonically oriented simplex."""
    if len(simplex) == 1:
        return {}
    out = {}
    for j in range(len(simplex)):
        face = simplex[:j] + simplex[j + 1:]
        out[face] = 1 if j % 2 == 0 else -1
    return out


def chain_boundary(chain: Chain) -> Chain:
    out: Chain = {}
    for simplex, coeff in chain.items():
        for face, sign in boundary_of(simplex).items():
            c = out.get(face, 0) + sign * coeff
            if c:
                out[face] = c
            else:
                out.pop(face, None)
    return out


def _weights(simplices: frozenset, weights: Optional[Mapping]) -> dict:
    """Canonical simplex -> Fraction weight; a simplex outside the complex, a
    negative weight or weights on two dimensions is an InvalidArgument."""
    w = {}
    for s, wt in (weights or {}).items():
        s = canon(s)
        if s not in simplices:
            raise InvalidArgument(f"weighted simplex {s} not in complex")
        wt = Fraction(wt)
        if wt < 0:
            raise InvalidArgument(f"negative weight on {s}")
        w[s] = wt
    if len({len(s) for s in w}) > 1:
        raise InvalidArgument("weights must live on a single dimension")
    return w


class SimplicialComplex:
    """Face-closed set of simplices with optional weights on one dimension."""

    def __init__(self, simplices: Iterable[Simplex],
                 weights: Optional[Mapping[Simplex, Fraction]] = None):
        ss = frozenset(canon(s) for s in simplices)
        # Checking codimension-1 faces suffices: by induction on dimension
        # they reach every face.
        for s in ss:
            if len(s) == 1:
                continue
            for j in range(len(s)):
                f = s[:j] + s[j + 1:]
                if f not in ss:
                    raise InvalidArgument(
                        f"not face-closed: {f} missing (face of {s})")
        self.simplices = ss
        self.weights = _weights(ss, weights)

    @classmethod
    def _trusted(cls, simplices: frozenset, weights: dict, cofaces=None,
                 edges=None) -> "SimplicialComplex":
        """A complex from parts already canonical, face-closed and consistent,
        unchecked; a coface index or edge list left None is built on use."""
        cx = cls.__new__(cls)
        cx.simplices = simplices
        cx.weights = weights
        if cofaces is not None:
            cx._cofaces = cofaces
        if edges is not None:
            cx._edges = edges
        return cx

    @classmethod
    def from_maximal(cls, simplices: Iterable[Iterable[int]],
                     weights: Optional[Mapping] = None) -> "SimplicialComplex":
        """Build from generators; the face closure is taken automatically.
        The closure of canonical generators is canonical and face-closed,
        so only the weights are checked."""
        closed = set()
        for s in simplices:
            closed.update(faces_of(canon(s)))
        # Built entry by entry, as __init__ builds it: a copy of the set
        # would get a denser hash table, and slower lookups in every
        # contraction that inherits it.
        ss = frozenset(iter(closed))
        return cls._trusted(ss, _weights(ss, weights))

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def p_simplices(self, p: int) -> list[Simplex]:
        """All p-simplices in canonical (lexicographic) order."""
        return sorted(s for s in self.simplices if len(s) == p + 1)

    @property
    def vertices(self) -> list[int]:
        return sorted(s[0] for s in self.simplices if len(s) == 1)

    @cached_property
    def _edges(self) -> list:
        """The sorted edge list that edges copies.  A contraction target is
        handed its source's list, edited around St b, if the source's list
        was built; it is never mutated once stored."""
        return self.p_simplices(1)

    @property
    def edges(self) -> list[Simplex]:
        """All edges in canonical order, as a fresh list."""
        return list(self._edges)

    def weight(self, simplex: Simplex) -> Fraction:
        """Weight of a simplex; unweighted simplices default to 1."""
        return self.weights.get(simplex, Fraction(1))

    def __contains__(self, simplex) -> bool:
        return tuple(sorted(simplex)) in self.simplices

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.simplices == other.simplices
                and self.weights == other.weights)

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return (f"SimplicialComplex({len(self.vertices)} vertices, "
                f"{len(self.simplices)} simplices, dim {self.dim})")

    def _require(self, subset) -> frozenset:
        sub = frozenset(canon(s) for s in subset)
        for s in sub:
            if s not in self.simplices:
                raise InvalidArgument(f"simplex {s} not in complex")
        return sub

    # -- neighborhood operators ---------------------------------------------

    def closure(self, subset: Iterable[Simplex]) -> frozenset:
        """Minimal face-closed superset of the given simplices."""
        sub = self._require(subset)
        out = set()
        for s in sub:
            out.update(faces_of(s))
        return frozenset(out)

    @cached_property
    def _cofaces(self) -> dict:
        """Vertex -> every simplex containing it.  A complex built by
        __init__ builds it on its first star or link query: most (homology
        inputs, oracle pairs) never make one.  A contraction target inherits
        its source's index and shares the entries of vertices outside the
        closed star of b, so an entry must never be mutated."""
        index: dict = {}
        for s in self.simplices:
            for v in s:
                index.setdefault(v, []).append(s)
        return index

    def _cofaces_of(self, simplex: Simplex) -> list:
        """All simplices containing the given one, itself included."""
        index = self._cofaces
        pool = min((index[v] for v in simplex), key=len)
        if len(simplex) == 1:
            return pool
        verts = set(simplex)
        return [t for t in pool if verts.issubset(t)]

    def star(self, subset: Iterable[Simplex]) -> frozenset:
        """All cofaces of the given simplices (themselves included)."""
        sub = self._require(subset)
        out = set()
        for x in sub:
            out.update(self._cofaces_of(x))
        return frozenset(out)

    def link(self, subset: Iterable[Simplex]) -> frozenset:
        """Lk X = closure(star X) minus star(closure X)."""
        sub = self._require(subset)
        return self.closure(self.star(sub)) - self.star(self.closure(sub))

    # -- link conditions ----------------------------------------------------

    def _edge(self, edge: Iterable[int]) -> Simplex:
        e = canon(edge)
        if len(e) != 2 or e not in self.simplices:
            raise InvalidArgument(f"{e} is not an edge of the complex")
        return e

    def link_defect(self, edge: Iterable[int]) -> frozenset:
        """(Lk a && Lk b) minus Lk ab: the simplices that break the link
        condition of edge ab.  Lk ab is always a subset of Lk a && Lk b."""
        return self._link_defect(self._edge(edge))

    def _link_defect(self, edge: Simplex) -> frozenset:
        """link_defect of an edge already known to be a canonical edge of
        the complex, read in one pass over the smaller star.

        With u the endpoint of the smaller star and v the other, a sigma
        avoiding both lies in Lk u && Lk v iff sigma+u and sigma+v are in
        K, and in Lk uv iff sigma+u+v is.  So each coface t of u without
        v gives sigma = t - u, in the defect iff sigma+v is in K and t+v
        is not: two lookups per coface.  The vertex u itself gives the
        empty sigma, which t+v = uv always rules out.
        """
        u, v = edge
        index = self._cofaces
        if len(index[v]) < len(index[u]):
            u, v = v, u
        K = self.simplices
        out = []
        for t in index[u]:
            if v in t:
                continue
            i = t.index(u)
            sigma = t[:i] + t[i + 1:]
            # v's slot in sigma, and in t, which holds u at i
            j = bisect_left(sigma, v)
            if sigma[:j] + (v,) + sigma[j:] not in K:
                continue
            k = j + (u < v)
            if t[:k] + (v,) + t[k:] not in K:
                out.append(sigma)
        return frozenset(out)

    def satisfies_p_link(self, edge: Iterable[int], p: int) -> bool:
        """True iff p <= 0 or every (p-1)-simplex of Lk a && Lk b is in Lk ab."""
        e = self._edge(edge)
        if p <= 0:
            return True
        return p_link_holds(self._link_defect(e), p)

    def satisfies_link_condition(self, edge: Iterable[int]) -> bool:
        """True iff Lk a && Lk b equals Lk ab as sets."""
        return not self.link_defect(edge)


def p_link_holds(defect: frozenset, p: int) -> bool:
    """The p-link verdict of an edge, read off its link defect: True iff
    p <= 0 or the defect holds no (p-1)-simplex."""
    return p <= 0 or all(len(x) != p for x in defect)


# -- edge contraction -------------------------------------------------------

MIRROR = "mirror"
COLLAPSING = "collapsing"
INJECTIVE = "injective"


def _image(simplex: Simplex, a: int, b: int) -> Simplex:
    """Image of a simplex under the vertex map b -> a."""
    if b not in simplex:
        return simplex
    if a in simplex:
        return tuple(v for v in simplex if v != b)
    return tuple(sorted(a if v == b else v for v in simplex))


@dataclass(frozen=True)
class EdgeContraction:
    """The simplicial map induced by the vertex map b -> a.

    A source simplex holding both a and b collapses.  One holding exactly one
    of them is a mirror when its twin, the same simplex with the other
    endpoint in that place, is also in the source; the two share an image.
    Every other simplex maps injectively.
    """
    source: SimplicialComplex
    target: SimplicialComplex
    a: int                       # surviving vertex
    b: int                       # removed vertex

    def _in_source(self, simplex: Simplex) -> Simplex:
        if simplex not in self.source.simplices:
            raise InvalidArgument(
                f"{simplex} is not a canonical source simplex")
        return simplex

    def image(self, simplex: Simplex) -> Simplex:
        return _image(self._in_source(simplex), self.a, self.b)

    def partner(self, simplex: Simplex) -> Optional[Simplex]:
        """The twin of a mirror simplex (a and b swapped), else None."""
        a, b = self.a, self.b
        twin = tuple(sorted(b if v == a else a if v == b else v
                            for v in self._in_source(simplex)))
        mirror = twin != simplex and twin in self.source.simplices
        return twin if mirror else None

    def fate(self, simplex: Simplex) -> str:
        """COLLAPSING, MIRROR or INJECTIVE."""
        if self.partner(simplex) is not None:
            return MIRROR
        if self.a in simplex and self.b in simplex:
            return COLLAPSING
        return INJECTIVE


def contract_edge(complex: SimplicialComplex, edge: Iterable[int],
                  keep: Optional[int] = None) -> EdgeContraction:
    """Contract an edge, identifying vertex b with vertex a.

    By default the smaller endpoint survives; pass keep= to override.

    Only St b, read from the coface index, is mapped: the target is
    (K - St b) plus the images of St b.  A collapsing simplex maps to its
    face without b and a mirror to its twin, both already in K - St b, so
    the new simplices are the injective images.  The image of a
    face-closed complex is face-closed, so the target skips validation,
    and it inherits the source's coface index: vertices outside the
    closed star of b share their entries, the others get new ones.  If
    the source's edge list was built, the target is handed a copy with
    the edges of St b taken out and the new edges put in.
    """
    e = complex._edge(edge)
    if keep is None:
        a, b = e
    elif keep in e:
        a = keep
        b = e[0] if e[1] == keep else e[1]
    else:
        raise InvalidArgument(f"keep={keep} is not an endpoint of {e}")

    index = complex._cofaces
    star_b = index[b]
    source = complex.simplices
    kept = source.difference(star_b)
    new = []
    for s in star_b:
        if a not in s:
            img = _image(s, a, b)
            if img not in source:
                new.append(img)

    cofaces = dict(index)
    del cofaces[b]
    for v in {v for s in star_b for v in s if v != b}:
        cofaces[v] = ([t for t in index[v] if b not in t]
                      + [t for t in new if v in t])

    edges = complex.__dict__.get("_edges")
    if edges is not None:
        edges = list(edges)
        for s in star_b:
            if len(s) == 2:
                del edges[bisect_left(edges, s)]
        for s in new:
            if len(s) == 2:
                insort(edges, s)

    weights = {}
    if complex.weights:
        wdim = len(next(iter(complex.weights)))
        # every simplex of the weighted dimension keeps an explicit weight,
        # 1 where the source had none: serialize_scx prints it
        for s in kept:
            if len(s) == wdim:
                weights[s] = complex.weight(s)
        for s in star_b:
            if len(s) == wdim and a not in s:
                img = _image(s, a, b)
                w = complex.weight(s)
                if img in source:
                    # a mirror merge keeps the smaller weight of the two
                    # preimages, an unweighted twin counting as 1
                    w = min(w, complex.weight(img))
                weights[img] = w
    target = SimplicialComplex._trusted(kept.union(new), weights, cofaces,
                                        edges)
    return EdgeContraction(source=complex, target=target, a=a, b=b)


def push_sign(simplex: Simplex, b: int, a: int) -> int:
    """Parity correction when b is renamed to a and vertices are re-sorted."""
    if b not in simplex:
        return 1
    i = simplex.index(b)
    others = [v for v in simplex if v != b]
    j = sum(1 for v in others if v < a)
    return 1 if (i - j) % 2 == 0 else -1


def push_chain(contraction: EdgeContraction, chain: Chain) -> Chain:
    """Transport a chain along the contraction's induced chain map.

    Collapsing simplices map to zero (dimension drops); mirror pairs merge
    with coefficient addition after sign correction.  Every key must be a
    canonical simplex of the source: a reordered key would lose its sign.
    """
    out: Chain = {}
    for s, coeff in chain.items():
        if contraction.fate(s) == COLLAPSING:
            continue
        img = contraction.image(s)
        sign = push_sign(s, contraction.b, contraction.a)
        c = out.get(img, 0) + sign * coeff
        if c:
            out[img] = c
        else:
            out.pop(img, None)
    return out
