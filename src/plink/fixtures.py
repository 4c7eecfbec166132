"""Named example complexes and a seeded random complex generator.

The contraction-helps-the-solver instance ("mobius-ohcp") is a weighted
7-triangle Moebius band whose core cycle is the input chain: the fractional
optimum slides half of the cycle across the band (all multipliers +-1/2),
beating every integral chain.  Contracting one core edge, which satisfies the
1-link condition, removes the twist obstruction and closes the gap.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .complexes import InvalidArgument, SimplicialComplex, canon
from .ohcp import OHCPInstance


def mobius(k: int = 5) -> SimplicialComplex:
    """Minimal-style Moebius strip on k vertices and k triangles (k >= 5 odd)."""
    if k < 5 or k % 2 == 0:
        raise InvalidArgument("mobius needs odd k >= 5")
    return SimplicialComplex.from_maximal(
        [(i, (i + 1) % k, (i + 2) % k) for i in range(k)])


def mobius_boundary(k: int = 5) -> SimplicialComplex:
    """The boundary circle of mobius(k): edges lying in exactly one triangle."""
    if k < 5 or k % 2 == 0:
        raise InvalidArgument("mobius needs odd k >= 5")
    return SimplicialComplex.from_maximal(
        [canon((i, (i + 2) % k)) for i in range(k)])


def punctured_mobius(k: int = 15) -> SimplicialComplex:
    """mobius(k) with the triangle on boundary edge (0, 2) removed; the freed
    edge (0, 2) is kept, now on the boundary."""
    strip = mobius(k)
    tris = [t for t in strip.p_simplices(2) if t != (0, 1, 2)]
    return SimplicialComplex.from_maximal(tris + [(0, 1), (0, 2), (1, 2)])


PUNCTURED_MOBIUS_EDGE = (0, 2)


def annulus(k: int = 4) -> SimplicialComplex:
    """Triangulated annulus: inner rim 0..k-1, outer rim k..2k-1."""
    if k < 3:
        raise InvalidArgument("annulus needs k >= 3")
    tris = []
    for i in range(k):
        j = (i + 1) % k
        tris.append((i, j, k + i))
        tris.append((j, k + i, k + j))
    return SimplicialComplex.from_maximal(tris)


def cone(n: int = 4) -> SimplicialComplex:
    """Cone over an n-cycle (a closed star of the apex vertex n)."""
    if n < 3:
        raise InvalidArgument("cone needs n >= 3")
    return SimplicialComplex.from_maximal(
        [(i, (i + 1) % n, n) for i in range(n)])


# Vertices of the two link-condition figure complexes: the tetrahedron abde
# adjoins the edge ab; the left complex lacks the top triangle abc.
PLINK_VERTICES = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}


def fig_plink_left() -> SimplicialComplex:
    v = PLINK_VERTICES
    return SimplicialComplex.from_maximal(
        [(v["a"], v["b"], v["d"], v["e"]), (v["a"], v["c"]), (v["b"], v["c"])])


def fig_plink_right() -> SimplicialComplex:
    v = PLINK_VERTICES
    return SimplicialComplex.from_maximal(
        [(v["a"], v["b"], v["d"], v["e"]), (v["a"], v["b"], v["c"])])


# -- the contraction-helps-OHCP instance ------------------------------------

MOBIUS_OHCP_K = 7
# a core edge; contracting it removes the twist and makes [d_2] TU
MOBIUS_OHCP_CONTRACT_EDGE = (0, 1)


def mobius_ohcp_chain() -> dict:
    """The core cycle 0 -> 1 -> ... -> k-1 -> 0, coherently oriented."""
    k = MOBIUS_OHCP_K
    chain = {}
    for i in range(k):
        a, b = i, (i + 1) % k
        e = canon((a, b))
        chain[e] = 1 if (a, b) == e else -1
    return chain


def mobius_ohcp() -> SimplicialComplex:
    """mobius(7) with cheap boundary edges (1/10) and unit core edges."""
    k = MOBIUS_OHCP_K
    cx = mobius(k)
    boundary = {canon((i, (i + 2) % k)) for i in range(k)}
    weights = {e: (Fraction(1, 10) if e in boundary else Fraction(1))
               for e in cx.edges}
    return SimplicialComplex(cx.simplices, weights)


def mobius_ohcp_instance() -> OHCPInstance:
    return OHCPInstance(complex=mobius_ohcp(), p=1, chain=mobius_ohcp_chain())


# -- registry and random generation -----------------------------------------

# name -> (builder, the one size parameter it takes, if any)
FIXTURES = {
    "mobius": (mobius, "k"),
    "mobius-boundary": (mobius_boundary, "k"),
    "punctured-mobius": (punctured_mobius, "k"),
    "annulus": (annulus, "k"),
    "cone": (cone, "n"),
    "fig-plink-left": (fig_plink_left, None),
    "fig-plink-right": (fig_plink_right, None),
    "mobius-ohcp": (mobius_ohcp, None),
}
FIXTURE_NAMES = tuple(FIXTURES)


def generate(name: str, **params) -> SimplicialComplex:
    """Build a named fixture; a size parameter it does not take is an
    InvalidArgument."""
    if name not in FIXTURES:
        raise InvalidArgument(f"unknown fixture {name!r}")
    build, param = FIXTURES[name]
    extra = sorted(set(params) - {param})
    if extra:
        size = f"its size is {param}" if param else "it has no size"
        raise InvalidArgument(f"fixture {name!r} has no size parameter "
                              f"{extra[0]} ({size})")
    return build(params[param]) if param in params else build()


def random_complex(rng: random.Random, n_vertices: int = 8, max_dim: int = 3,
                   n_generators: int = 6) -> SimplicialComplex:
    """Random face-closed complex from a handful of generator simplices."""
    gens = []
    for _ in range(n_generators):
        d = rng.randint(0, max_dim)
        verts = rng.sample(range(n_vertices), min(d + 1, n_vertices))
        gens.append(tuple(verts))
    return SimplicialComplex.from_maximal(gens)
