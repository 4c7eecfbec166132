import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plink.complexes import (COLLAPSING, INJECTIVE, MIRROR, InvalidArgument,
                             SimplicialComplex, boundary_of, canon,
                             chain_boundary, contract_edge, faces_of,
                             push_chain, push_sign)
from plink import pipeline
from plink.fixtures import annulus, cone, mobius, random_complex
from plink.scxio import serialize_scx

simplex_st = st.sets(st.integers(0, 9), min_size=1, max_size=4).map(tuple)


def brute_star(cx, subset):
    return {s for s in cx.simplices
            if any(set(x) <= set(s) for x in subset)}


def brute_closure(cx, subset):
    out = set()
    for s in subset:
        out.update(faces_of(s))
    return out


# Slow reference oracle: the closure/star definition of the link and the
# link conditions compared as sets, sharing no code with the coface index.

def brute_link(cx, subset):
    return (brute_closure(cx, brute_star(cx, subset))
            - brute_star(cx, brute_closure(cx, subset)))


def coface_link(cx, s):
    """The link of one simplex s as {t minus s : t a proper coface of s}."""
    return {tuple(u for u in t if u not in s) for t in cx.simplices
            if set(s) < set(t)}


def brute_edge_links(cx, e):
    a, b = e
    common = brute_link(cx, [(a,)]) & brute_link(cx, [(b,)])
    return common, brute_link(cx, [e])


def brute_p_link(cx, e, p):
    if p <= 0:
        return True
    common, lk_ab = brute_edge_links(cx, e)
    return all(x in lk_ab for x in common if len(x) == p)


def brute_link_condition(cx, e):
    common, lk_ab = brute_edge_links(cx, e)
    return common == lk_ab


def three_link_defect(cx, e):
    """Reference for link_defect: (Lk a && Lk b) minus Lk ab, from three
    links of single simplices, each closure(star) minus star(closure)."""
    a, b = e
    return (cx.link([(a,)]) & cx.link([(b,)])) - cx.link([e])


def brute_gate_record(cx, edge, policy):
    if policy.scope == pipeline.FULL_LINK:
        return {"full": brute_link_condition(cx, edge)}
    return {p: brute_p_link(cx, edge, p)
            for p in sorted(policy.required_conditions)}


# -- canon / faces / boundary -------------------------------------------------

def test_canon_sorts():
    assert canon((3, 1, 2)) == (1, 2, 3)


def test_canon_rejects_duplicates_and_negatives():
    with pytest.raises(InvalidArgument):
        canon((1, 1, 2))
    with pytest.raises(InvalidArgument):
        canon((-1, 2))
    with pytest.raises(InvalidArgument):
        canon(())


def test_canon_errors_name_the_vertices():
    # a generator argument is consumed by the sort: the messages once
    # printed "<generator object ...>"
    with pytest.raises(InvalidArgument, match=r"duplicate vertices in "
                                              r"\(0, 0, 1\)"):
        canon(v for v in (1, 0, 0))
    with pytest.raises(InvalidArgument, match=r"negative vertex id in "
                                              r"\(-1, 2\)"):
        canon(v for v in (2, -1))


@given(simplex_st)
def test_faces_count(s):
    assert len(list(faces_of(s))) == 2 ** len(s) - 1


@given(simplex_st)
def test_boundary_squares_to_zero(s):
    assert chain_boundary(boundary_of(s)) == {}


def test_boundary_of_triangle():
    assert boundary_of((0, 1, 2)) == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


# -- complex construction -----------------------------------------------------

def test_rejects_non_face_closed():
    with pytest.raises(InvalidArgument):
        SimplicialComplex([(0, 1, 2)])


def test_from_maximal_closes():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    assert len(cx.simplices) == 7
    assert cx.dim == 2
    assert cx.vertices == [0, 1, 2]


def draw_weights(r, closure):
    """Weights on some simplices of one dimension of the closure, keyed in a
    shuffled vertex order and given as strings, ints or Fractions."""
    if not closure:
        return {}
    d = r.choice(sorted({len(s) for s in closure}))
    pool = sorted(s for s in closure if len(s) == d)
    return {tuple(r.sample(s, len(s))):
            r.choice(["1/3", "7/2", "0", 2, 0, Fraction(5, 7)])
            for s in r.sample(pool, r.randint(1, len(pool)))}


def test_from_maximal_matches_checked_constructor():
    # from_maximal skips __init__'s closure checks; with or without weights
    # it must build the same complex as __init__ on the closure of the
    # generators
    r = random.Random(0xC105)
    rw = random.Random(0xC106)
    for _ in range(200):
        gens = [tuple(r.sample(range(8), r.randint(1, 4)))
                for _ in range(r.randint(0, 6))]
        gens += [g[::-1] for g in r.sample(gens, len(gens) // 2)]   # repeats
        gens += [g[:r.randint(1, len(g))] for g in gens[:2]]        # faces
        r.shuffle(gens)
        closure = {f for g in gens for f in faces_of(tuple(sorted(g)))}
        for weights in (None, draw_weights(rw, closure)):
            cx = SimplicialComplex.from_maximal(gens, weights)
            ref = SimplicialComplex(closure, weights)
            assert cx == ref
            assert (cx.simplices, cx.weights, cx.dim) == (ref.simplices,
                                                         ref.weights, ref.dim)
    for bad in [(), (1, 1), (0, -1), (2, 3, 2)]:
        with pytest.raises(InvalidArgument):
            SimplicialComplex.from_maximal([(0, 1), bad])


def weight_errors(gens, weights):
    """The InvalidArgument messages of from_maximal and of __init__ on the
    closure of the generators, for the same weights."""
    closure = {f for g in gens for f in faces_of(canon(g))}
    messages = []
    for build in (lambda: SimplicialComplex.from_maximal(gens, weights),
                  lambda: SimplicialComplex(closure, weights)):
        with pytest.raises(InvalidArgument) as exc:
            build()
        messages.append(str(exc.value))
    return messages


def test_weights_single_dimension_only():
    with pytest.raises(InvalidArgument):
        SimplicialComplex.from_maximal(
            [(0, 1, 2)], weights={(0, 1): 1, (0, 1, 2): 1})
    # both constructors reject the same weights with the same message
    for weights, message in [
            ({(0, 1): 1, (2, 1, 0): 1},
             "weights must live on a single dimension"),
            ({(1, 0): 1, (3, 2): "1/2"},
             "weighted simplex (2, 3) not in complex"),
            ({(2, 0): "-1/3"}, "negative weight on (0, 2)")]:
        assert weight_errors([(0, 1, 2)], weights) == [message] * 2


def test_weight_defaults_to_one():
    cx = SimplicialComplex.from_maximal([(0, 1)], weights={(0, 1): "1/3"})
    assert cx.weight((0, 1)) == Fraction(1, 3)
    cx2 = SimplicialComplex.from_maximal([(0, 1), (1, 2)],
                                         weights={(0, 1): "1/3"})
    assert cx2.weight((1, 2)) == 1
    # a key in any vertex order names its canonical simplex
    cx3 = SimplicialComplex.from_maximal([(1, 0), (2, 1)],
                                         weights={(1, 0): "1/3"})
    assert cx3 == cx2 == SimplicialComplex(cx2.simplices, {(1, 0): "1/3"})
    assert cx3.weights == {(0, 1): Fraction(1, 3)}
    assert weight_errors([(1, 0)], {(1, 0): -1}) == [
        "negative weight on (0, 1)"] * 2


# -- star / link / closure ----------------------------------------------------

@given(st.integers(0, 10_000))
def test_star_closure_match_brute_force(seed):
    r = random.Random(seed)
    cx = random_complex(r, n_vertices=7, max_dim=3, n_generators=4)
    probe = [r.choice(sorted(cx.simplices))]
    assert cx.star(probe) == brute_star(cx, probe)
    assert cx.closure(probe) == brute_closure(cx, probe)


def test_link_of_interior_vertex_in_cone():
    cx = cone(4)
    # the apex link is the base 4-cycle
    lk = cx.link([(4,)])
    assert set(lk) == set(
        SimplicialComplex.from_maximal(
            [(i, (i + 1) % 4) for i in range(4)]).simplices)


def test_link_requires_membership():
    cx = cone(4)
    with pytest.raises(InvalidArgument):
        cx.link([(9,)])


def differential_corpus():
    r = random.Random(0xD1FF)
    drawn = [pytest.param(random_complex(r, n_vertices=8, max_dim=4,
                                         n_generators=5), id=f"random-{i}")
             for i in range(40)]
    return drawn + [pytest.param(annulus(4), id="annulus-4"),
                    pytest.param(mobius(5), id="mobius-5"),
                    pytest.param(cone(4), id="cone-4")]


@pytest.mark.parametrize("cx", differential_corpus())
def test_indexed_link_kernel_matches_oracle(cx):
    r = random.Random(len(cx.simplices))
    for s in sorted(cx.simplices):
        assert cx.link([s]) == brute_link(cx, [s]) == coface_link(cx, s)
    pair = r.sample(sorted(cx.simplices), 2)
    assert cx.link(pair) == brute_link(cx, pair)
    for e in cx.edges:
        common, lk_ab = brute_edge_links(cx, e)
        assert cx.link_defect(e) == three_link_defect(cx, e) == common - lk_ab
        assert cx.satisfies_link_condition(e) == brute_link_condition(cx, e)
        for p in range(-1, cx.dim + 2):
            assert cx.satisfies_p_link(e, p) == brute_p_link(cx, e, p)


@pytest.mark.parametrize("gate", [
    pipeline.GatePolicy(scope=pipeline.FULL_LINK),
    pipeline.GatePolicy(required_conditions=frozenset({1, 2}),
                        scope=pipeline.LISTED_P_ONLY)], ids=["full", "p=1,2"])
@pytest.mark.parametrize("make", [lambda: annulus(8), lambda: mobius(9)],
                         ids=["annulus-8", "mobius-9"])
def test_reduce_log_matches_oracle_gates(gate, make, monkeypatch):
    fast_final, fast_log = pipeline.reduce(make(), gate)
    monkeypatch.setattr(pipeline, "_gate_record", brute_gate_record)
    slow_final, slow_log = pipeline.reduce(make(), gate)
    assert fast_log == slow_log
    assert fast_final == slow_final
    assert fast_log.contracted_edges


REDUCE_GATES = (
    pipeline.GatePolicy(scope=pipeline.FULL_LINK),
    pipeline.GatePolicy(required_conditions=frozenset({1, 2}),
                        scope=pipeline.LISTED_P_ONLY))


@pytest.fixture(scope="module")
def reduce_targets():
    """(target, handed_on) for every contraction made by seeded reduce runs
    under both gates; handed_on tells whether the target held an edge list
    the moment it was made.  The targets carry inherited coface indexes."""
    r = random.Random(16)
    bases = [annulus(6), mobius(7)]
    bases += [random_complex(r, n_vertices=9, max_dim=dim, n_generators=6)
              for dim in (2, 3, 4) for _ in range(4)]
    out = []

    def recording(complex, edge, keep=None):
        ct = contract_edge(complex, edge, keep)
        out.append((ct.target, "_edges" in ct.target.__dict__))
        return ct

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "contract_edge", recording)
        for base in bases:
            for gate in REDUCE_GATES:
                pipeline.reduce(base, gate)
    return out


def test_defect_kernel_matches_references_on_reduce_targets(reduce_targets):
    pools, defects = set(), 0
    for cx, _ in reduce_targets:
        index = cx._cofaces
        for e in cx.edges:
            a, b = e
            # the kernel reads the smaller star: both choices must occur
            pools.add(len(index[b]) < len(index[a]))
            common, lk_ab = brute_edge_links(cx, e)
            defect = cx.link_defect(e)
            assert defect == three_link_defect(cx, e) == common - lk_ab
            defects += bool(defect)
    assert pools == {True, False}
    assert defects > 50


def test_contraction_hands_on_sorted_edges(reduce_targets):
    assert len(reduce_targets) > 100
    for cx, handed_on in reduce_targets:
        assert handed_on
        assert cx.edges == sorted(s for s in cx.simplices if len(s) == 2)


def test_edges_returns_a_fresh_list():
    cx = mobius(7)
    before = cx.edges
    target = contract_edge(cx, before[0]).target
    for c in (cx, target):
        listed = c.edges
        expected = list(listed)
        listed.clear()
        listed.append((98, 99))
        assert c.edges == expected
    assert cx.edges == before


def test_contraction_of_unread_edges_builds_them_on_use():
    cx = annulus(6)
    target = contract_edge(cx, (0, 1)).target
    # a one-off contraction does no edge work
    assert "_edges" not in cx.__dict__
    assert "_edges" not in target.__dict__
    assert target.edges == sorted(s for s in target.simplices if len(s) == 2)


# -- link conditions ----------------------------------------------------------

def test_p_link_trivial_for_nonpositive_p():
    cx = mobius(5)
    for e in cx.edges:
        assert cx.satisfies_p_link(e, 0)
        assert cx.satisfies_p_link(e, -1)


def test_link_condition_on_annulus_interior_edge():
    cx = annulus(4)
    assert cx.satisfies_link_condition((0, 4))


@given(st.integers(0, 10_000))
def test_full_link_equals_conjunction_of_p_links(seed):
    r = random.Random(seed)
    cx = random_complex(r, n_vertices=8, max_dim=3, n_generators=5)
    for e in cx.edges:
        conj = all(cx.satisfies_p_link(e, p) for p in range(cx.dim + 1))
        assert cx.satisfies_link_condition(e) == conj


def test_p_link_rejects_non_edges():
    cx = mobius(5)
    with pytest.raises(InvalidArgument):
        cx.satisfies_p_link((0, 1, 2), 1)


# -- contraction --------------------------------------------------------------

def test_contract_keeps_smaller_vertex_by_default():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    ct = contract_edge(cx, (1, 2))
    assert ct.a == 1 and ct.b == 2
    assert 2 not in ct.target.vertices


def test_contract_keep_override():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    ct = contract_edge(cx, (1, 2), keep=2)
    assert ct.a == 2 and 1 not in ct.target.vertices
    with pytest.raises(InvalidArgument):
        contract_edge(cx, (1, 2), keep=0)


def test_classification_kinds():
    # two triangles sharing edge (0,1): contracting (0,1) collapses both
    cx = SimplicialComplex.from_maximal([(0, 1, 2), (0, 1, 3)])
    ct = contract_edge(cx, (0, 1))
    assert ct.fate((0, 1, 2)) == COLLAPSING
    assert ct.fate((0, 2)) == MIRROR
    assert ct.partner((0, 2)) == (1, 2)
    assert ct.fate((2,)) == INJECTIVE


def vertex_map_table(cx, a, b):
    """Slow reference oracle for contracting b into a: simplex -> (image,
    fate, partner), from the renamed vertex sets grouped by image."""
    image = {s: tuple(sorted({a if v == b else v for v in s}))
             for s in cx.simplices}
    collapsing = {s for s in cx.simplices if a in s and b in s}
    over = {}
    for s in cx.simplices:
        if s not in collapsing:
            over.setdefault(image[s], []).append(s)
    table = {}
    for s in cx.simplices:
        others = [t for t in over.get(image[s], []) if t != s]
        if s in collapsing:
            table[s] = (image[s], COLLAPSING, None)
        elif others:
            (partner,) = others
            table[s] = (image[s], MIRROR, partner)
        else:
            table[s] = (image[s], INJECTIVE, None)
    return table


def test_vertex_map_matches_reference_table():
    r = random.Random(11)
    complexes = [annulus(4), mobius(5), cone(4)]
    complexes += [random_complex(r, n_vertices=7, max_dim=3, n_generators=5)
                  for _ in range(40)]
    checked = set()
    for cx in complexes:
        for e in cx.edges:
            for keep in e:
                ct = contract_edge(cx, e, keep=keep)
                table = vertex_map_table(cx, ct.a, ct.b)
                for s, (img, fate, partner) in table.items():
                    assert ct.image(s) == img
                    assert ct.fate(s) == fate
                    assert ct.partner(s) == partner
                    checked.add(fate)
                assert ct.target.simplices == {img for img, _, _ in
                                               table.values()}
    assert checked == {COLLAPSING, MIRROR, INJECTIVE}


def full_remap(cx, a, b):
    """Slow reference oracle for the target of contracting b into a: every
    simplex re-mapped, mirror weights merged to the smaller (an unweighted
    simplex counting as 1), and the result validated by the constructor."""
    wdim = len(next(iter(cx.weights))) if cx.weights else 0
    images, weights = set(), {}
    for s in cx.simplices:
        img = tuple(sorted({a if v == b else v for v in s}))
        images.add(img)
        if len(s) == wdim == len(img):
            w = cx.weight(s)
            if img not in weights or w < weights[img]:
                weights[img] = w
    return SimplicialComplex(images, weights)


def assert_index_is_fresh(cx):
    """The coface index equals one built from scratch, without duplicates."""
    index = cx._cofaces
    assert all(len(entry) == len(set(entry)) for entry in index.values())
    assert {v: set(entry) for v, entry in index.items()} == {
        v: {s for s in cx.simplices if v in s} for v in cx.vertices}


WEIGHT_VALUES = (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3))


def weightings(cx, r):
    """The complex unweighted, then with weights on some edges, on every
    edge and on some vertices; weights above and below the default 1."""
    yield cx
    edges, verts = cx.p_simplices(1), cx.p_simplices(0)
    for pool, share in ((edges, 0.5), (edges, 1.0), (verts, 0.5)):
        w = {s: r.choice(WEIGHT_VALUES) for s in pool if r.random() < share}
        if w:
            yield SimplicialComplex(cx.simplices, w)


def mirror_cases(cx, a, b):
    """(removed twin weighted, surviving twin weighted) for each mirror pair
    of the weighted dimension."""
    if not cx.weights:
        return set()
    wdim = len(next(iter(cx.weights)))
    out = set()
    for s in cx.simplices:
        if len(s) == wdim and b in s and a not in s:
            twin = tuple(sorted(a if v == b else v for v in s))
            if twin in cx.simplices:
                out.add((s in cx.weights, twin in cx.weights))
    return out


def test_star_local_contraction_matches_full_remap():
    r = random.Random(14)
    complexes = [annulus(4), annulus(6), mobius(5), mobius(7), cone(4)]
    complexes += [random_complex(r, n_vertices=7, max_dim=3, n_generators=5)
                  for _ in range(30)]
    covered = set()
    for base in complexes:
        for cx in weightings(base, r):
            for e in cx.edges:
                for keep in e:
                    before = {v: list(entry)
                              for v, entry in cx._cofaces.items()}
                    ct = contract_edge(cx, e, keep=keep)
                    ref = full_remap(cx, ct.a, ct.b)
                    assert ct.target.simplices == ref.simplices
                    assert ct.target.weights == ref.weights
                    assert ct.target.edges == ref.edges
                    assert serialize_scx(ct.target) == serialize_scx(ref)
                    assert_index_is_fresh(ct.target)
                    # the shared entries of the source are never mutated
                    assert cx._cofaces == before
                    covered |= mirror_cases(cx, ct.a, ct.b)
    assert covered == set(itertools.product((True, False), repeat=2))


@pytest.mark.parametrize("gate", [
    pipeline.GatePolicy(scope=pipeline.FULL_LINK),
    pipeline.GatePolicy(required_conditions=frozenset({1}),
                        scope=pipeline.LISTED_P_ONLY)], ids=["full", "p=1"])
def test_reduce_chain_matches_full_remap_and_inherits_fresh_index(gate):
    r = random.Random(41)
    complexes = [annulus(8), mobius(9)]
    complexes += [random_complex(r, n_vertices=9, max_dim=3, n_generators=7)
                  for _ in range(12)]
    steps = 0
    for base in complexes:
        for cx in weightings(base, r):
            for order in ("lexicographic", "lightest-first"):
                final, log = pipeline.reduce(cx, gate, order=order)
                assert_index_is_fresh(final)
                ref = cx
                for edge in log.contracted_edges:
                    ref = full_remap(ref, *edge)
                assert final.simplices == ref.simplices
                assert final.weights == ref.weights
                steps += len(log.contracted_edges)
    assert steps > 200


def test_vertex_map_rejects_foreign_simplices():
    ct = contract_edge(SimplicialComplex.from_maximal([(0, 1, 2)]), (0, 1))
    for s in ((5, 6), (2, 1), (0, 1, 2, 3)):
        for method in (ct.image, ct.fate, ct.partner):
            with pytest.raises(InvalidArgument):
                method(s)


def test_contract_target_is_face_closed_and_smaller():
    r = random.Random(5)
    for _ in range(50):
        cx = random_complex(r, n_vertices=7, max_dim=3, n_generators=5)
        if not cx.edges:
            continue
        e = r.choice(cx.edges)
        tgt = contract_edge(cx, e).target
        assert len(tgt.vertices) == len(cx.vertices) - 1
        assert len(tgt.simplices) < len(cx.simplices)
        for s in tgt.simplices:
            assert s == canon(s)
            if len(s) > 1:
                assert all(s[:j] + s[j + 1:] in tgt.simplices
                           for j in range(len(s)))


def test_contract_weight_merge_takes_minimum():
    from fractions import Fraction
    cx = SimplicialComplex.from_maximal(
        [(0, 1, 2), (0, 1, 3)],
        weights={(0, 2): "1/20", (1, 2): "1/10", (0, 3): 1, (1, 3): "1/2"})
    tgt = contract_edge(cx, (0, 1)).target
    assert tgt.weight((0, 2)) == Fraction(1, 20)
    assert tgt.weight((0, 3)) == Fraction(1, 2)


# -- chain transport ----------------------------------------------------------

def test_push_sign_identity_without_b():
    assert push_sign((0, 1, 2), 5, 0) == 1


def test_push_sign_parity():
    # (1, 3) with 3 -> 0 becomes (0, 1): one transposition
    assert push_sign((1, 3), 3, 0) == -1
    assert push_sign((0, 3), 3, 1) == 1


@given(st.integers(0, 10_000))
def test_push_chain_commutes_with_boundary(seed):
    r = random.Random(seed)
    cx = random_complex(r, n_vertices=7, max_dim=3, n_generators=5)
    if not cx.edges:
        return
    e = r.choice(cx.edges)
    ct = contract_edge(cx, e)
    dims = sorted({len(s) for s in cx.simplices})
    d = r.choice(dims)
    pool = cx.p_simplices(d - 1)
    chain = {s: r.choice([-2, -1, 1, 2]) for s in pool if r.random() < 0.5}
    lhs = push_chain(ct, chain_boundary(chain))
    rhs = chain_boundary(push_chain(ct, chain))
    assert lhs == rhs


def test_push_chain_rejects_foreign_simplices():
    cx = SimplicialComplex.from_maximal([(0, 1, 2)])
    ct = contract_edge(cx, (0, 1))
    with pytest.raises(InvalidArgument):
        push_chain(ct, {(5, 6): 1})
    # a reordered key would lose its sign: chain_boundary reads (2, 1) as
    # -(1, 2)
    ct = contract_edge(mobius(5), (0, 1))
    with pytest.raises(InvalidArgument):
        push_chain(ct, {(2, 1): 1})


def test_push_chain_mirror_merge():
    cx = SimplicialComplex.from_maximal([(0, 1, 2), (0, 1, 3)])
    ct = contract_edge(cx, (0, 1))
    out = push_chain(ct, {(0, 2): 1, (1, 2): -1})
    assert out == {}
