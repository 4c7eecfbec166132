"""End-to-end acceptance sweep: twelve numbered checks, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the summary lines.
"""
import itertools
import random
import time
from fractions import Fraction

from plink.complexes import SimplicialComplex, contract_edge, push_chain
from plink.fixtures import (MOBIUS_OHCP_CONTRACT_EDGE, PUNCTURED_MOBIUS_EDGE,
                            annulus, cone, mobius, mobius_boundary,
                            mobius_ohcp, mobius_ohcp_chain,
                            mobius_ohcp_instance, punctured_mobius,
                            random_complex)
from plink.homology import (SubcomplexPair, boundary_matrix,
                            has_relative_torsion, homology_group,
                            relative_homology_group)
from plink.ohcp import (OPTIMAL, OHCPInstance, solve_ohcp_ilp, solve_ohcp_lp)
from plink.tugraph import (B_ODD, IncidenceGraph, b_parity, build_p_graph,
                           construct_preimage_circuit,
                           enumerate_chordless_cycles, is_totally_unimodular,
                           map_circuit_f)
from cycle_space import enumerate_circuits
from test_complexes import (brute_edge_links, brute_link_condition,
                            brute_p_link)


def report(n, ok, budget_s, elapsed, detail):
    line = (f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:6.1f}s / {budget_s}s] {detail}")
    print(line)
    assert ok, line
    assert elapsed < budget_s, line


def cone_over(cx, apex):
    """The cone over cx: its simplices, each also joined with apex, a vertex
    above all of cx's."""
    return SimplicialComplex.from_maximal(
        [(apex,)] + [s + (apex,) for s in cx.simplices])


CORPUS = {
    "triangle": SimplicialComplex.from_maximal([(0, 1, 2)]),
    "two-triangles": SimplicialComplex.from_maximal([(0, 1, 2), (1, 2, 3)]),
    "book-3": SimplicialComplex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    "tetra-boundary": SimplicialComplex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    "cone-4": cone(4),
    "mobius-5": mobius(5),
    "annulus-3": annulus(3),
    "fan-5": SimplicialComplex.from_maximal(
        [(0, i, i + 1) for i in range(1, 6)]),
}


def test_criterion_01_link_condition_equivalence():
    t0 = time.time()
    rng = random.Random(101)
    bad = 0
    done = 0
    while done < 500:
        cx = random_complex(rng, n_vertices=8, max_dim=4, n_generators=5)
        if len(cx.simplices) > 40:
            continue
        done += 1
        for e in cx.edges:
            conj = all(cx.satisfies_p_link(e, p) for p in range(cx.dim + 1))
            if cx.satisfies_link_condition(e) != conj:
                bad += 1
    report(1, bad == 0, 10, time.time() - t0,
           f"full-link == AND(p-link) on {done} complexes, {bad} mismatches")


def test_criterion_02_homology_preserved_by_gated_contraction():
    t0 = time.time()
    rng = random.Random(202)
    checked = 0
    bad = 0
    for _ in range(200):
        cx = random_complex(rng, n_vertices=7, max_dim=3, n_generators=5)
        for e in cx.edges:
            for p in range(cx.dim + 1):
                if not (cx.satisfies_p_link(e, p)
                        and cx.satisfies_p_link(e, p - 1)):
                    continue
                before = homology_group(cx, p).as_pair()
                tgt = contract_edge(cx, e).target
                after = (homology_group(tgt, p).as_pair()
                         if p <= tgt.dim else (0, ()))
                checked += 1
                if before != after:
                    bad += 1
    report(2, checked > 0 and bad == 0, 60, time.time() - t0,
           f"(betti, torsion) stable across {checked} gated contractions, "
           f"{bad} violations")


def test_criterion_03_mobius_relative_torsion():
    t0 = time.time()
    pair = SubcomplexPair(L=mobius(5), L0=mobius_boundary(5), p=1)
    torsion = relative_homology_group(pair).torsion_coeffs
    report(3, torsion == [2], 1, time.time() - t0,
           f"H_1(strip, rim) torsion = {torsion}")


def test_criterion_04_torsion_oracle_equals_not_tu():
    t0 = time.time()
    bad = []
    for name, cx in CORPUS.items():
        oracle = has_relative_torsion(cx, 1, mode="oracle").status
        tu = is_totally_unimodular(boundary_matrix(cx, 2),
                                   strategy="determinant").status
        # the circuit's witness pair carries the torsion it predicts
        pair = has_relative_torsion(cx, 1, mode="tu").witness
        witnessed = (pair is not None
                     and relative_homology_group(pair).torsion_coeffs == [2])
        if oracle != (not tu) or witnessed != oracle:
            bad.append(name)
    report(4, not bad, 120, time.time() - t0,
           f"exhaustive pair oracle == not-TU == torsion [2] on the tu "
           f"witness on {len(CORPUS)} complexes"
           + (f"; disagreements: {bad}" if bad else ""))


def test_criterion_05_circuit_and_determinant_strategies_agree():
    t0 = time.time()
    bad = []
    for name, cx in CORPUS.items():
        bm = boundary_matrix(cx, 2)
        det_v = is_totally_unimodular(bm, strategy="determinant").status
        cir_v = is_totally_unimodular(bm, strategy="circuit").status
        if det_v != cir_v:
            bad.append(name)
    report(5, not bad, 120, time.time() - t0,
           f"strategies agree on {len(CORPUS)} boundary matrices"
           + (f"; disagreements: {bad}" if bad else ""))


def test_criterion_06_punctured_mobius_story():
    t0 = time.time()
    cx = punctured_mobius(15)
    e = PUNCTURED_MOBIUS_EDGE
    before = is_totally_unimodular(boundary_matrix(cx, 2)).status
    fails_1link = not cx.satisfies_p_link(e, 1)
    tgt = contract_edge(cx, e).target
    verdict = is_totally_unimodular(boundary_matrix(tgt, 2))
    witness_odd = (verdict.status is False and verdict.witness
                   and b_parity(build_p_graph(tgt, 2),
                                verdict.witness) == B_ODD)
    ok = before is True and fails_1link and witness_odd
    report(6, ok, 10, time.time() - t0,
           f"TU before={before}, edge fails 1-link={fails_1link}, "
           f"b-odd witness after={bool(witness_odd)}")


def test_criterion_07_tu_preserved_and_circuit_round_trips():
    t0 = time.time()
    rng = random.Random(707)
    n_tu = 0
    tu_bad = 0
    while n_tu < 200:
        cx = random_complex(rng, n_vertices=7, max_dim=2, n_generators=5)
        if cx.dim < 2:
            continue
        if not is_totally_unimodular(boundary_matrix(cx, 2)).status:
            continue
        n_tu += 1
        for e in cx.edges:
            if not cx.satisfies_p_link(e, 1):
                continue
            tgt = contract_edge(cx, e).target
            if tgt.dim >= 2 and is_totally_unimodular(
                    boundary_matrix(tgt, 2)).status is False:
                tu_bad += 1
    # circuit transport round trips over a broad fixture family
    cases = ([annulus(k) for k in range(3, 21)]
             + [mobius(k) for k in range(5, 40, 2)]
             + [punctured_mobius(k) for k in range(5, 40, 2)]
             + [cone(n) for n in range(3, 21)])
    rng2 = random.Random(708)
    for _ in range(400):
        cx = random_complex(rng2, n_vertices=8, max_dim=2, n_generators=6)
        if cx.dim == 2:
            cases.append(cx)
    trips = 0
    trip_bad = 0
    for cx in cases:
        for e in sorted(cx.edges):
            if not cx.satisfies_p_link(e, 1):
                continue
            ct = contract_edge(cx, e)
            if ct.target.dim < 2:
                continue
            gs = build_p_graph(cx, 2)
            gt = build_p_graph(ct.target, 2)
            sampled = set()
            for cyc in enumerate_chordless_cycles(gt, budget=10_000):
                if cyc is None:
                    break
                sampled.add(cyc)
            for cyc in itertools.islice(enumerate_circuits(gt), 25):
                sampled.add(cyc)
            for cyc in sampled:
                pre = construct_preimage_circuit(ct, cyc)
                ok = (map_circuit_f(ct, pre) == cyc
                      and b_parity(gs, pre) == b_parity(gt, cyc))
                trips += 1
                if not ok:
                    trip_bad += 1
    ok = tu_bad == 0 and trip_bad == 0 and trips >= 1000
    report(7, ok, 120, time.time() - t0,
           f"TU stable on {n_tu} complexes ({tu_bad} bad); "
           f"{trips} circuit round trips ({trip_bad} bad)")


def test_criterion_08_contraction_closes_lp_ilp_gap(deadline):
    # the weighted Moebius instance: fractional slide beats every integral
    # chain; contracting one link-respecting core edge closes the gap
    deadline(10)     # about 0.02 s here; fails a search that never ends
    t0 = time.time()
    inst = mobius_ohcp_instance()
    lp = solve_ohcp_lp(inst)
    ilp = solve_ohcp_ilp(inst)
    half = all(v.denominator == 2 for v in lp.chain.values())
    cx = inst.complex
    e = MOBIUS_OHCP_CONTRACT_EDGE
    gated = cx.satisfies_p_link(e, 1)
    ct = contract_edge(cx, e)
    pushed = push_chain(ct, inst.chain)
    inst2 = OHCPInstance(complex=ct.target, p=1, chain=pushed)
    lp2 = solve_ohcp_lp(inst2)
    ilp2 = solve_ohcp_ilp(inst2)
    integral = all(Fraction(v).denominator == 1 for v in lp2.chain.values())
    tu_after = is_totally_unimodular(boundary_matrix(ct.target, 2)).status
    ok = (lp.status == ilp.status == OPTIMAL
          and lp.objective == Fraction(7, 20)
          and ilp.objective == Fraction(13, 10)
          and lp.objective < ilp.objective and half and gated
          and lp2.objective == ilp2.objective == Fraction(3, 10)
          and integral and tu_after is True)
    report(8, ok, 30, time.time() - t0,
           f"LP={lp.objective} (+-1/2: {half}) < ILP={ilp.objective}; "
           f"after gated contraction LP=ILP={lp2.objective} "
           f"(integral={integral}, TU={tu_after})")


def test_criterion_09_lp_equals_ilp_on_tu_instances(deadline):
    deadline(20)     # about 0.1 s here; fails a search that never ends
    t0 = time.time()
    rng = random.Random(909)
    done = 0
    bad = 0
    while done < 100:
        cx = random_complex(rng, n_vertices=6, max_dim=2, n_generators=4)
        if cx.dim < 2 or not cx.edges:
            continue
        if not is_totally_unimodular(boundary_matrix(cx, 2)).status:
            continue
        chain = {e: rng.choice([-1, 1]) for e in cx.edges
                 if rng.random() < 0.3}
        if not chain:
            continue
        inst = OHCPInstance(complex=cx, p=1, chain=chain)
        done += 1
        if solve_ohcp_lp(inst).objective != solve_ohcp_ilp(inst).objective:
            bad += 1
    report(9, bad == 0, 120, time.time() - t0,
           f"LP == ILP on {done} TU instances, {bad} gaps")


def test_criterion_10_b_parity_reorientation_invariance():
    t0 = time.time()
    rng = random.Random(1010)
    done = 0
    bad = 0
    while done < 100:
        cx = random_complex(rng, n_vertices=7, max_dim=3, n_generators=5)
        if cx.dim < 1:
            continue
        p = rng.randint(1, cx.dim)
        g = build_p_graph(cx, p)
        if len(g.vertices) > 16 or not g.weights:
            continue
        flips = {v for v in g.vertices if rng.random() < 0.5}
        flipped = IncidenceGraph(
            rows=g.rows, cols=g.cols,
            weights={(r, c): (-w if ((r in flips) ^ (c in flips)) else w)
                     for (r, c), w in g.weights.items()})
        cycles = [c for c in enumerate_chordless_cycles(g, budget=50_000)
                  if c is not None]
        done += 1
        for cyc in cycles:
            if b_parity(g, cyc) != b_parity(flipped, cyc):
                bad += 1
    report(10, bad == 0, 60, time.time() - t0,
           f"b-parity invariant under reorientation on {done} graphs, "
           f"{bad} flips")


def test_criterion_11_link_kernel_matches_closure_star_oracle():
    # criterion 1 compares two readings of one link_defect; this one checks
    # the kernel and both gates against the closure/star definition
    t0 = time.time()
    rng = random.Random(1111)
    complexes = list(CORPUS.values())
    while len(complexes) < 200 + len(CORPUS):
        cx = random_complex(rng, n_vertices=8, max_dim=4, n_generators=5)
        if len(cx.simplices) <= 40:
            complexes.append(cx)
    edges = bad = 0
    verdicts = set()
    for cx in complexes:
        for e in cx.edges:
            edges += 1
            common, lk_ab = brute_edge_links(cx, e)
            full = brute_link_condition(cx, e)
            p_links = [brute_p_link(cx, e, p) for p in range(-1, cx.dim + 2)]
            verdicts.add((full, all(p_links[:3])))
            if (cx.link_defect(e) != common - lk_ab
                    or cx.satisfies_link_condition(e) != full
                    or [cx.satisfies_p_link(e, p)
                        for p in range(-1, cx.dim + 2)] != p_links):
                bad += 1
    # both gates must see passing and failing edges, and some edge must
    # pass the 1-link gate while failing the full one
    report(11, bad == 0 and len(verdicts) == 3, 10, time.time() - t0,
           f"link_defect and both gates == closure/star oracle on {edges} "
           f"edges of {len(complexes)} complexes, {bad} mismatches")


def test_criterion_12_two_link_keeps_boundary_3_tu_and_is_sharp():
    # Claim (iii) at p = 2: a contraction passing the 2-link gate keeps
    # [d_3] TU, so it creates no relative torsion in dimension 2.  It is
    # sharp: [d_{p+1}] of a cone is [+-I; +-d_p] up to row order, so each
    # coning of the punctured Moebius band lifts criterion 6's edge, which
    # fails every q-link condition for 1 <= q <= p, to a witness one
    # dimension up
    t0 = time.time()
    e = PUNCTURED_MOBIUS_EDGE
    band = punctured_mobius(15)
    cone = cone_over(band, 15)
    sharp = []
    for p, cx in ((1, band), (2, cone), (3, cone_over(cone, 16))):
        tgt = contract_edge(cx, e).target
        before = is_totally_unimodular(boundary_matrix(cx, p + 1))
        after = is_totally_unimodular(boundary_matrix(tgt, p + 1))
        sharp.append(
            not any(cx.satisfies_p_link(e, q) for q in range(1, p + 1))
            and (before.status, before.budget_used) == (True, 13)
            and (after.status, after.budget_used) == (False, 14)
            and b_parity(build_p_graph(tgt, p + 1), after.witness) == B_ODD
            and has_relative_torsion(cx, p, mode="tu").status is False
            and has_relative_torsion(tgt, p, mode="tu").status is True)
    rng = random.Random(1212)
    n_tu = gated = bad = 0
    while n_tu < 100:
        cx = random_complex(rng, n_vertices=7, max_dim=3, n_generators=5)
        if cx.dim < 3 or not is_totally_unimodular(
                boundary_matrix(cx, 3)).status:
            continue
        n_tu += 1
        for f in cx.edges:
            if not cx.satisfies_p_link(f, 2):
                continue
            tgt = contract_edge(cx, f).target
            gated += 1
            if tgt.dim >= 3 and is_totally_unimodular(
                    boundary_matrix(tgt, 3)).status is not True:
                bad += 1
    # the cone's own edges away from the apex that pass the 2-link gate
    cone_edges = [f for f in cone.edges
                  if 15 not in f and cone.satisfies_p_link(f, 2)]
    for f in cone_edges:
        if is_totally_unimodular(boundary_matrix(
                contract_edge(cone, f).target, 3)).status is not True:
            bad += 1
    ok = sharp == [True] * 3 and bad == 0 and cone_edges
    report(12, ok, 10, time.time() - t0,
           f"sharp at p=1,2,3: {sharp}; [d_3] TU after {gated} 2-link-gated "
           f"contractions of {n_tu} TU 3-complexes and {len(cone_edges)} "
           f"of the cone, {bad} bad")
