import random

import pytest

from plink import homology
from plink.complexes import InvalidArgument, SimplicialComplex, contract_edge
from plink.fixtures import (annulus, cone, mobius, mobius_boundary,
                            punctured_mobius, random_complex)
from plink.homology import homology_group
from plink.pipeline import (FULL_LINK, LISTED_P_ONLY, GatePolicy, reduce,
                            report, scan_edges)


def test_gate_policy_validation():
    with pytest.raises(InvalidArgument):
        GatePolicy(scope=LISTED_P_ONLY)
    with pytest.raises(InvalidArgument):
        GatePolicy(scope="sometimes")
    # a full-link gate ignored listed dimensions; a negative one passed
    # every edge, so mobius(7) reduced to a point
    with pytest.raises(InvalidArgument, match="full-link"):
        GatePolicy(required_conditions=frozenset({1}), scope=FULL_LINK)
    with pytest.raises(InvalidArgument, match="negative"):
        GatePolicy(required_conditions=frozenset({-3}), scope=LISTED_P_ONLY)
    GatePolicy(scope=FULL_LINK)
    GatePolicy(required_conditions=frozenset({1, 2}), scope=LISTED_P_ONLY)


def test_gate_policy_passes():
    cx = punctured_mobius(15)
    full = GatePolicy(scope=FULL_LINK)
    only0 = GatePolicy(required_conditions=frozenset({0}),
                       scope=LISTED_P_ONLY)
    assert not full.passes(cx, (0, 2))
    assert only0.passes(cx, (0, 2))       # the 0-link condition is vacuous


def test_scan_edges_covers_all_edges():
    cx = cone(4)
    scan = scan_edges(cx, 2)
    assert set(scan) == set(cx.edges)
    assert all(set(v) == {0, 1, 2} for v in scan.values())


def test_reduce_cone_to_near_point():
    cx = cone(5)
    final, log = reduce(cx, GatePolicy(scope=FULL_LINK))
    # full-link contractions preserve the homotopy type of a disk
    assert homology_group(final, 0).as_pair() == (1, ())
    if final.dim >= 1:
        assert homology_group(final, 1).as_pair() == (0, ())
    assert len(log.contracted_edges) >= 1


def test_reduce_respects_max_steps():
    cx = annulus(4)
    final, log = reduce(cx, GatePolicy(scope=FULL_LINK), max_steps=2)
    assert len(log.contracted_edges) <= 2


def test_reduce_orders_differ_on_weighted_complex():
    cx = SimplicialComplex.from_maximal(
        [(0, 1, 2), (1, 2, 3)],
        weights={(2, 3): "1/10"})
    _, lex_log = reduce(cx, GatePolicy(scope=FULL_LINK), max_steps=1)
    _, light_log = reduce(cx, GatePolicy(scope=FULL_LINK), max_steps=1,
                          order="lightest-first")
    assert light_log.contracted_edges[0] == (2, 3)
    assert lex_log.contracted_edges[0] != (2, 3)


def test_reduce_rejects_unknown_order():
    with pytest.raises(InvalidArgument):
        reduce(cone(4), GatePolicy(scope=FULL_LINK), order="random")


def test_reduce_log_replay():
    cx = annulus(4)
    final, log = reduce(cx, GatePolicy(scope=FULL_LINK), max_steps=3)
    assert log.replay(cx).simplices == final.simplices


def test_reduce_snapshots_track_homology():
    cx = annulus(4)
    final, log = reduce(cx, GatePolicy(scope=FULL_LINK), max_steps=2,
                        snapshots=True)
    contracted = [r for r in log.records if r.action == "contracted"]
    assert contracted and all(r.snapshot is not None for r in contracted)
    # homology of the annulus (a circle, up to homotopy) is preserved
    for r in contracted:
        assert r.snapshot[1] == (1, ())


def projective_plane(k: int) -> SimplicialComplex:
    """mobius(k) with a cone from vertex k over its boundary circle:
    H_1 = Z/2."""
    return SimplicialComplex.from_maximal(
        list(mobius(k).simplices)
        + [e + (k,) for e in mobius_boundary(k).edges])


RP2 = projective_plane(7)


def test_reduce_snapshots_equal_per_p_homology():
    r = random.Random(12)
    complexes = [RP2, mobius(7), annulus(6)]
    complexes += [random_complex(r, n_vertices=9, max_dim=3, n_generators=7)
                  for _ in range(10)]
    torsion = set()
    for cx in complexes:
        for gate in (GatePolicy(scope=FULL_LINK),
                     GatePolicy(required_conditions=frozenset({1}),
                                scope=LISTED_P_ONLY)):
            _, log = reduce(cx, gate, snapshots=True)
            current = cx
            for record in log.records:
                if record.action != "contracted":
                    continue
                current = contract_edge(current, record.edge).target
                expected = {p: homology_group(current, p).as_pair()
                            for p in range(current.dim + 1)}
                assert record.snapshot == expected
                torsion.update(t for _, t in expected.values() if t)
    assert (2,) in torsion


def count_reductions(monkeypatch) -> list:
    """Log each boundary reduction by the name of its kernel: _graph_rank
    for [d_1], _snf for every higher [d_p]."""
    calls = []
    for name in ("_graph_rank", "_snf"):
        real = getattr(homology, name)
        monkeypatch.setattr(homology, name, lambda *args, name=name,
                            real=real: calls.append(name) or real(*args))
    return calls


def test_homology_groups_reduce_each_boundary_matrix_once(monkeypatch):
    calls = count_reductions(monkeypatch)
    groups = homology.homology_groups(RP2)
    # [d_1] by one union-find rank, [d_2] by one SNF
    assert calls == ["_graph_rank", "_snf"]
    assert [g.as_pair() for g in groups] == [(1, ()), (0, (2,)), (0, ())]


def test_reduce_gated_p_only_contracts_despite_full_failure():
    cx = punctured_mobius(15)
    policy = GatePolicy(required_conditions=frozenset({0}),
                        scope=LISTED_P_ONLY)
    final, log = reduce(cx, policy, max_steps=1)
    assert log.contracted_edges == [(0, 1)]


def test_report_shape_and_deltas():
    before = mobius(5)
    after = reduce(before, GatePolicy(scope=FULL_LINK), max_steps=1)[0]
    out = report(before, after, dims=[0, 1])
    assert set(out["dimensions"]) == {0, 1}
    d1 = out["dimensions"][1]
    assert d1["before"]["betti"] == 1
    assert d1["delta"]["betti"] == d1["after"]["betti"] - 1
    assert d1["before"]["tu_boundary_p_plus_1"] is False   # Moebius torsion


def test_report_rejects_negative_dimension(monkeypatch):
    # it once raised "p=0 out of range for dim 2" from its TU branch
    calls = count_reductions(monkeypatch)
    for dims, p in (([-1, 0, 1], -1), ([0, -1, 1, -2], -2)):
        with pytest.raises(InvalidArgument,
                           match=f"report dimension {p} is negative"):
            report(mobius(7), mobius(7), dims=dims)
    assert not calls


def test_report_reduces_each_boundary_matrix_once(monkeypatch):
    # one homology_groups per complex: at most dim reductions each, and every
    # dimension past dim reads (0, [])
    before = mobius(7)
    after = reduce(before, GatePolicy(scope=FULL_LINK), max_steps=3)[0]
    dims = [0, 1, 2, 3]
    calls = count_reductions(monkeypatch)
    out = report(before, after, dims=dims)
    assert len(calls) <= before.dim + after.dim
    assert calls.count("_graph_rank") == 2
    for p in dims:
        for tag, cx in (("before", before), ("after", after)):
            row = out["dimensions"][p][tag]
            pair = (homology_group(cx, p).as_pair() if 0 <= p <= cx.dim
                    else (0, ()))
            assert (row["betti"], tuple(row["torsion"])) == pair
