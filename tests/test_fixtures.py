import random
from fractions import Fraction

import pytest

from plink.complexes import InvalidArgument, chain_boundary, contract_edge
from plink.fixtures import (FIXTURE_NAMES, MOBIUS_OHCP_CONTRACT_EDGE, annulus,
                            cone, fig_plink_left, fig_plink_right, generate,
                            mobius, mobius_boundary, mobius_ohcp,
                            mobius_ohcp_chain, mobius_ohcp_instance,
                            punctured_mobius, random_complex)
from plink.homology import boundary_matrix, homology_group
from plink.tugraph import is_totally_unimodular


def test_mobius_validation():
    with pytest.raises(InvalidArgument):
        mobius(4)
    with pytest.raises(InvalidArgument):
        mobius(3)


def test_mobius_boundary_validation():
    for k in (3, 4):
        with pytest.raises(InvalidArgument):
            mobius_boundary(k)


def test_mobius_boundary_edges_lie_in_one_triangle():
    cx = mobius(7)
    bd = mobius_boundary(7)
    for e in bd.edges:
        cofaces = [t for t in cx.p_simplices(2) if set(e) <= set(t)]
        assert len(cofaces) == 1


def test_punctured_mobius_keeps_freed_edge():
    cx = punctured_mobius(15)
    assert (0, 1, 2) not in cx.simplices
    assert (0, 2) in cx.simplices
    assert len(cx.p_simplices(2)) == 14


def test_fig_plink_pair_differ_in_one_triangle():
    left, right = fig_plink_left(), fig_plink_right()
    assert left.simplices < right.simplices
    assert (0, 1, 2) in right.simplices and (0, 1, 2) not in left.simplices
    # ab fails the 1-link condition on the left, passes on the right
    assert not left.satisfies_p_link((0, 1), 1)
    assert right.satisfies_p_link((0, 1), 1)


def test_mobius_ohcp_chain_is_a_cycle():
    assert chain_boundary(mobius_ohcp_chain()) == {}


def test_mobius_ohcp_weights():
    cx = mobius_ohcp()
    assert cx.weight((0, 1)) == 1
    assert cx.weight((0, 2)) == Fraction(1, 10)


def test_mobius_ohcp_contract_edge_satisfies_1_link():
    cx = mobius_ohcp()
    e = MOBIUS_OHCP_CONTRACT_EDGE
    assert cx.satisfies_p_link(e, 1)


def test_mobius_ohcp_contraction_removes_torsion_obstruction():
    cx = mobius_ohcp()
    assert is_totally_unimodular(boundary_matrix(cx, 2)).status is False
    tgt = contract_edge(cx, MOBIUS_OHCP_CONTRACT_EDGE).target
    assert is_totally_unimodular(boundary_matrix(tgt, 2)).status is True


def test_generate_registry():
    for name in FIXTURE_NAMES:
        cx = generate(name)
        assert cx.simplices
    with pytest.raises(InvalidArgument):
        generate("klein-bottle")
    assert generate("mobius", k=7).vertices == list(range(7))
    assert generate("cone", n=6).vertices == list(range(7))


def test_generate_rejects_a_size_the_fixture_does_not_take():
    # cone once built cone(4) here, silently
    with pytest.raises(InvalidArgument, match="no size parameter k"):
        generate("cone", k=9)
    with pytest.raises(InvalidArgument, match="no size parameter n"):
        generate("mobius", k=7, n=3)
    with pytest.raises(InvalidArgument, match="it has no size"):
        generate("fig-plink-left", n=3)


def test_random_complex_is_deterministic_per_seed():
    a = random_complex(random.Random(42))
    b = random_complex(random.Random(42))
    assert a == b
