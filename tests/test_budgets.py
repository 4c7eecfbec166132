"""One budget convention for every exponential search: a negative budget
raises, a budget of 0 gives each search's inconclusive form, and no code
but ``homology._Budget`` compares a budget by hand."""
import ast
from pathlib import Path

import pytest

from plink.complexes import InvalidArgument
from plink.fixtures import fig_plink_right, mobius
from plink.homology import (TRUNCATED, boundary_matrix, enumerate_pure_pairs,
                            has_relative_torsion)
from plink.ohcp import (BUDGET_EXCEEDED, OHCPInstance, formulate, solve_ilp,
                        solve_ohcp_ilp)
from plink.tugraph import (build_p_graph, enumerate_chordless_cycles,
                           is_totally_unimodular)

SRC = Path(__file__).resolve().parent.parent / "src" / "plink"
MOBIUS = mobius(5)
INSTANCE = OHCPInstance(complex=MOBIUS, p=1, chain={(0, 2): 1})

# each call is True when the search came back inconclusive
SEARCHES = {
    "tu-circuit-colouring": lambda b: is_totally_unimodular(
        boundary_matrix(MOBIUS, 2), budget=b).status is None,
    "tu-circuit-search": lambda b: is_totally_unimodular(
        boundary_matrix(fig_plink_right(), 2), budget=b).status is None,
    "tu-determinant": lambda b: is_totally_unimodular(
        boundary_matrix(MOBIUS, 2), strategy="determinant",
        budget=b).status is None,
    "torsion-oracle": lambda b: has_relative_torsion(
        MOBIUS, 1, mode="oracle", budget=b).status is None,
    "torsion-tu": lambda b: has_relative_torsion(
        MOBIUS, 1, mode="tu", budget=b).status is None,
    "pure-pairs": lambda b: next(
        enumerate_pure_pairs(MOBIUS, 1, budget=b)) is TRUNCATED,
    "chordless-cycles": lambda b: next(enumerate_chordless_cycles(
        build_p_graph(MOBIUS, 2), budget=b)) is None,
    "ilp": lambda b: solve_ilp(formulate(INSTANCE),
                               budget=b).status == BUDGET_EXCEEDED,
    "ohcp-ilp": lambda b: solve_ohcp_ilp(INSTANCE,
                                         budget=b).status == BUDGET_EXCEEDED,
}


@pytest.mark.parametrize("name", SEARCHES)
def test_negative_budget_raises_and_zero_is_inconclusive(name):
    search = SEARCHES[name]
    with pytest.raises(InvalidArgument, match="negative"):
        search(-1)
    assert search(0)
    assert not search(None)


def test_entry_outside_unit_range_is_a_verdict_that_spends_nothing():
    # the 0/+-1 pre-check fills budget_used like every other verdict
    for strategy in ("circuit", "determinant"):
        v = is_totally_unimodular([[1, 2]], strategy=strategy, budget=0)
        assert (v.status, v.witness["det"], v.budget_used) == (False, 2, 0)


ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def budget_comparisons(path):
    """(line, source) of every comparison of a name or attribute `budget`
    by order or equality outside class _Budget; `is None` is allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "_Budget"
              for node in ast.walk(cls)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and id(node) not in inside
                and any(isinstance(op, ORDER) for op in node.ops)
                and any(getattr(x, "id", getattr(x, "attr", None)) == "budget"
                        for x in (node.left, *node.comparators))):
            yield node.lineno, ast.unparse(node)


def test_only_budget_compares_a_budget():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{line}: {text}"
             for path in sources for line, text in budget_comparisons(path)]
    assert not found, found
