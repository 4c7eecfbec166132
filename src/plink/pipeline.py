"""Condition-gated contraction sequencing and before/after topology reports."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .complexes import (InvalidArgument, SimplicialComplex, contract_edge,
                        p_link_holds)
from .homology import boundary_matrix, homology_groups
from .tugraph import is_totally_unimodular

FULL_LINK = "full-link"
LISTED_P_ONLY = "listed-p-only"


@dataclass(frozen=True)
class GatePolicy:
    """Which link conditions an edge must satisfy before contraction."""
    required_conditions: frozenset = frozenset()
    scope: str = FULL_LINK

    def __post_init__(self):
        if self.scope not in (FULL_LINK, LISTED_P_ONLY):
            raise InvalidArgument(f"unknown scope {self.scope!r}")
        if self.scope == LISTED_P_ONLY and not self.required_conditions:
            raise InvalidArgument("listed-p-only gate needs dimensions")
        if self.scope == FULL_LINK and self.required_conditions:
            raise InvalidArgument("full-link gate checks every dimension; "
                                  "it takes none listed")
        if any(p < 0 for p in self.required_conditions):
            raise InvalidArgument(f"negative gate dimension in "
                                  f"{sorted(self.required_conditions)}")

    def passes(self, complex: SimplicialComplex, edge) -> bool:
        return all(_gate_record(complex, complex._edge(edge), self).values())


@dataclass
class LogRecord:
    edge: tuple
    conditions_checked: dict       # p -> bool (or {"full": bool})
    action: str                    # "contracted" | "skipped"
    snapshot: Optional[dict] = None


@dataclass
class ContractionLog:
    records: list = field(default_factory=list)

    @property
    def contracted_edges(self) -> list:
        return [r.edge for r in self.records if r.action == "contracted"]

    def replay(self, complex: SimplicialComplex) -> SimplicialComplex:
        for edge in self.contracted_edges:
            complex = contract_edge(complex, edge).target
        return complex


def scan_edges(complex: SimplicialComplex, max_p: int) -> dict:
    """Per-edge p-link verdicts for 0 <= p <= max_p."""
    out = {}
    for e in complex.edges:
        defect = complex._link_defect(e)
        out[e] = {p: p_link_holds(defect, p) for p in range(max_p + 1)}
    return out


def _gate_record(complex, edge, policy: GatePolicy) -> dict:
    """The gate's verdicts for one canonical edge of the complex, all read
    off one link defect."""
    defect = complex._link_defect(edge)
    if policy.scope == FULL_LINK:
        return {"full": not defect}
    return {p: p_link_holds(defect, p)
            for p in sorted(policy.required_conditions)}


def _snapshot(complex: SimplicialComplex) -> dict:
    return {p: g.as_pair() for p, g in enumerate(homology_groups(complex))}


def reduce(complex: SimplicialComplex, policy: GatePolicy,
           order: str = "lexicographic", max_steps: Optional[int] = None,
           snapshots: bool = False) -> tuple:
    """Greedily contract the first edge (in the chosen order) passing the
    gate, recomputing verdicts from scratch after every contraction."""
    if order not in ("lexicographic", "lightest-first"):
        raise InvalidArgument(f"unknown order {order!r}")
    log = ContractionLog()
    steps = 0
    while max_steps is None or steps < max_steps:
        edges = complex.edges
        if order == "lightest-first":
            edges = sorted(edges, key=lambda e: (complex.weight(e), e))
        chosen = None
        for e in edges:
            verdicts = _gate_record(complex, e, policy)
            if all(verdicts.values()):
                chosen = (e, verdicts)
                break
            log.records.append(LogRecord(edge=e, conditions_checked=verdicts,
                                         action="skipped"))
        if chosen is None:
            break
        e, verdicts = chosen
        complex = contract_edge(complex, e).target
        log.records.append(LogRecord(
            edge=e, conditions_checked=verdicts, action="contracted",
            snapshot=_snapshot(complex) if snapshots else None))
        steps += 1
    return complex, log


def report(before: SimplicialComplex, after: SimplicialComplex,
           dims: list, tu_budget: Optional[int] = None) -> dict:
    """Per-dimension homology and TU verdicts for both complexes, with deltas."""
    if any(p < 0 for p in dims):
        raise InvalidArgument(f"report dimension {min(dims)} is negative")
    out = {"dimensions": {}}
    sides = [(tag, cx, homology_groups(cx))
             for tag, cx in (("before", before), ("after", after))]
    for p in dims:
        entry = {}
        for tag, cx, groups in sides:
            if 0 <= p <= cx.dim:
                g = groups[p]
                row = {"betti": g.betti, "torsion": list(g.torsion_coeffs)}
            else:
                row = {"betti": 0, "torsion": []}
            if p + 1 <= cx.dim:
                verdict = is_totally_unimodular(boundary_matrix(cx, p + 1),
                                                strategy="circuit",
                                                budget=tu_budget)
                row["tu_boundary_p_plus_1"] = verdict.status
            else:
                row["tu_boundary_p_plus_1"] = True
            entry[tag] = row
        entry["delta"] = {
            "betti": entry["after"]["betti"] - entry["before"]["betti"],
            "torsion_changed":
                entry["after"]["torsion"] != entry["before"]["torsion"],
        }
        out["dimensions"][p] = entry
    return out
