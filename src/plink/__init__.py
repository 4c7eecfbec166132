"""Edge contraction of simplicial complexes with link-condition gating,
exact integer homology, total-unimodularity certificates on boundary
matrices, and exact-rational optimal homologous chain solving."""

from .complexes import (COLLAPSING, INJECTIVE, MIRROR, Chain, EdgeContraction,
                        InvalidArgument, Simplex, SimplicialComplex,
                        boundary_of, canon, chain_boundary, contract_edge,
                        faces_of, push_chain, push_sign)
from .homology import (HomologyGroup, IntegerMatrix, SubcomplexPair, Verdict,
                       boundary_matrix, enumerate_pure_pairs,
                       has_relative_torsion, homology_group,
                       homology_groups, is_pure, relative_boundary_matrix,
                       relative_homology_group, smith_normal_form, snf_solve)
from .ohcp import (LinearProgram, LPResult, LPSolution, OHCPInstance,
                   formulate, solve_ilp, solve_lp_exact, solve_ohcp_ilp,
                   solve_ohcp_lp, verify_homologous)
from .pipeline import ContractionLog, GatePolicy, reduce, report, scan_edges
from .tugraph import (B_EVEN, B_ODD, CircuitDomainError, IncidenceGraph,
                      PreconditionError, b_parity, build_p_graph,
                      construct_preimage_circuit, enumerate_chordless_cycles,
                      is_totally_unimodular, map_circuit_f)

__version__ = "0.1.0"
