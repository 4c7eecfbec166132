"""The four benchmark workloads: seeded inputs, the timed public calls, and
the reference checks run outside the timed window.

Every input is generated from the seed, written out with
``scxio.serialize_scx`` (chains with ``serialize_chn``) and kept as text.  An
operation parses fresh objects from that text before each timed call, so no
operation sees objects (or caches on them) left by another.  An operation is
one public call, the one a CLI command makes; its ``kind`` names the command.

Each workload returns its batch from ``build(P, seed)``, where ``P`` holds the
plink modules of the current import.  ``check(P, ops, results, seed)``
returns one verdict per operation; an operation fails if it raised, if its
answer disagrees with the reference, or if it came back inconclusive or over
budget.  ``summary(result)`` is the text two runs of an operation must agree
on.

Each batch is composed so that its median and 90th percentile fall among
operations of near-equal cost, never on a jump between two cost classes;
otherwise a seed that adds one slow operation, or a little timing noise,
would move a percentile from one class to the next.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

META = Path(__file__).resolve().parent / "meta.json"

# Budgets for every exponential call, so a regression fails an operation
# instead of hanging the run.  Each is well above what the inputs here use
# at the commit that defined the benchmark.
TU_BUDGET = 2_000_000          # chordless-search nodes per TU check
ILP_BUDGET = 200               # LP solves per branch and bound
PAIR_BUDGET = 20_000           # pure pairs per relative-torsion oracle call


@dataclass
class Op:
    kind: str                  # CLI command the call stands for
    label: str                 # input family and size
    texts: tuple               # scx text of the complex, then chn texts
    run: Callable              # run(P, *inputs) -> result, the timed call
    key: object = None         # what the reference check needs to know
    group: object = None       # ops whose answers are checked together

    def prepare(self, P) -> tuple:
        cx = P.scxio.parse_scx(self.texts[0])
        return (cx,) + tuple(P.scxio.parse_chn(t) for t in self.texts[1:])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def passes(check, *args) -> bool:
    """A check that raises on a malformed answer counts as a failed op."""
    try:
        return bool(check(*args))
    except Exception:
        return False


# -- input generation ------------------------------------------------------
# The named fixtures are fixed instances; the seed draws the random families
# (random and dense complexes, annulus weights, transport circuits) and the
# order of the batch.  Relabelling the fixtures would change how much work
# the lexicographic gates and Bland's rule do, and so spread the timings of
# different seeds far more than the changes the benchmark must resolve.

def grid_surface(P, n: int, m: int, twist: bool):
    """n x m grid of triangles with opposite sides glued: a torus, or a Klein
    bottle when one gluing reverses direction."""
    def v(i, j):
        if i == n:
            i, j = 0, (-j if twist else j)
        return (i % n) * m + (j % m)
    tris = []
    for i in range(n):
        for j in range(m):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return P.complexes.SimplicialComplex.from_maximal(tris)


def complete_graph(P, n: int):
    return P.complexes.SimplicialComplex.from_maximal(
        itertools.combinations(range(n), 2))


def core_cycle(k: int) -> dict:
    """The oriented cycle 0 -> 1 -> ... -> k-1 -> 0."""
    chain = {}
    for i in range(k):
        a, b = i, (i + 1) % k
        chain[(min(a, b), max(a, b))] = 1 if a < b else -1
    return chain


def banded_random_complex(P, rng, lo: int, hi: int, **kw):
    """random_complex draws of dimension >= 2 whose size lies in [lo, hi];
    the band keeps the work per draw, and so the batch time, steady."""
    while True:
        cx = P.fixtures.random_complex(rng, **kw)
        if cx.dim >= 2 and lo <= len(cx.simplices) <= hi:
            return cx


# -- shared reference checks ------------------------------------------------

def homology_pairs(P, cx, top: int) -> list:
    return [P.homology.homology_group(cx, p).as_pair() if p <= cx.dim
            else (0, ()) for p in range(top + 1)]


def is_chordless_circuit(matrix, circuit) -> bool:
    """The edges form one cycle of the bipartite graph of the matrix, and no
    other nonzero entry joins two of its vertices."""
    if not circuit:
        return False
    nonzero = {(r, c) for i, r in enumerate(matrix.rows)
               for j, c in enumerate(matrix.cols) if matrix.entries[i][j]}
    if not set(circuit) <= nonzero:
        return False
    adj = {}
    for r, c in circuit:
        adj.setdefault(r, []).append(c)
        adj.setdefault(c, []).append(r)
    if any(len(n) != 2 for n in adj.values()):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(adj):
        return False
    rows = {r for r, _ in circuit}
    cols = {c for _, c in circuit}
    return all((r, c) in circuit for r in rows for c in cols
               if (r, c) in nonzero)


# -- gated-reduce -----------------------------------------------------------

GATES = ("full", "p=1,2")


def gate_policy(P, gate: str):
    """The policies the CLI builds for --gate full and --gate p=1,2."""
    if gate == "full":
        return P.pipeline.GatePolicy(scope=P.pipeline.FULL_LINK)
    return P.pipeline.GatePolicy(required_conditions=frozenset({1, 2}),
                                 scope=P.pipeline.LISTED_P_ONLY)


def log_digest(log) -> str:
    return digest(repr([(r.edge, sorted(r.conditions_checked.items()),
                         r.action) for r in log.records]))


def recorded_logs(seed: int):
    """Log digests recorded for the default seed, one per reduce op: the
    guard that keeps contraction logs byte-identical across rewrites."""
    meta = json.loads(META.read_text())
    if seed != meta["default_seed"]:
        return None
    return meta["reduce_log_digests"]


class GatedReduce:
    name = "gated-reduce"

    # The annuli of size 24-29 reduced under the p=1,2 gate (and annulus(32)
    # under the full gate) are the costliest operations and of near-equal
    # cost: the 90th percentile lies among them.  The Moebius bands, spread
    # evenly in cost, hold the median; the small seeded random complexes all
    # fall below it.
    ANNULUS = (16, 20, 24, 25, 26, 27, 28, 29, 32)
    MOBIUS = (25, 29, 33, 37, 41, 45, 49)
    RANDOM = 6                 # kept few: their cost varies most by seed

    def build(self, P, seed: int) -> list:
        rng = random.Random(seed)
        fx = P.fixtures
        inputs = ([(f"annulus({k})", fx.annulus(k)) for k in self.ANNULUS]
                  + [(f"mobius({k})", fx.mobius(k)) for k in self.MOBIUS])
        inputs += [("random(14,4,12)",
                    banded_random_complex(P, rng, 60, 80, n_vertices=14,
                                          max_dim=4, n_generators=12))
                   for _ in range(self.RANDOM)]
        return [Op("reduce", f"{label} gate {gate}",
                   (P.scxio.serialize_scx(cx),), self._run(gate), key=gate)
                for label, cx in inputs for gate in GATES]

    @staticmethod
    def _run(gate):
        def run(P, cx):
            return P.pipeline.reduce(cx, gate_policy(P, gate))
        return run

    @staticmethod
    def summary(result) -> str:
        final, log = result
        return log_digest(log) + repr(sorted(final.simplices))

    def check(self, P, ops, results, seed) -> list:
        expected = recorded_logs(seed)
        return [passes(self._check_one, P, op, res,
                       expected and expected[i])
                for i, (op, res) in enumerate(zip(ops, results))]

    @staticmethod
    def _check_one(P, op, res, expected_log) -> bool:
        cx = op.prepare(P)[0]
        final, log = res
        if log.replay(cx) != final:
            return False
        if expected_log is not None and log_digest(log) != expected_log:
            return False
        if op.key == "full":
            top = max(cx.dim, final.dim)
            return homology_pairs(P, cx, top) == homology_pairs(P, final, top)
        return True


# -- homology-torsion ---------------------------------------------------------

SURFACE = [(1, ()), (1, ()), (0, ())]     # annulus and Moebius band
TORUS = [(1, ()), (2, ()), (1, ())]
KLEIN = [(1, ()), (1, (2,)), (0, ())]
PUNCTURED_MOBIUS = [(1, ()), (2, ()), (0, ())]

# The small corpus for the pure-pair oracle, with the closed-form answer:
# only the Moebius band has torsion in some relative H_1(L, L0).
ORACLE_CORPUS = {
    "cone(4)": (lambda P: P.fixtures.cone(4), False),
    "mobius(5)": (lambda P: P.fixtures.mobius(5), True),
    "book-3": (lambda P: P.complexes.SimplicialComplex.from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), False),
    "fan-4": (lambda P: P.complexes.SimplicialComplex.from_maximal(
        [(0, i, i + 1) for i in range(1, 5)]), False),
}


class HomologyTorsion:
    name = "homology-torsion"

    # Every shape from 5x5 to 7x7: many mid-size SNFs of graded size, so
    # that no percentile sits in a gap between two operations.
    GRIDS = tuple(itertools.product((5, 6, 7), repeat=2))
    RANDOM = 4

    def build(self, P, seed: int) -> list:
        rng = random.Random(seed)
        fx = P.fixtures
        inputs = []
        for n, m in self.GRIDS:
            inputs.append((f"torus({n}x{m})", grid_surface(P, n, m, False),
                           TORUS))
            inputs.append((f"klein({n}x{m})", grid_surface(P, n, m, True),
                           KLEIN))
        inputs += [("annulus(16)", fx.annulus(16), SURFACE),
                   ("mobius(21)", fx.mobius(21), SURFACE),
                   ("punctured-mobius(21)", fx.punctured_mobius(21),
                    PUNCTURED_MOBIUS)]
        for _ in range(self.RANDOM):
            cx = banded_random_complex(P, rng, 60, 90, n_vertices=10,
                                       max_dim=3, n_generators=10)
            inputs.append(("random(10,3,10)", cx, None))
        ops = []
        for g, (label, cx, expected) in enumerate(inputs):
            text = P.scxio.serialize_scx(cx)
            for p in range(cx.dim + 1):
                ops.append(Op("homology", f"{label} H_{p}", (text,),
                              self._homology(p),
                              key=(p, expected and expected[p]), group=g))
        for label, (make, expected) in ORACLE_CORPUS.items():
            ops.append(Op("rel-torsion", f"{label} oracle",
                          (P.scxio.serialize_scx(make(P)),), self._oracle,
                          key=expected))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _homology(p):
        def run(P, cx):
            return P.homology.homology_group(cx, p)
        return run

    @staticmethod
    def _oracle(P, cx):
        return P.homology.has_relative_torsion(cx, 1, mode="oracle",
                                               budget=PAIR_BUDGET)

    @staticmethod
    def summary(result) -> str:
        if hasattr(result, "as_pair"):
            return repr(result.as_pair())
        w = result.witness
        return repr((result.status, w and (sorted(w.L.simplices),
                                           sorted(w.L0.simplices))))

    def check(self, P, ops, results, seed) -> list:
        out = []
        groups = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            if op.kind == "homology":
                groups.setdefault(op.group, []).append(i)
                out.append(passes(self._check_closed_form, op, res))
            else:
                out.append(passes(self._check_oracle, P, op, res))
        for members in groups.values():
            if not passes(self._check_euler, P, ops, results, members):
                for i in members:
                    out[i] = False
        return out

    @staticmethod
    def _check_closed_form(op, group) -> bool:
        expected = op.key[1]
        return expected is None or group.as_pair() == expected

    @staticmethod
    def _check_euler(P, ops, results, members) -> bool:
        """sum (-1)^p n_p == sum (-1)^p betti_p over every p of a complex."""
        cx = ops[members[0]].prepare(P)[0]
        chi = sum((-1) ** (len(s) - 1) for s in cx.simplices)
        dims = sorted(ops[i].key[0] for i in members)
        betti = sum((-1) ** ops[i].key[0] * results[i].betti for i in members)
        return dims == list(range(cx.dim + 1)) and chi == betti

    @staticmethod
    def _check_oracle(P, op, verdict) -> bool:
        if verdict.status is None or verdict.status != op.key:
            return False
        cx = op.prepare(P)[0]
        tu = P.tugraph.is_totally_unimodular(
            P.homology.boundary_matrix(cx, 2), strategy="determinant")
        if tu.status is None or verdict.status != (not tu.status):
            return False
        if verdict.status:
            return bool(P.homology.relative_homology_group(
                verdict.witness).torsion_coeffs)
        return True


# -- tu-certify ---------------------------------------------------------------

class TUCertify:
    name = "tu-certify"

    # Operations per batch.  K7 and K8 (exhaustive, always TU) fill the top
    # 16%, and the 90th percentile lies among the K7 checks.  Thirty
    # pseudomanifold checks of near-equal cost (annulus(12), punctured
    # Moebius(29)) take ranks of about 36-65 and hold the median: the seeded
    # dense complexes and transports mostly fall below them, larger bands
    # above.
    COMPLETE = {7: 8, 8: 8}
    PSEUDOMANIFOLDS = (            # family, size, copies, TU
        ("mobius", 15, 2, False), ("mobius", 25, 2, False),
        ("mobius", 35, 2, False),
        ("annulus", 12, 15, True), ("punctured_mobius", 29, 15, True),
        ("annulus", 16, 4, True), ("annulus", 20, 4, True),
        ("annulus", 24, 4, True), ("punctured_mobius", 41, 4, True))
    DENSE = 22                     # 14 of the 35 triangles on 7 vertices
    TRANSPORTS = 10

    def build(self, P, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for n, copies in self.COMPLETE.items():
            ops += [self._tu(P, f"K{n} d_1", complete_graph(P, n), 1, True)
                    ] * copies
        for family, k, copies, tu in self.PSEUDOMANIFOLDS:
            cx = getattr(P.fixtures, family)(k)
            ops += [self._tu(P, f"{family}({k}) d_2", cx, 2, tu)] * copies
        triangles = list(itertools.combinations(range(7), 3))
        for _ in range(self.DENSE):
            cx = P.complexes.SimplicialComplex.from_maximal(
                rng.sample(triangles, 14))
            ops.append(self._tu(P, "dense(7,14) d_2", cx, 2, None))
        ops += self._transports(P, rng)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _tu(P, label, cx, p, expected):
        def run(P, cx):
            return P.tugraph.is_totally_unimodular(
                P.homology.boundary_matrix(cx, p), strategy="circuit",
                budget=TU_BUDGET)
        return Op("tu-check", label, (P.scxio.serialize_scx(cx),), run,
                  key=(p, expected))

    def _transports(self, P, rng) -> list:
        """Round trips construct_preimage_circuit -> map_circuit_f across
        contractions of 1-link-gated edges, on circuits of the target."""
        fx = P.fixtures
        sources = (fx.annulus(8), fx.mobius(9), fx.punctured_mobius(9))
        gated = [(cx, e) for cx in sources for e in cx.edges
                 if cx.satisfies_p_link(e, 1)]
        ops = []
        while len(ops) < self.TRANSPORTS:
            cx, e = rng.choice(gated)
            target = P.complexes.contract_edge(cx, e).target
            if target.dim < 2:
                continue
            graph = P.tugraph.build_p_graph(target, 2)
            cycles = [c for c in itertools.islice(
                P.tugraph.enumerate_chordless_cycles(graph, budget=TU_BUDGET),
                20) if c is not None]
            if not cycles:
                continue
            cycle = sorted(cycles, key=sorted)[rng.randrange(len(cycles))]
            ops.append(Op("transport", f"round trip over {e}",
                          (P.scxio.serialize_scx(cx),),
                          self._round_trip(e, cycle), key=(e, cycle)))
        return ops

    @staticmethod
    def _round_trip(edge, cycle):
        def run(P, cx):
            contraction = P.complexes.contract_edge(cx, edge)
            pre = P.tugraph.construct_preimage_circuit(contraction, cycle)
            return pre, P.tugraph.map_circuit_f(contraction, pre)
        return run

    @staticmethod
    def summary(result) -> str:
        if isinstance(result, tuple):
            return repr([sorted(c) for c in result])
        w = result.witness
        return repr((result.status,
                     sorted(w) if isinstance(w, frozenset) else w))

    def check(self, P, ops, results, seed) -> list:
        return [passes(self._check_one, P, op, res)
                for op, res in zip(ops, results)]

    @staticmethod
    def _check_one(P, op, res) -> bool:
        cx = op.prepare(P)[0]
        tg = P.tugraph
        if op.kind == "transport":
            edge, cycle = op.key
            contraction = P.complexes.contract_edge(cx, edge)
            pre, image = res
            return (image == cycle
                    and tg.b_parity(tg.build_p_graph(cx, 2), pre)
                    == tg.b_parity(tg.build_p_graph(contraction.target, 2),
                                   cycle))
        p, expected = op.key
        if res.status is None or (expected is not None
                                  and res.status != expected):
            return False
        if res.status:
            return True
        matrix = P.homology.boundary_matrix(cx, p)
        return (isinstance(res.witness, frozenset)
                and tg.b_parity(tg.IncidenceGraph.from_matrix(matrix),
                                res.witness) == tg.B_ODD
                and is_chordless_circuit(matrix, res.witness))


# -- ohcp-solve ---------------------------------------------------------------

# Closed-form optima of the weighted Moebius core-cycle instances (boundary
# edges cost 1/10, core edges 1): the LP slides half the cycle across the
# band, every integral chain pays more.
MOBIUS_OPTIMA = {7: {"lp": Fraction(7, 20), "ilp": Fraction(13, 10)},
                 9: {"lp": Fraction(9, 20), "ilp": Fraction(7, 5)}}


def weighted_mobius(P, k: int):
    cx = P.fixtures.mobius(k)
    rim = {tuple(sorted((i, (i + 2) % k))) for i in range(k)}
    weights = {e: Fraction(1, 10) if e in rim else Fraction(1)
               for e in cx.edges}
    return P.complexes.SimplicialComplex(cx.simplices, weights)


def weighted_annulus(P, rng, k: int):
    cx = P.fixtures.annulus(k)
    weights = {e: Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for e in cx.edges}
    return P.complexes.SimplicialComplex(cx.simplices, weights)


class OHCPSolve:
    name = "ohcp-solve"

    # Counts per batch.  The 76 single LPs on Moebius bands hold the median;
    # the 14 branch-and-bound solves take ranks 87-100, so the 90th
    # percentile lies inside that class with ten samples above it; the ten
    # annulus solves sit between the two classes.
    MOBIUS_LP = {7: 56, 9: 20}
    MOBIUS_ILP = {7: 12, 9: 2}
    ANNULUS = (6, 7, 8, 9, 10)            # each solved by LP and by ILP

    def build(self, P, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for solver, counts in (("lp", self.MOBIUS_LP),
                               ("ilp", self.MOBIUS_ILP)):
            for k, copies in counts.items():
                optimum = MOBIUS_OPTIMA[k][solver]
                ops += [self._op(P, f"mobius({k})", weighted_mobius(P, k),
                                 k, solver, (solver, optimum))] * copies
        for g, k in enumerate(self.ANNULUS):
            cx = weighted_annulus(P, rng, k)
            ops += [self._op(P, f"annulus({k})", cx, k, solver,
                             (solver, None), group=g)
                    for solver in ("lp", "ilp")]
        rng.shuffle(ops)
        return ops

    def _op(self, P, label, cx, k, solver, key, group=None):
        texts = (P.scxio.serialize_scx(cx),
                 P.scxio.serialize_chn(core_cycle(k)))
        return Op("ohcp", f"{label} {solver}", texts, self._run(solver),
                  key=key, group=group)

    @staticmethod
    def _run(solver):
        def run(P, cx, chain):
            instance = P.ohcp.OHCPInstance(complex=cx, p=1, chain=chain)
            if solver == "ilp":
                return P.ohcp.solve_ohcp_ilp(instance, budget=ILP_BUDGET)
            return P.ohcp.solve_ohcp_lp(instance)
        return run

    @staticmethod
    def summary(result) -> str:
        return repr((result.status, result.objective,
                     sorted(result.chain.items())))

    def check(self, P, ops, results, seed) -> list:
        out = [passes(self._check_one, P, op, res)
               for op, res in zip(ops, results)]
        pairs = {}
        for i, op in enumerate(ops):
            if op.group is not None:
                pairs.setdefault(op.group, []).append(i)
        for members in pairs.values():
            if not passes(self._check_tu_pair, ops, results, members):
                for i in members:
                    out[i] = False
        return out

    @staticmethod
    def _check_tu_pair(ops, results, members) -> bool:
        """TU instances: the LP optimum is integral, so LP == ILP."""
        objectives = {ops[i].key[0]: results[i].objective for i in members}
        return (sorted(objectives) == ["ilp", "lp"]
                and objectives["lp"] == objectives["ilp"] is not None)

    @staticmethod
    def _check_one(P, op, sol) -> bool:
        solver, optimum = op.key
        if sol.status != P.ohcp.OPTIMAL:
            return False
        if optimum is not None and sol.objective != optimum:
            return False
        cx, chain = op.prepare(P)
        cost = sum(cx.weight(s) * abs(Fraction(v))
                   for s, v in sol.chain.items())
        if cost != sol.objective:
            return False
        if solver == "ilp" and any(Fraction(v).denominator != 1
                                   for v in sol.chain.values()):
            return False
        homologous, _ = P.ohcp.verify_homologous(cx, 1, chain, sol.chain,
                                                 "rational")
        return homologous


WORKLOADS = {w.name: w for w in (GatedReduce(), HomologyTorsion(),
                                 TUCertify(), OHCPSolve())}
