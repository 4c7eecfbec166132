#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

They check that tracing is repeatable and covers every layer, and that each
reference check rejects a wrong answer.
"""
import dataclasses
import sys
import unittest
from fractions import Fraction

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
P = run.import_plink()
SEED = 3


def batch(name, pick, limit=None):
    ops = [op for op in workloads.WORKLOADS[name].build(P, SEED) if pick(op)]
    return ops[:limit]


def answers(ops):
    return [op.run(P, *op.prepare(P)) for op in ops]


class TracingTest(unittest.TestCase):
    # a cheap slice of each batch
    SLICES = {"gated-reduce": lambda op: "mobius(25)" in op.label,
              "homology-torsion": lambda op: op.kind == "homology",
              "tu-certify": lambda op: "K8" not in op.label,
              "ohcp-solve": lambda op: op.label.endswith(" lp")}

    def traced_counts(self, ops):
        with tracing.Tracer() as tracer:
            run.run_batch(P, ops, tracer)
        return dict(tracer.calls), dict(tracer.counters)

    def test_two_traced_runs_give_identical_counts(self):
        for name, pick in self.SLICES.items():
            with self.subTest(workload=name):
                ops = batch(name, pick, limit=20)
                first = self.traced_counts(ops)
                self.assertTrue(first[0])
                self.assertEqual(first, self.traced_counts(ops))

    def test_every_layer_has_a_wrapped_entry_point(self):
        entry_points = ("complexes.SimplicialComplex.link",
                        "complexes.contract_edge",
                        "pipeline.reduce", "homology.smith_normal_form",
                        "homology.enumerate_pure_pairs",
                        "tugraph.is_totally_unimodular",
                        "tugraph.enumerate_chordless_cycles",
                        "ohcp.solve_lp_exact", "ohcp.solve_ilp",
                        "scxio.parse_scx")
        originals = (P.pipeline.reduce, P.pipeline.contract_edge,
                     P.complexes.SimplicialComplex.__dict__["link"])
        with tracing.Tracer() as tracer:
            layers = set(tracer.wrapped.values())
            self.assertEqual(layers, set(tracing.LAYERS))
            for key in entry_points:
                self.assertIn(key, tracer.wrapped)
            # rebound in every namespace that imported the function
            self.assertIsNot(P.pipeline.contract_edge, originals[1])
            self.assertIs(P.pipeline.contract_edge,
                          P.complexes.contract_edge)
        self.assertEqual((P.pipeline.reduce, P.pipeline.contract_edge,
                          P.complexes.SimplicialComplex.__dict__["link"]),
                         originals)

    def test_generator_spans_count_each_next(self):
        cx = P.fixtures.mobius(5)
        with tracing.Tracer() as tracer:
            tracer.active = True
            pairs = list(P.homology.enumerate_pure_pairs(cx, 1, budget=50))
        self.assertEqual(tracer.calls["homology.enumerate_pure_pairs"], 1)
        # 50 pairs, the truncation marker, and the final StopIteration
        self.assertEqual(tracer.spans["homology.enumerate_pure_pairs"],
                         len(pairs) + 1)
        self.assertEqual(tracer.counters["pairs_enumerated"], 50)


class WrongAnswerTest(unittest.TestCase):
    """Each checker accepts the true answers and rejects a corrupted one."""

    def assert_caught(self, name, ops, corrupt):
        wl = workloads.WORKLOADS[name]
        results = answers(ops)
        self.assertTrue(all(wl.check(P, ops, results, SEED)))
        for i in range(len(ops)):
            bad = list(results)
            bad[i] = corrupt(ops[i], results[i])
            verdicts = wl.check(P, ops, bad, SEED)
            self.assertFalse(verdicts[i], ops[i].label)
            bad[i] = RuntimeError("raised")
            self.assertFalse(wl.check(P, ops, bad, SEED)[i], ops[i].label)

    def test_gated_reduce(self):
        ops = batch("gated-reduce", lambda op: "mobius(25)" in op.label)
        def corrupt(op, res):
            final, log = res
            # drop the last contraction: the log no longer replays to final
            records = list(log.records)
            last = max(i for i, r in enumerate(records)
                       if r.action == "contracted")
            del records[last]
            return final, dataclasses.replace(log, records=records)
        self.assert_caught("gated-reduce", ops, corrupt)

    def test_gated_reduce_log_digest(self):
        ops = workloads.GatedReduce().build(P, 1)[:2]
        results = answers(ops)
        seed = workloads.json.loads(workloads.META.read_text())["default_seed"]
        check = workloads.GatedReduce().check
        self.assertEqual(check(P, ops, results, seed), [True, True])
        # still replays to the same complex, but is not the recorded log
        final, log = results[0]
        skipped = [r for r in log.records if r.action == "skipped"]
        self.assertTrue(skipped)
        log.records.remove(skipped[0])
        self.assertFalse(check(P, ops, results, seed)[0])

    def test_homology_torsion(self):
        ops = batch("homology-torsion",
                    lambda op: op.kind == "rel-torsion"
                    or op.label.startswith(("torus(5", "random")))
        def corrupt(op, res):
            if op.kind == "homology":
                return dataclasses.replace(res, betti=res.betti + 1)
            return dataclasses.replace(res, status=not res.status)
        self.assert_caught("homology-torsion", ops, corrupt)

    def test_tu_certify(self):
        ops = batch("tu-certify", lambda op: "K8" not in op.label, limit=30)
        def corrupt(op, res):
            if op.kind == "transport":
                pre, image = res
                return pre, image - {min(image)}
            if res.status:
                return dataclasses.replace(res, status=False,
                                           witness=frozenset())
            # a circuit that is not b-odd or not chordless
            return dataclasses.replace(res, witness=frozenset(
                list(res.witness)[:-1]))
        self.assert_caught("tu-certify", ops, corrupt)

    def test_ohcp_solve(self):
        ops = (batch("ohcp-solve",
                     lambda op: op.label.startswith("annulus(6)"))
               + batch("ohcp-solve", lambda op: op.label.endswith("(7) lp"),
                       limit=4))
        def corrupt(op, sol):
            chain = dict(sol.chain)
            s = min(chain)
            chain[s] = chain[s] + 1
            cost = sol.objective + Fraction(1, 7)
            return dataclasses.replace(sol, chain=chain, objective=cost)
        self.assert_caught("ohcp-solve", ops, corrupt)


if __name__ == "__main__":
    unittest.main()
