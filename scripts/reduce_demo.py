#!/usr/bin/env python3
"""Gated greedy reduction with per-step homology snapshots.

Usage: python scripts/reduce_demo.py [fixture] [--gate full|p=1] [--steps N]
"""
import argparse

from plink import fixtures, pipeline
from plink.cli import _gate


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fixture", nargs="?", default="annulus",
                    choices=fixtures.FIXTURE_NAMES)
    ap.add_argument("--gate", default="full")
    ap.add_argument("--steps", type=int, default=None)
    args = ap.parse_args()

    cx = fixtures.generate(args.fixture)
    print(f"{args.fixture}: {cx!r}")
    final, log = pipeline.reduce(cx, _gate(args.gate),
                                 max_steps=args.steps, snapshots=True)
    for rec in log.records:
        if rec.action != "contracted":
            continue
        groups = "  ".join(f"H_{p}={g}" for p, g in sorted(rec.snapshot.items()))
        print(f"  contracted {rec.edge}: {groups}")
    skipped = sum(1 for r in log.records if r.action == "skipped")
    print(f"final: {final!r}  "
          f"({len(log.contracted_edges)} contractions, {skipped} skips)")
    rep = pipeline.report(cx, final, dims=list(range(min(cx.dim, 2) + 1)))
    for p, entry in rep["dimensions"].items():
        print(f"  dim {p}: betti {entry['before']['betti']} -> "
              f"{entry['after']['betti']}, torsion changed: "
              f"{entry['delta']['torsion_changed']}")


if __name__ == "__main__":
    main()
