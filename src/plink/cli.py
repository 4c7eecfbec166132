"""Command line surface.

Exit codes: 0 success / affirmative, 1 computational negative (with witness),
2 usage error, 3 inconclusive (budget exhausted).
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures, pipeline, scxio
from .complexes import InvalidArgument, canon, contract_edge, p_link_holds
from .homology import (SubcomplexPair, boundary_matrix, has_relative_torsion,
                       homology_group, relative_homology_group)
from .ohcp import (BUDGET_EXCEEDED, OPTIMAL, OHCPInstance, solve_ohcp_ilp,
                   solve_ohcp_lp)
from .tugraph import is_totally_unimodular

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

ORACLE_PAIR_BUDGET = 20_000     # default --budget of rel-torsion --mode oracle


def _load_scx(path: str):
    return scxio.parse_scx(Path(path).read_text())


def _edge(text: str):
    try:
        return canon(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise InvalidArgument(f"bad edge {text!r}: {exc}")


def _emit(payload, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _write_scx(cx, output) -> None:
    """Write a complex as scx text to the file output, or to stdout."""
    text = scxio.serialize_scx(cx)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _exit(ok) -> int:
    """Exit code of an answer: True 0, False 1, None (inconclusive) 3."""
    if ok is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_link_check(args) -> int:
    cx = _load_scx(args.complex)
    max_p = args.max_p if args.max_p is not None else cx.dim
    if args.edge:
        e = _edge(args.edge)
        defect = cx.link_defect(e)
        verdicts = {p: p_link_holds(defect, p) for p in range(max_p + 1)}
        payload = {"edge": list(e), "p_link": verdicts,
                   "link_condition": not defect}
    else:
        scan = pipeline.scan_edges(cx, max_p)
        payload = {"edges": {" ".join(map(str, e)): v for e, v in scan.items()}}
    _emit(payload, args.json)
    return EXIT_OK


def cmd_contract(args) -> int:
    cx = _load_scx(args.complex)
    contraction = contract_edge(cx, _edge(args.edge), keep=args.keep)
    _write_scx(contraction.target, args.output)
    return EXIT_OK


def cmd_homology(args) -> int:
    cx = _load_scx(args.complex)
    group = homology_group(cx, args.p)
    _emit(group.to_json(args.p), args.json)
    return EXIT_OK


def cmd_rel_homology(args) -> int:
    L = _load_scx(args.L)
    L0 = _load_scx(args.L0)
    pair = SubcomplexPair(L=L, L0=L0, p=args.p)
    group = relative_homology_group(pair)
    _emit(group.to_json(args.p), args.json)
    return EXIT_OK


def cmd_tu_check(args) -> int:
    cx = _load_scx(args.complex)
    matrix = boundary_matrix(cx, args.p)
    verdict = is_totally_unimodular(matrix, strategy=args.strategy,
                                    budget=args.budget)
    w = verdict.witness
    if isinstance(w, frozenset):
        w = sorted([{"q": list(r), "p": list(c), "w": matrix.entry(r, c)}
                    for (r, c) in w], key=lambda d: (d["q"], d["p"]))
    elif isinstance(w, dict):
        w = {k: (list(map(list, v)) if isinstance(v, tuple) else v)
             for k, v in w.items()}
    _emit({"status": verdict.status, "strategy": verdict.mode, "witness": w},
          args.json)
    return _exit(verdict.status)


def cmd_rel_torsion(args) -> int:
    cx = _load_scx(args.complex)
    budget = args.budget
    if budget is None and args.mode == "oracle":
        budget = ORACLE_PAIR_BUDGET
    verdict = has_relative_torsion(cx, args.p, mode=args.mode, budget=budget)
    payload = {"has_relative_torsion": verdict.status, "mode": verdict.mode}
    if verdict.witness is not None:
        payload["witness_L"] = scxio.serialize_scx(verdict.witness.L)
        payload["witness_L0"] = scxio.serialize_scx(verdict.witness.L0)
    _emit(payload, args.json)
    return _exit(None if verdict.status is None else not verdict.status)


def cmd_ohcp(args) -> int:
    cx = _load_scx(args.complex)
    chain = scxio.parse_chn(Path(args.chain).read_text())
    instance = OHCPInstance(complex=cx, p=args.p, chain=chain)
    if args.integer:
        solution = solve_ohcp_ilp(instance, budget=args.budget)
    else:
        solution = solve_ohcp_lp(instance)
    _emit(solution.to_json(), args.json)
    return _exit(None if solution.status == BUDGET_EXCEEDED
                 else solution.status == OPTIMAL)


def _gate(text: str) -> pipeline.GatePolicy:
    if text == "full":
        return pipeline.GatePolicy(scope=pipeline.FULL_LINK)
    if text.startswith("p="):
        try:
            dims = frozenset(int(t) for t in text[2:].split(","))
        except ValueError as exc:
            raise InvalidArgument(f"bad gate {text!r}: {exc}")
        return pipeline.GatePolicy(required_conditions=dims,
                                   scope=pipeline.LISTED_P_ONLY)
    raise InvalidArgument(f"bad gate {text!r}; use 'full' or 'p=2,1'")


def cmd_reduce(args) -> int:
    cx = _load_scx(args.complex)
    final, log = pipeline.reduce(cx, _gate(args.gate), order=args.order,
                                 max_steps=args.max_steps,
                                 snapshots=args.snapshots)
    _write_scx(final, args.output)
    if args.log:
        records = [{"edge": list(r.edge),
                    "conditions": {str(k): v
                                   for k, v in r.conditions_checked.items()},
                    "action": r.action,
                    "snapshot": ({str(p): [g[0], list(g[1])]
                                  for p, g in r.snapshot.items()}
                                 if r.snapshot else None)}
                   for r in log.records]
        Path(args.log).write_text(json.dumps(records, indent=2))
    return EXIT_OK


def cmd_generate(args) -> int:
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.n is not None:
        params["n"] = args.n
    _write_scx(fixtures.generate(args.name, **params), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="plink")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--json", action="store_true")
        if budget:
            p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("link-check", help="p-link condition verdicts")
    p.add_argument("complex")
    p.add_argument("--edge", default=None, help="edge as 'a,b'")
    p.add_argument("--max-p", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_link_check)

    p = sub.add_parser("contract", help="contract one edge")
    p.add_argument("complex")
    p.add_argument("--edge", required=True)
    p.add_argument("--keep", type=int, default=None,
                   help="surviving endpoint (default: smaller id)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("homology", help="H_p betti number and torsion")
    p.add_argument("complex")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("rel-homology", help="H_p(L, L0) for a pure pair")
    p.add_argument("L")
    p.add_argument("L0")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_rel_homology)

    p = sub.add_parser("tu-check", help="total unimodularity of [d_p]")
    p.add_argument("complex")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--strategy", choices=("circuit", "determinant"),
                   default="circuit")
    common(p, budget=True)
    p.set_defaults(func=cmd_tu_check)

    p = sub.add_parser("rel-torsion", help="relative torsion search")
    p.add_argument("complex")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mode", choices=("oracle", "tu"), default="tu",
                   help="oracle walks the pure pairs, exponentially many")
    common(p)
    p.add_argument("--budget", type=int, default=None,
                   help="pure pairs for oracle (default "
                        f"{ORACLE_PAIR_BUDGET}), search nodes for tu "
                        "(default: no budget)")
    p.set_defaults(func=cmd_rel_torsion)

    p = sub.add_parser("ohcp", help="optimal homologous chain")
    p.add_argument("complex")
    p.add_argument("chain")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--integer", action="store_true")
    common(p, budget=True)
    p.set_defaults(func=cmd_ohcp)

    p = sub.add_parser("reduce", help="gated greedy contraction")
    p.add_argument("complex")
    p.add_argument("--gate", required=True, help="'full' or 'p=2,1'")
    p.add_argument("--order", choices=("lexicographic", "lightest-first"),
                   default="lexicographic")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--snapshots", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("generate", help="named fixture complexes")
    p.add_argument("name", choices=fixtures.FIXTURE_NAMES)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("budget", "max_steps", "max_p"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise InvalidArgument(
                    f"--{flag.replace('_', '-')} {value} is negative")
        return args.func(args)
    except (InvalidArgument, scxio.ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
