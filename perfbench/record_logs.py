#!/usr/bin/env python3
"""Record the gated-reduce contraction-log digests of the default seed into
perfbench/meta.json.  Run from the repository root, once, at the commit
whose logs are the reference:

    python3 perfbench/record_logs.py

gated-reduce then fails every reduce whose log differs from the record.
"""
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    meta = json.loads(workloads.META.read_text())
    P = run.import_plink()
    ops = workloads.GatedReduce().build(P, meta["default_seed"])
    digests = []
    for op in ops:
        _, log = op.run(P, *op.prepare(P))
        digests.append(workloads.log_digest(log))
    meta["reduce_log_digests"] = digests
    workloads.META.write_text(json.dumps(meta, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
