"""In-process sweep for the ``theory_sweep`` workload.

    python3 bench/sweep.py --seed S --seconds T --out DIR --record FILE
                           [--spans FILE]

Imports ``pelab.cli`` once, then calls ``pelab.cli.main`` for whole rounds of
``verify-theory`` ops for about T seconds, the way a library user or
the acceptance tests drive it.  Each op writes into its own directory under
DIR; its wall time, CPU time and minor faults (``getrusage`` of this
process) go to FILE.  With ``--spans`` the layers are traced first.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402
from workloads import round_ops  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--record", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        tracer.install()
    import pelab.cli

    records = []
    start = time.perf_counter()
    k, last = 0, 0.0
    # same rule as run.py: start a round only if it should end in time
    while k == 0 or time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        for op in round_ops("theory_sweep", args.seed, k, {}):
            i = len(records)
            out = args.out / f"op{i}"
            if tracer is not None:
                tracer.op_id = i
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                rc = pelab.cli.main(op.argv + ["--out", str(out), "--quiet"])
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc()
                rc = -1
            t1 = time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            records.append({
                "round": k, "out": str(out), "rc": rc, "wall": t1 - t0,
                "user": ru1.ru_utime - ru0.ru_utime,
                "sys": ru1.ru_stime - ru0.ru_stime,
                "minflt": ru1.ru_minflt - ru0.ru_minflt})
        last = time.perf_counter() - began
        k += 1
    elapsed = time.perf_counter() - start
    args.record.write_text(json.dumps({"ops": records, "elapsed": elapsed}),
                           encoding="utf-8")
    if tracer is not None:
        tracer.dump(args.spans, op_walls=[r["wall"] for r in records])
    return 0


if __name__ == "__main__":
    sys.exit(main())
