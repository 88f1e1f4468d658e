"""Write ``bench/reference.json`` from the reference round of every workload.

    python3 bench/record_reference.py

Run from the repository root.  The reference round runs each op at its
config's default seed; its headline values and report digests become what
every later benchmark run is checked against (see ``checks.py``).  Record it
again only when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Bench  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    ops = {}
    for name in workloads.WORKLOADS:
        bench = Bench(root, name, 0, False)
        bench.make_fixtures()
        if name == "theory_sweep":
            results, _ = bench.run_sweep(0.0, traced=False)
        else:
            results = [bench.run_process_op(op, traced=False) for op in
                       workloads.round_ops(name, 0, 0, bench.fixtures)]
        for r in results:
            if r.rc != 0:
                print(f"error: {r.op.key} exited {r.rc}", file=sys.stderr)
                return 1
            report = r.out / "report.json"
            ops[r.op.key] = {
                "seed": r.op.seed,
                "sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
                "headline": checks.headline(checks.strict_load(report), r.out)}
    checks.REFERENCE_PATH.write_text(
        json.dumps({"ops": ops}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {checks.REFERENCE_PATH} ({len(ops)} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
