"""Run one pelab CLI command, optionally traced.

    python3 bench/launch.py [--spans FILE] -- <pelab cli arguments>

Without ``--spans`` this is ``python -m pelab.cli <arguments>``.  With it,
the layer functions are wrapped first (see ``tracing.py``), and the spans,
together with the wall time of the ``main`` call, are written to FILE when
the command returns.  ``pelab`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    import pelab.cli

    start = time.perf_counter()
    rc = pelab.cli.main(argv)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path, op_walls=[wall])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
