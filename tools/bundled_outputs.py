"""Write the bundled outputs of one source tree, for byte-for-byte comparison.

Usage: python tools/bundled_outputs.py TREE OUT
       python tools/bundled_outputs.py --compare OUT_OLD OUT_NEW

Runs TREE's own ``src`` (and the CSV fixtures of TREE's ``bench/fixtures.py``)
in fresh processes and writes, each under its own directory of OUT:

* ``run`` of the two bundled run configs, rotation_pel and
  bernoulli_counterexample, at their config seeds;
* ``verify-theory`` of the three theory scenarios;
* ``certify`` of the rotation and bernoulli fixture CSVs of seeds 0 and 3;
* ``certify`` of the seed-0 rotation fixture at ``--seed 11001``.

``OUT/exit_codes.txt`` lists each command's exit code.  Two trees that
compute the same numbers give OUT directories that ``diff -r`` finds equal:

    python tools/bundled_outputs.py old_tree out_old
    python tools/bundled_outputs.py . out_new
    diff -r out_old out_new

``--compare`` reads two such OUT directories and prints each headline value
(``bench/checks.headline``) that differs between them, with the share of
its ``bench/checks.TOLERANCE`` (trained or default) that the difference
uses; 100 % or more would fail the benchmark's reference check.  It exits 0
whatever it finds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from checks import TOLERANCE, TRAINED_KEYS, headline, strict_load  # noqa: E402

RUN_CONFIGS = ("rotation_pel", "bernoulli_counterexample")
SCENARIOS = ("orthogonality_rotation", "over_invariance_bernoulli",
             "merged_orbits")
FIXTURE_SEEDS = (0, 3)

_WRITE_FIXTURES = """
import sys
from pathlib import Path
import pelab  # first, so that the BLAS loads as in a pelab CLI process
sys.path.insert(0, sys.argv[1])
from fixtures import write_fixtures
write_fixtures(Path(sys.argv[2]), int(sys.argv[3]))
"""


def _commands(fixture_dir: Path) -> list:
    """(output name, pelab CLI arguments) of every bundled output."""
    cmds = [(f"run_{c}", ["run", "--config", c]) for c in RUN_CONFIGS]
    cmds += [(f"theory_{s}", ["verify-theory", "--config", s])
             for s in SCENARIOS]
    for seed in FIXTURE_SEEDS:
        for kind in ("rotation", "bernoulli"):
            csv = fixture_dir / f"{kind}_{seed}.csv"
            cmds.append((f"certify_{kind}_{seed}", ["certify", str(csv)]))
    cmds.append(("certify_rotation_0_seed_11001",
                 ["certify", str(fixture_dir / "rotation_0.csv"),
                  "--seed", "11001"]))
    return cmds


def _op_key(name: str) -> str:
    """The benchmark's op key of an output directory: ``run_rotation_pel``
    is ``run:rotation_pel``, ``certify_rotation_0`` is ``certify:rotation``."""
    kind, _, rest = name.partition("_")
    if kind == "certify":
        rest = rest.split("_")[0]
    return f"{kind}:{rest}"


def compare(old: Path, new: Path) -> list:
    """One line per headline value that differs between two OUT
    directories: the old and new value and the share of its tolerance."""
    lines = []
    for old_dir in sorted(p for p in old.iterdir() if p.is_dir()):
        new_dir = new / old_dir.name
        if not (old_dir / "report.json").exists() \
                or not (new_dir / "report.json").exists():
            continue
        key = _op_key(old_dir.name)
        kind = "trained" if key in TRAINED_KEYS else "default"
        tol = TOLERANCE[kind]
        was = headline(strict_load(old_dir / "report.json"), old_dir)
        now = headline(strict_load(new_dir / "report.json"), new_dir)
        for name in sorted(set(was) | set(now)):
            a, b = was.get(name), now.get(name)
            if a == b:
                continue
            if a is None or b is None:
                lines.append(f"{old_dir.name} {name}: {a!r} -> {b!r}")
                continue
            share = abs(b - a) / (tol["abs"] + tol["rel"] * abs(a))
            lines.append(f"{old_dir.name} {name}: {a!r} -> {b!r} "
                         f"({share:.2%} of the {kind} tolerance)")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare":
        lines = compare(Path(args[1]), Path(args[2]))
        print("\n".join(lines) if lines else "no headline value moved")
        return 0
    if len(args) != 2:
        print("usage: python tools/bundled_outputs.py TREE OUT\n"
              "       python tools/bundled_outputs.py --compare OUT_OLD "
              "OUT_NEW", file=sys.stderr)
        return 2
    tree, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        fixture_dir = Path(tmp)
        for seed in FIXTURE_SEEDS:
            subprocess.run([sys.executable, "-c", _WRITE_FIXTURES,
                            str(tree / "bench"), tmp, str(seed)],
                           env=env, check=True)
        for name, cli_args in _commands(fixture_dir):
            rc = subprocess.run(
                [sys.executable, "-m", "pelab.cli", *cli_args,
                 "--out", str(out / name), "--quiet"],
                env=env, cwd=tmp).returncode
            codes.append(f"{name} {rc}\n")
    (out / "exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
