"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q          # from the repository root

Checks that tracing does not perturb results, that the exact per-layer
counts repeat at one seed, and that span self times add up to the traced
wall time.  It takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

EXACT_COUNTS = ("trainer.steps", "objectives.perc_loss_calls",
                "numerics.forward_calls", "theory.risk_evals",
                "metrics.kernel_entries")

# a short training run that still goes through every objective term
TINY_TRAIN = """\
seed = 5
world.kind = rotation
encoder.arch = mlp1
encoder.d_hidden = 8
train.steps = 20
train.batch_size = 64
objective.use_nce = true
objective.w_var = 1.0
objective.w_cov = 1.0
metrics.n = 512
metrics.probe_efficiency = false
"""


def _env():
    old = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _cli(tmp: Path, argv, spans=None) -> Path:
    out = tmp / ("traced" if spans else "plain")
    if spans is None:
        cmd = [sys.executable, "-m", "pelab.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "launch.py"), "--spans", str(spans),
               "--"]
    subprocess.run(cmd + list(argv) + ["--out", str(out), "--quiet"],
                   cwd=ROOT, env=_env(), check=True)
    return out


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cfg") / "tiny_train.cfg"
    path.write_text(TINY_TRAIN, encoding="utf-8")
    return path


@pytest.mark.parametrize("argv", [
    ("run", "--config", "TINY"),
    ("run", "--config", "bernoulli_counterexample"),
    ("verify-theory", "--config", "merged_orbits"),
    ("verify-theory", "--config", "over_invariance_bernoulli"),
])
def test_tracing_leaves_reports_byte_identical(tmp_path, tiny_config, argv):
    argv = [str(tiny_config) if a == "TINY" else a for a in argv]
    plain = _cli(tmp_path, argv)
    traced = _cli(tmp_path, argv, spans=tmp_path / "spans.json")
    assert (plain / "report.json").read_bytes() == \
        (traced / "report.json").read_bytes()
    doc = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert doc["spans"], "the traced run recorded no spans"


def test_tiny_training_counts(tmp_path, tiny_config):
    counts = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.json"
        _cli(tmp_path / str(i), ["run", "--config", str(tiny_config)], spans)
        doc = json.loads(spans.read_text(encoding="utf-8"))
        counts.append(tracing.summarize([doc], 1))
    assert counts[0]["trainer.steps"] == 20
    assert counts[0]["objectives.perc_loss_calls"] == 20
    for name in EXACT_COUNTS:
        assert counts[0][name] == counts[1][name], name


@pytest.mark.parametrize("workload", ["theory_sweep", "certify_codes"])
def test_traced_run_counts_repeat_and_self_times_add_up(workload, capsys):
    results = [run.run_workload(ROOT, workload, 3, 0.0, True)
               for _ in range(2)]
    printed = capsys.readouterr().out
    assert "TRACE CHECK" not in printed, printed
    for res in results:
        assert res["correct"] and res["failed"] == 0, printed
    a, b = (r["metrics"] for r in results)
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    assert a["theory.risk_evals" if workload == "theory_sweep"
             else "metrics.kernel_entries"]["value"] > 0


def test_self_time_is_span_minus_children():
    # [name, start, end, parent, op, work]: a root with two children, one of
    # which has a child of its own
    spans = [[0, 0.0, 10.0, -1, 0, 0], [1, 1.0, 4.0, 0, 0, 0],
             [2, 2.0, 3.0, 1, 0, 0], [1, 5.0, 6.0, 0, 0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(tracing.self_times(spans)) == 10.0
