"""The fast reference ops of the benchmark, run in-process on every test run.

``bench/reference.json`` records the headline values of each op's report at
its config's default seed.  This test runs every op of the reference round
that needs no training -- the bernoulli_counterexample run, ``certify`` on
the two seed-0 fixtures and the three ``verify-theory`` scenarios -- and
checks the report with ``bench/checks.py``: strict JSON, the verdicts the op
must pass, and each headline value within the benchmark's tolerance.
Report digests are not asserted, since a new numpy or BLAS may move last
digits.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import fixtures  # noqa: E402
import workloads  # noqa: E402

import pelab.cli  # noqa: E402

_REFERENCE = checks.load_reference()


@pytest.fixture(scope="module")
def seed0_fixtures(tmp_path_factory):
    seed = workloads.FIXTURE_DEFAULT_SEED
    return {seed: fixtures.write_fixtures(tmp_path_factory.mktemp("fix"), seed)}


@pytest.mark.parametrize("workload, key", [
    ("certify_codes", "run:bernoulli_counterexample"),
    ("certify_codes", "certify:rotation"),
    ("certify_codes", "certify:bernoulli"),
    *(("theory_sweep", f"theory:{sc}") for sc in workloads.SCENARIOS),
])
def test_reference_op_headline_values(workload, key, seed0_fixtures, tmp_path):
    op, = [op for op in workloads.round_ops(workload, 0, 0, seed0_fixtures)
           if op.key == key]
    rc = pelab.cli.main(op.argv + ["--out", str(tmp_path), "--quiet"])
    result = checks.check_op(op, rc, tmp_path, _REFERENCE)
    assert result["ok"], result["errors"]
