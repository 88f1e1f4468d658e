"""The benchmark's traced run finds pelab's layer functions by name.

``bench/tracing.py`` lists its targets as (module, attribute) pairs and
wraps them when a traced run starts, so a renamed or removed function would
fail only that run.  These tests resolve every target and call the one work
count that reads a pelab argument: ``perc_loss``'s batch size.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

from pelab.numerics import Rng, make_encoder  # noqa: E402
from pelab.objectives import ObjectiveSpec, perc_loss  # noqa: E402
from pelab.worlds import make_rotation_world, sample_batch  # noqa: E402


@pytest.mark.parametrize("module, attr", [t[:2] for t in tracing.TARGETS],
                         ids=[t[2] for t in tracing.TARGETS])
def test_every_traced_target_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_perc_loss_work_count_reads_the_batch_size():
    (work,) = [t[3] for t in tracing.TARGETS
               if t[:2] == ("pelab.objectives", "perc_loss")]
    assert list(inspect.signature(perc_loss).parameters)[:2] == ["enc",
                                                                  "batch"]
    rng = Rng(3)
    enc = make_encoder("mlp1", 2, 3, 4, rng)
    batch = sample_batch(make_rotation_world(), 16, rng, with_labels=False)
    spec = ObjectiveSpec()
    assert work(enc, batch, spec) == 16
    perc_loss(enc, batch, spec)
