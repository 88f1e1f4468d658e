import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pelab
from pelab import theory
from pelab.numerics import Encoder, Rng, as_samples
from pelab.worlds import (make_bernoulli_uv_world, make_rotation_world,
                          make_six_nine_world)


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def rotation_world():
    return make_rotation_world()


@pytest.fixture
def unit_circle_world():
    # every sample lies on the unit circle, inside the label-0 side of a
    # rotation world whose threshold is 1.5 (a builder rejects the empty
    # interval r_min == r_max, which puts every radius on the threshold)
    def sample_xy(rng, n):
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        return (np.column_stack([np.cos(theta), np.sin(theta)]),
                np.zeros(n, dtype=np.int64))

    return replace(make_rotation_world(r_min=1.0, r_max=2.0),
                   sample_xy=sample_xy)


@pytest.fixture
def bernoulli_world():
    return make_bernoulli_uv_world()


@pytest.fixture
def six_nine_world():
    return make_six_nine_world()


@pytest.fixture
def risk_evals(monkeypatch):
    """The argument tuples of every ``theory.risk_of_cells`` call made in
    the test, one per Bayes-risk evaluation."""
    calls = []
    price = theory.risk_of_cells

    def counted(*args):
        calls.append(args)
        return price(*args)

    monkeypatch.setattr(theory, "risk_of_cells", counted)
    return calls


def identity_encoder(d):
    """The linear encoder z = x on d dimensions."""
    return Encoder("linear", np.eye(d), np.zeros(d))


def through_orbit_map(world, link):
    """The encoder x -> link(T(x)) for readers of codes (heads, probes): a
    copy of ``link`` whose ``forward`` reads x through the world's orbit
    map; its parameters are the link's."""
    enc = link.copy()
    forward = enc.forward
    enc.forward = lambda x: forward(as_samples(world.orbit_map(x)))
    return enc


def relative_l2_error(approx, exact):
    """|a - b| / max(|a|, |b|, 1e-12) in the L2 sense."""
    denom = max(float(np.linalg.norm(approx)), float(np.linalg.norm(exact)),
                1e-12)
    return float(np.linalg.norm(approx - exact)) / denom


# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def run_fresh_python(args, **blas_env):
    """Run ``python *args`` in a fresh interpreter that imports pelab from
    this tree, with no BLAS thread variable set but those in ``blas_env``;
    return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(pelab.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=120).stdout
