import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pelab
from pelab import theory
from pelab.numerics import (Encoder, Rng, as_samples, exp_rows, exp_shifts,
                            matmul)
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


# ---------------------------------------------------------------------------
# The perception step's former formulas: the oracles of the kernels that now
# sum in another order (InfoNCE's row sums and cosine norms, the shared
# variance and covariance kernel, the backprop's bias sums)
# ---------------------------------------------------------------------------

def former_nce_thin(x, y, bound, symmetric):
    """InfoNCE on the logits x @ y.T with its row sums from ``exp_rows``."""
    n = x.shape[0]
    if symmetric and exp_shifts(bound):
        v1, gx1, gy1 = former_nce_thin(x, y, bound, False)
        v2, gy2, gx2 = former_nce_thin(y, x, bound, False)
        return 0.5 * (v1 + v2), 0.5 * (gx1 + gx2), 0.5 * (gy1 + gy2)
    e = matmul(x, y.T)
    pos = e.diagonal().copy()
    c, rows = exp_rows(e, bound)
    row_loss = float(np.mean(c + np.log(rows) - pos))
    if not symmetric:
        a = (1.0 / n / rows)[:, None]
        return row_loss, a * matmul(e, y) - y / n, matmul(e.T, a * x) - x / n
    cols = e.sum(axis=0)
    value = 0.5 * (row_loss + float(np.mean(np.log(cols) - pos)))
    a = (0.5 / n / rows)[:, None]
    b = (0.5 / n / cols)[:, None]
    gx = a * matmul(e, y) + matmul(e, b * y) - y / n
    gy = matmul(e.T, a * x) + b * matmul(e.T, x) - x / n
    return value, gx, gy


def former_infonce(z, zp, tau, sim, symmetric=True):
    """InfoNCE with its row norms from ``np.linalg.norm``."""
    if sim == "dot":
        x = z / tau
        bound = (np.linalg.norm(x, axis=1).max()
                 * np.linalg.norm(zp, axis=1).max())
        value, gx, gzp = former_nce_thin(x, zp, bound, symmetric)
        return value, gx / tau, gzp
    zn = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    zpn = np.maximum(np.linalg.norm(zp, axis=1, keepdims=True), 1e-12)
    zh, zph = z / zn, zp / zpn
    value, gx, gzph = former_nce_thin(zh / tau, zph, 1.0 / tau, symmetric)
    gzh = gx / tau
    gz = (gzh - np.sum(gzh * zh, axis=1, keepdims=True) * zh) / zn
    gzp = (gzph - np.sum(gzph * zph, axis=1, keepdims=True) * zph) / zpn
    return value, gz, gzp


def former_variance_floor(z, gamma):
    n = z.shape[0]
    centered = z - z.mean(axis=0)
    var = np.sum(centered * centered, axis=0) / (n - 1)
    active = var < gamma
    grad = np.zeros_like(z)
    grad[:, active] = -(2.0 / (n - 1)) * centered[:, active]
    return float(np.sum(gamma - var[active])), grad


def former_covariance_penalty(z):
    n = z.shape[0]
    centered = z - z.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    off = cov - np.diag(np.diag(cov))
    return (float(np.sum(off * off)),
            matmul((2.0 / (n - 1)) * centered, 2.0 * off))


def former_backprop(enc, x, grad_z, h):
    """``Encoder.backprop_params`` with its bias gradients from
    ``ndarray.sum``; ``h`` is the hidden layer of an mlp1 encoder."""
    if enc.arch == "linear":
        return np.concatenate([(grad_z.T @ x).ravel(), grad_z.sum(axis=0)])
    da = matmul(grad_z, enc.W2) * (1.0 - h * h)
    return np.concatenate([(da.T @ x).ravel(), da.sum(axis=0),
                           (grad_z.T @ h).ravel(), grad_z.sum(axis=0)])


def sum_rounding_bound(length: int) -> float:
    """The relative rounding of a sum of ``length`` terms added in another
    order: at most about length eps of the terms' scale."""
    return length * np.finfo(np.float64).eps
