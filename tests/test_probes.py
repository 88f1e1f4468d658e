import numpy as np
import pytest

from pelab.numerics import Rng
from pelab.probes import fit_linear_probe, log_loss_bits


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _reference_fit(z, y, rng, epochs=200, lr=1.0, val_frac=0.2, patience=25):
    """The probe loop with a fresh array per step and a dense one-hot
    target, kept as the bit-level reference for the buffered loop."""
    classes, y_idx = np.unique(y, return_inverse=True)
    n, d = z.shape
    k = classes.size
    perm = rng.permutation(n)
    n_val = max(1, int(round(val_frac * n)))
    val_ix, train_ix = perm[:n_val], perm[n_val:]
    mean = z[train_ix].mean(axis=0)
    scale = z[train_ix].std(axis=0)
    scale[scale < 1e-12] = 1.0
    zs = (z - mean) / scale
    W = np.zeros((k, d))
    b = np.zeros(k)
    yt = np.zeros((train_ix.size, k))
    yt[np.arange(train_ix.size), y_idx[train_ix]] = 1.0
    best = (np.inf, W.copy(), b.copy())
    stale = 0
    for _ in range(epochs):
        p = _softmax(zs[train_ix] @ W.T + b)
        g = (p - yt) / train_ix.size
        W -= lr * (g.T @ zs[train_ix])
        b -= lr * g.sum(axis=0)
        val_p = _softmax(zs[val_ix] @ W.T + b)
        val_loss = log_loss_bits(val_p, y_idx[val_ix])
        if val_loss < best[0] - 1e-12:
            best = (val_loss, W.copy(), b.copy())
            stale = 0
        else:
            stale += 1
            if stale > patience:
                break
    return best[1], best[2], mean, scale


@pytest.mark.parametrize("n, d, many_classes", [(700, 3, True),
                                                 (400, 2, False),
                                                 (120, 1, False)])
def test_fit_linear_probe_bit_identical_to_reference_loop(n, d, many_classes):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, d))
    # one class per distinct angle, as a probe on a continuous nuisance sees
    y = (np.round(rng.uniform(0, 6.28, n), 2) if many_classes
         else rng.integers(0, 5, n))
    head = fit_linear_probe(z, y, Rng(9))
    W, b, mean, scale = _reference_fit(z, y, Rng(9))
    assert head.W.shape[0] > (300 if many_classes else 1)
    assert np.array_equal(head.W, W) and np.array_equal(head.b, b)
    assert np.array_equal(head.mean, mean) and np.array_equal(head.scale, scale)


def test_predict_proba_leaves_input_codes_unchanged():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(200, 2))
    y = (z[:, 0] > 0).astype(int)
    head = fit_linear_probe(z, y, Rng(4))
    z_before = z.copy()
    proba = head.predict_proba(z)
    assert np.array_equal(z, z_before)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert np.array_equal(proba, _softmax(head.logits(z)))
