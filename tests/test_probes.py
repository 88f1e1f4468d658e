import tracemalloc

import numpy as np
import pytest

from pelab import probes
from pelab.numerics import Rng
from pelab.probes import fit_linear_probe

LOG2 = np.log(2.0)


def log_loss_bits(proba, class_idx):
    p = np.clip(proba[np.arange(class_idx.size), class_idx], 1e-300, None)
    return float(-np.mean(np.log(p)) / LOG2)


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _reference_fit(z, y, rng, epochs=200, lr=1.0, val_frac=0.2, patience=25):
    """The probe loop with a fresh array per step, a dense one-hot target
    and a normalized, clipped validation softmax, kept as the oracle for
    the blocked sufficient-statistic loop."""
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


def _assert_matches_reference(head, z, y, rng_seed, **fit_kw):
    W, b, mean, scale = _reference_fit(z, y, Rng(rng_seed), **fit_kw)
    assert np.array_equal(head.mean, mean) and np.array_equal(head.scale, scale)
    for got, ref in ((head.W, W), (head.b, b)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, d, many_classes", [(700, 3, True),
                                                 (400, 2, False),
                                                 (120, 1, False)])
def test_fit_linear_probe_matches_reference_loop(n, d, many_classes):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, d))
    # one class per distinct angle, as a probe on a continuous nuisance sees
    y = (np.round(rng.uniform(0, 6.28, n), 2) if many_classes
         else rng.integers(0, 5, n))
    head = fit_linear_probe(z, y, Rng(9))
    assert head.W.shape[0] > (300 if many_classes else 1)
    _assert_matches_reference(head, z, y, 9)


@pytest.fixture
def exp_log(monkeypatch):
    """Records each logit bound the probe loop computes and, for each block
    it exponentiates, whether the rows were shifted and the largest
    |logit| among them."""
    log = []
    bound, exp_rows = probes._logit_bound, probes._exp_rows

    def bound_spy(*args):
        log.append(("bound", bound(*args)))
        return log[-1][1]

    def exp_spy(logits, shift):
        log.append(("shift", shift, float(np.max(np.abs(logits)))))
        return exp_rows(logits, shift)

    monkeypatch.setattr(probes, "_logit_bound", bound_spy)
    monkeypatch.setattr(probes, "_exp_rows", exp_spy)
    return log


def test_logit_bound_covers_weights_and_biases():
    rng = np.random.default_rng(4)
    za = np.ones((50, 4))
    za[:, :3] = rng.normal(size=(50, 3))
    z_norm_max = float(np.linalg.norm(za[:, :3], axis=1).max())
    biases_only = np.zeros((6, 4))
    biases_only[:, 3] = 100.0 * rng.normal(size=6)
    for Wb in (rng.normal(size=(6, 4)), biases_only):
        assert (np.max(np.abs(za @ Wb.T))
                <= probes._logit_bound(z_norm_max, Wb) * (1 + 1e-15))


def test_fit_linear_probe_shifts_exactly_beyond_spread_limit(exp_log):
    # three separated clusters with a tenth of the labels redrawn, so the
    # validation loss turns up and early stopping picks a shifted epoch; the
    # row scaled by 1e3 lands in the validation split, far outside the
    # training rows' spread, so the logit bound passes 350 after one step
    rng = np.random.default_rng(200)
    y = rng.integers(0, 3, 200)
    z = (rng.normal(size=(200, 2))
         + 4.0 * np.stack([np.cos(2.1 * y), np.sin(2.1 * y)], axis=1))
    y = np.where(rng.uniform(size=200) < 0.1, rng.integers(0, 3, 200), y)
    z[0] *= 1e3
    head = fit_linear_probe(z, y, Rng(1))
    _assert_matches_reference(head, z, y, 1)
    bound, shifts = 0.0, []
    for entry in exp_log:
        if entry[0] == "bound":
            bound = entry[1]
        else:
            _, shift, widest = entry
            assert widest <= bound * (1 + 1e-15)
            assert shift == (2.0 * bound > 700.0)
            shifts.append(shift)
    assert any(shifts) and not all(shifts)


def test_fit_linear_probe_blocks_match_one_block(monkeypatch, exp_log):
    rng = np.random.default_rng(5)
    n = 1200
    z = rng.normal(size=(n, 2))
    y = rng.permutation(n) % 600
    head = fit_linear_probe(z, y, Rng(3))
    blocks = sum(entry[0] == "shift" for entry in exp_log)
    epochs = sum(entry[0] == "bound" for entry in exp_log)
    assert blocks >= 3 * epochs
    _assert_matches_reference(head, z, y, 3)
    monkeypatch.setattr(probes, "BLOCK_ENTRIES", n * 600)
    exp_log.clear()
    whole = fit_linear_probe(z, y, Rng(3))
    assert sum(entry[0] == "shift" for entry in exp_log) == 2 * epochs
    for got, ref in ((head.W, whole.W), (head.b, whole.b)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fit_linear_probe_peak_memory_is_one_block():
    # the rotation certify fixture's leakage probe: 1 400 rows, one class
    # per distinct angle; an m x k buffer alone would take 12.5 MB
    rng = np.random.default_rng(7)
    n, k = 1400, 1400
    z = rng.normal(size=(n, 4))
    y = rng.permutation(n) % k
    tracemalloc.start()
    try:
        fit_linear_probe(z, y, Rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


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
