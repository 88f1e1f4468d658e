import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelab import probes
from pelab.errors import DegenerateError
from pelab.numerics import Rng, make_encoder, row_blocks
from pelab.probes import (LinearHead, evaluate_probe, fit_linear_probe,
                          macro_ovr_auc)
from pelab.worlds import make_bernoulli_uv_world

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


def _bernoulli_codes(n, seed=0):
    """Codes of a seeded mlp1 encoder on n two-bit inputs (4 distinct rows)
    and their labels."""
    world = make_bernoulli_uv_world()
    enc_rng, data_rng = Rng(seed).split(2)
    enc = make_encoder("mlp1", 2, 4, 32, enc_rng, init_scale=4.0)
    x, y = world.sample_xy(data_rng, n)
    return enc.forward(x), y


def _repeated_codes(case):
    if case == "bernoulli_k2":
        return _bernoulli_codes(2000)
    # six distinct 3-d codes, five classes drawn independently of them
    rng = np.random.default_rng(6)
    z = rng.normal(size=(6, 3))[rng.integers(0, 6, 1500)]
    return z, rng.integers(0, 5, 1500)


@pytest.mark.parametrize("case", ["bernoulli_k2", "six_codes_k5"])
def test_fit_linear_probe_on_repeated_rows_matches_reference_loop(case):
    z, y = _repeated_codes(case)
    assert np.unique(z, axis=0).shape[0] <= 6
    head = fit_linear_probe(z, y, Rng(2))
    _assert_matches_reference(head, z, y, 2)


def _unweighted_fit(z, y, rng, epochs=200, lr=1.0, val_frac=0.2,
                    patience=25):
    """The blocked probe loop over every row, unweighted, kept as the
    bitwise reference for rows that are all distinct."""
    classes, y_idx = np.unique(y, return_inverse=True)
    n, d = z.shape
    k = classes.size
    perm = rng.permutation(n)
    n_val = max(1, int(round(val_frac * n)))
    val_ix, train_ix = perm[:n_val], perm[n_val:]
    mean = z[train_ix].mean(axis=0)
    scale = z[train_ix].std(axis=0)
    scale[scale < 1e-12] = 1.0
    za = np.ones((n, d + 1))
    za[:, :d] = (z - mean) / scale
    z_norm_max = float(np.sqrt(np.max(np.sum(za[:, :d] ** 2, axis=1))))
    z_tr, y_tr = za[train_ix], y_idx[train_ix]
    z_val, y_val = za[val_ix], y_idx[val_ix]
    m = train_ix.size
    class_sums = np.stack([np.bincount(y_tr, weights=col, minlength=k)
                           for col in z_tr.T], axis=1)
    step = max(1, probes.BLOCK_ENTRIES // k)
    buf = np.empty((min(step, max(m, n_val)), k))
    Wb = np.zeros((k, d + 1))
    bound = 0.0
    best = (np.inf, Wb.copy())
    stale = 0
    for _ in range(epochs):
        grad = -class_sums
        for lo in range(0, m, step):
            zb = z_tr[lo:lo + step]
            e = buf[:zb.shape[0]]
            probes.matmul(zb, Wb.T, out=e)
            _, sums = probes.exp_rows(e, bound)
            grad += probes.matmul(e.T, zb / sums[:, None])
        grad /= m
        Wb -= lr * grad
        bound = probes._logit_bound(z_norm_max, Wb)
        loss = 0.0
        for lo in range(0, n_val, step):
            zb, yb = z_val[lo:lo + step], y_val[lo:lo + step]
            e = buf[:zb.shape[0]]
            probes.matmul(zb, Wb.T, out=e)
            target = e[np.arange(yb.size), yb]
            c, sums = probes.exp_rows(e, bound)
            loss += float(np.sum(c + np.log(sums) - target))
        val_loss = loss / n_val / LOG2
        if val_loss < best[0] - 1e-12:
            best = (val_loss, Wb.copy())
            stale = 0
        else:
            stale += 1
            if stale > patience:
                break
    return best[1][:, :d], best[1][:, d]


@pytest.mark.parametrize("n, d, k", [(700, 3, 350), (400, 2, 5), (120, 1, 2)])
def test_fit_linear_probe_on_distinct_rows_keeps_the_unweighted_bits(n, d, k):
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, d))
    y = rng.permutation(n) % k
    head = fit_linear_probe(z, y, Rng(8))
    W, b = _unweighted_fit(z, y, Rng(8))
    assert np.array_equal(head.W, W) and np.array_equal(head.b, b)


def test_fit_linear_probe_epochs_visit_only_distinct_rows(monkeypatch):
    # 10 000 two-bit codes hold 4 distinct (code, label) rows: no product
    # of an epoch may cost more than those rows do
    z, y = _bernoulli_codes(10000)
    distinct = np.unique(np.column_stack((z, y)), axis=0).shape[0]
    assert distinct == 4
    costs = []
    matmul = probes.matmul

    def spy(a, b, out=None):
        costs.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, out=out)

    monkeypatch.setattr(probes, "matmul", spy)
    fit_linear_probe(z, y, Rng(0))
    k, d = 2, z.shape[1]
    assert len(costs) > 100
    assert max(costs) <= distinct * k * (d + 1)


@pytest.fixture
def exp_log(monkeypatch):
    """Records each logit bound the probe loop computes and, for each block
    it exponentiates, whether the rows were shifted and the largest
    |logit| among them."""
    log = []
    logit_bound, exp_rows = probes._logit_bound, probes.exp_rows

    def bound_spy(*args):
        log.append(("bound", logit_bound(*args)))
        return log[-1][1]

    def exp_spy(logits, bound):
        log.append(("shift", 2.0 * bound > 700.0,
                    float(np.max(np.abs(logits)))))
        return exp_rows(logits, bound)

    monkeypatch.setattr(probes, "_logit_bound", bound_spy)
    monkeypatch.setattr(probes, "exp_rows", exp_spy)
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


@pytest.mark.parametrize("scale, shift", [(1e200, 0.0), (1e307, 10.0)])
def test_fit_linear_probe_rejects_codes_too_large_to_standardize(scale, shift):
    # every code is finite, but the variance (scale 1e200) or also the mean
    # (1e308 codes) of the training split overflows; the pytest config turns
    # an overflow warning into an error, so the check must also run silently
    rng = np.random.default_rng(0)
    z = scale * (rng.normal(size=(300, 2)) + shift)
    y = rng.integers(0, 2, size=300)
    assert np.all(np.isfinite(z))
    with pytest.raises(DegenerateError, match="mean or scale is not finite"):
        fit_linear_probe(z, y, Rng(1))


def _auc_oracle(proba, y_idx, k):
    """Macro one-vs-rest AUC by counting every (positive, negative) pair:
    1 for a higher positive score, 1/2 for a tie; NaN ranks above every
    number and ties with NaN."""
    def key(s):
        return (1, 0.0) if np.isnan(s) else (0, s)

    aucs = []
    for c in range(k):
        pos = [key(s) for s, t in zip(proba[:, c], y_idx) if t == c]
        neg = [key(s) for s, t in zip(proba[:, c], y_idx) if t != c]
        if pos and neg:
            u = sum(1.0 if p > q else 0.5 if p == q else 0.0
                    for p in pos for q in neg)
            aucs.append(u / (len(pos) * len(neg)))
    return float(np.mean(aucs))


@st.composite
def _scored_targets(draw):
    n = draw(st.integers(2, 30))
    k = draw(st.integers(2, 5))
    # evaluate_probe maps a test class above every trained one to k
    y_idx = np.array(draw(st.lists(st.integers(0, k), min_size=n,
                                   max_size=n)))
    if np.unique(y_idx[y_idx < k]).size < 2:
        y_idx[:2] = [0, 1]
    # few distinct scores, so ties are common
    proba = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, float("nan")]),
        min_size=n * k, max_size=n * k))).reshape(n, k)
    return proba, y_idx, k


@settings(max_examples=200, deadline=None)
@given(_scored_targets())
def test_macro_ovr_auc_equals_pairwise_mann_whitney(case):
    proba, y_idx, k = case
    assert macro_ovr_auc(proba, y_idx, k) == _auc_oracle(proba, y_idx, k)


def test_macro_ovr_auc_rejects_a_single_class():
    with pytest.raises(DegenerateError):
        macro_ovr_auc(np.full((5, 3), 0.2), np.full(5, 1), 3)


def _dense_evaluate(head, z, y):
    """evaluate_probe with every logit at once (two n x k arrays), kept as
    the oracle for the blocked evaluation: (accuracy, AUC)."""
    y = np.asarray(y)
    proba = head.predict_proba(z)
    pred = head.classes[np.argmax(proba, axis=1)]
    acc = float(np.mean(pred == y))
    y_idx = np.searchsorted(head.classes, y)
    return acc, macro_ovr_auc(proba, y_idx, head.classes.size)


def _head(k, d, rng, tied=False):
    """A head over the odd classes 1, 3, .., 2k - 1, so that an even test
    target is a class the training split never saw; ``tied`` gives every
    even-indexed class the weights of the class after it."""
    W = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    if tied:
        W[1::2], b[1::2] = W[:k - k % 2:2], b[:k - k % 2:2]
    return LinearHead(W=W, b=b, classes=2.0 * np.arange(k) + 1.0,
                      mean=rng.normal(size=d), scale=rng.uniform(0.5, 2.0, d))


@pytest.mark.parametrize("k, d, n, blocks", [(2, 3, 50, 1), (2, 64, 5000, 3),
                                             (1400, 4, 60, 2),
                                             (1400, 4, 600, 14)])
@pytest.mark.parametrize("case", ["above_every_class", "absent_classes",
                                  "tied_scores", "unseen_classes"])
def test_evaluate_probe_blocks_equal_the_dense_evaluation(k, d, n, blocks,
                                                          case):
    assert len(row_blocks(n, d, k)) == blocks
    rng = np.random.default_rng(k + d + n)
    head = _head(k, d, rng, tied=case == "tied_scores")
    z = rng.normal(size=(n, d))
    y = head.classes[rng.integers(0, k, n)]
    if case == "above_every_class":        # the index k
        y[::7] = 2.0 * k + 5.0
    elif case == "absent_classes":         # half of the classes never occur
        y = head.classes[rng.integers(0, max(2, k // 2), n)]
    elif case == "tied_scores":            # repeated codes tie every class
        z[1::3] = z[::3][:len(z[1::3])]
    else:                                  # mapped to a trained neighbour
        y[::5] -= 1.0
    if case == "tied_scores":
        proba = head.predict_proba(z)
        assert len(np.unique(proba[:, 0])) < n
    ev = evaluate_probe(head, z, y)
    assert (ev.accuracy, ev.auc) == _dense_evaluate(head, z, y)
    assert ev.error == 1.0 - ev.accuracy and ev.n == n


@pytest.mark.parametrize("k", [2, 1400])
@pytest.mark.parametrize("target", [1.0, "above"])
def test_evaluate_probe_rejects_a_single_class(k, target):
    rng = np.random.default_rng(k)
    head = _head(k, 4, rng)
    y = np.full(40, 2.0 * k + 5.0 if target == "above" else target)
    with pytest.raises(DegenerateError, match="single-class"):
        evaluate_probe(head, rng.normal(size=(40, 4)), y)


def test_evaluate_probe_peak_memory_is_blocked():
    # the rotation certify fixture's leakage probe: 600 held-out rows and
    # k = 1 400 classes; the dense logits and their biased copy took
    # 13.5 MB, and the blocked evaluation keeps a block of logits, the
    # present classes' columns and the AUC's rank blocks
    rng = np.random.default_rng(11)
    head = _head(1400, 4, rng)
    z = rng.normal(size=(600, 4))
    y = head.classes[rng.integers(0, 1400, 600)]
    evaluate_probe(head, z, y)
    tracemalloc.start()
    try:
        evaluate_probe(head, z, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
