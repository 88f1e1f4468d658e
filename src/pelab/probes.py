"""Fixed-capacity linear probes.

A probe is a linear-softmax classifier trained by full-batch gradient descent
for a fixed number of epochs with early stopping on a validation split.  The
same machinery backs decision heads, leakage probes, and the data-efficiency
metric, so train-time and eval-time behavior agree everywhere.

The training loop never builds an n x k probability matrix.  The weights
carry the bias as a last column against a constant feature, and the
per-class sums S of the training rows (that column holds the class counts)
are taken once, so each epoch's gradient is (P' Z - S) / m.  The logits are
exponentiated without a shift while the O((m + k) d) bound
max|z_i| max|W_c| + max|b_c| on |logit| keeps 2 bound within
``UNSHIFTED_EXP_MAX_SPREAD``; wider logits are shifted by their row max.
Rows pass through one reused buffer in blocks of about ``BLOCK_ENTRIES``
entries, so a probe with thousands of classes holds only a block of logits,
and the validation loss is read as log-sum-exp minus the target logit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DegenerateError
from .numerics import UNSHIFTED_EXP_MAX_SPREAD, Rng, as_samples

LOG2 = np.log(2.0)

# Logit entries per row block of the probe loop: a block of
# max(1, BLOCK_ENTRIES // k) rows (512 KiB of float64) stays in cache, and a
# probe with few classes still takes all its rows in one block.  Of 2**14 to
# 2**18, 2**16 fitted the rotation certify leakage probe (k = 1 400) fastest.
BLOCK_ENTRIES = 1 << 16


def _exp_rows(logits: np.ndarray, shift: bool):
    """Overwrite ``logits`` with exp(logits - c) and return (c, row sums):
    c is each row's maximum when ``shift``, else 0."""
    c = 0.0
    if shift:
        c = logits.max(axis=1)
        logits -= c[:, None]
    np.exp(logits, out=logits)
    return c, logits.sum(axis=1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax computed in place: ``logits`` (float64) is
    overwritten with the probabilities and returned."""
    _, sums = _exp_rows(logits, shift=True)
    logits /= sums[:, None]
    return logits


@dataclass
class LinearHead:
    """Linear-softmax map from codes to class probabilities.

    Feature standardization (fit on the training split) is folded into the
    head so that predictions are self-contained.
    """
    W: np.ndarray                 # (n_classes, d_z)
    b: np.ndarray                 # (n_classes,)
    classes: np.ndarray           # original label values, sorted
    mean: np.ndarray
    scale: np.ndarray

    def logits(self, z: np.ndarray) -> np.ndarray:
        zs = (np.asarray(z, dtype=np.float64) - self.mean) / self.scale
        return zs @ self.W.T + self.b

    def predict_proba(self, z: np.ndarray) -> np.ndarray:
        return softmax(self.logits(z))

    def predict(self, z: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.logits(z), axis=1)]


def _logit_bound(z_norm_max: float, Wb: np.ndarray) -> float:
    """Bound on |z . W_c + b_c| over rows z and classes c (Cauchy-Schwarz)."""
    W, b = Wb[:, :-1], Wb[:, -1]
    return (z_norm_max * float(np.sqrt(np.max(np.sum(W * W, axis=1))))
            + float(np.max(np.abs(b))))


def fit_linear_probe(z: np.ndarray, y: np.ndarray, rng: Rng,
                     epochs: int = 200, lr: float = 1.0,
                     val_frac: float = 0.2, patience: int = 25) -> LinearHead:
    """Train a linear-softmax probe by full-batch GD with early stopping."""
    z = as_samples(z)
    y = np.asarray(y)
    classes, y_idx = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DegenerateError("probe targets must have at least two classes")
    n, d = z.shape
    k = classes.size

    perm = rng.permutation(n)
    n_val = max(1, int(round(val_frac * n)))
    val_ix, train_ix = perm[:n_val], perm[n_val:]
    if train_ix.size == 0:
        raise ContractViolation("probe training split is empty")

    mean = z[train_ix].mean(axis=0)
    scale = z[train_ix].std(axis=0)
    scale[scale < 1e-12] = 1.0
    # standardized codes with a constant last column that carries the bias
    za = np.ones((n, d + 1))
    za[:, :d] = (z - mean) / scale
    z_norm_max = float(np.sqrt(np.max(np.sum(za[:, :d] ** 2, axis=1))))
    z_tr, y_tr = za[train_ix], y_idx[train_ix]
    z_val, y_val = za[val_ix], y_idx[val_ix]
    m = train_ix.size
    class_sums = np.stack([np.bincount(y_tr, weights=col, minlength=k)
                           for col in z_tr.T], axis=1)

    step = max(1, BLOCK_ENTRIES // k)
    buf = np.empty((min(step, max(m, n_val)), k))
    Wb = np.zeros((k, d + 1))
    shift = False                 # every logit is 0 while Wb = 0
    best = (np.inf, Wb.copy())
    stale = 0
    for _ in range(epochs):
        grad = -class_sums
        for lo in range(0, m, step):
            zb = z_tr[lo:lo + step]
            e = buf[:zb.shape[0]]
            np.matmul(zb, Wb.T, out=e)
            _, sums = _exp_rows(e, shift)
            grad += e.T @ (zb / sums[:, None])
        grad /= m
        Wb -= lr * grad
        shift = 2.0 * _logit_bound(z_norm_max, Wb) > UNSHIFTED_EXP_MAX_SPREAD
        loss = 0.0
        for lo in range(0, n_val, step):
            zb, yb = z_val[lo:lo + step], y_val[lo:lo + step]
            e = buf[:zb.shape[0]]
            np.matmul(zb, Wb.T, out=e)
            target = e[np.arange(yb.size), yb]
            c, sums = _exp_rows(e, shift)
            loss += float(np.sum(c + np.log(sums) - target))
        val_loss = loss / n_val / LOG2
        if val_loss < best[0] - 1e-12:
            best = (val_loss, Wb.copy())
            stale = 0
        else:
            stale += 1
            if stale > patience:
                break
    Wb = best[1]
    return LinearHead(W=Wb[:, :d].copy(), b=Wb[:, d].copy(),
                      classes=classes, mean=mean, scale=scale)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _average_ranks(x: np.ndarray) -> np.ndarray:
    vals, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    group_rank = (starts + ends + 1) / 2.0  # average rank of each tie group
    return group_rank[inv]


def roc_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Rank-based AUC (Mann-Whitney with tie correction)."""
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateError("AUC is undefined for a single-class target")
    ranks = _average_ranks(np.asarray(scores, dtype=np.float64))
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def macro_ovr_auc(proba: np.ndarray, y_idx: np.ndarray, k: int) -> float:
    """One-vs-rest AUC averaged over classes present in the targets."""
    counts = np.bincount(y_idx, minlength=k)
    aucs = [roc_auc(proba[:, c], y_idx == c)
            for c in range(k) if 0 < counts[c] < y_idx.size]
    if not aucs:
        raise DegenerateError("AUC is undefined for a single-class target")
    return float(np.mean(aucs))


@dataclass
class ProbeEvaluation:
    accuracy: float
    error: float
    auc: float
    n: int
    detail: dict = field(default_factory=dict)


def evaluate_probe(head: LinearHead, z: np.ndarray, y: np.ndarray) -> ProbeEvaluation:
    y = np.asarray(y)
    proba = head.predict_proba(z)
    pred = head.classes[np.argmax(proba, axis=1)]
    acc = float(np.mean(pred == y))
    y_idx = np.searchsorted(head.classes, y)
    auc = macro_ovr_auc(proba, y_idx, head.classes.size)
    return ProbeEvaluation(accuracy=acc, error=1.0 - acc, auc=auc, n=y.size)


def probe_split_evaluate(z, y, rng: Rng, test_frac: float = 0.3, **fit_kw):
    """Convenience: split, fit on the training part, evaluate held out."""
    z = as_samples(z)
    y = np.asarray(y)
    n = z.shape[0]
    perm = rng.permutation(n)
    n_test = max(1, int(round(test_frac * n)))
    test_ix, train_ix = perm[:n_test], perm[n_test:]
    head = fit_linear_probe(z[train_ix], y[train_ix], rng, **fit_kw)
    return head, evaluate_probe(head, z[test_ix], y[test_ix])
