"""Fixed-capacity linear probes.

A probe is a linear-softmax classifier trained by full-batch gradient descent
for a fixed number of epochs with early stopping on a validation split.  The
same machinery backs decision heads, leakage probes, and the data-efficiency
metric, so train-time and eval-time behavior agree everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DegenerateError
from .numerics import Rng, as_samples

LOG2 = np.log(2.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax computed in place: ``logits`` (float64) is
    overwritten with the probabilities and returned."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
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


def log_loss_bits(proba: np.ndarray, class_idx: np.ndarray) -> float:
    p = np.clip(proba[np.arange(class_idx.size), class_idx], 1e-300, None)
    return float(-np.mean(np.log(p)) / LOG2)


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
    zs = (z - mean) / scale
    z_tr, y_tr = zs[train_ix], y_idx[train_ix]
    z_val, y_val = zs[val_ix], y_idx[val_ix]
    rows = np.arange(train_ix.size)

    W = np.zeros((k, d))
    b = np.zeros(k)
    # every epoch reuses these two buffers for its logits, probabilities
    # and gradient: with one class per distinct target value, k reaches
    # the thousands
    g = np.empty((train_ix.size, k))
    val_p = np.empty((val_ix.size, k))
    best = (np.inf, W.copy(), b.copy())
    stale = 0
    for _ in range(epochs):
        np.matmul(z_tr, W.T, out=g)
        g += b
        softmax(g)
        g[rows, y_tr] -= 1.0
        g /= train_ix.size
        W -= lr * (g.T @ z_tr)
        b -= lr * g.sum(axis=0)
        np.matmul(z_val, W.T, out=val_p)
        val_p += b
        val_loss = log_loss_bits(softmax(val_p), y_val)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, W.copy(), b.copy())
            stale = 0
        else:
            stale += 1
            if stale > patience:
                break
    _, W, b = best
    return LinearHead(W=W, b=b, classes=classes, mean=mean, scale=scale)


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
    aucs = [roc_auc(proba[:, c], y_idx == c)
            for c in range(k) if 0 < np.sum(y_idx == c) < y_idx.size]
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
