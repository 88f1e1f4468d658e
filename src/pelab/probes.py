"""Fixed-capacity linear probes.

A probe is a linear-softmax classifier trained by full-batch gradient descent
for a fixed number of epochs with early stopping on a validation split.  The
same machinery backs decision heads, leakage probes, and the data-efficiency
metric, so train-time and eval-time behavior agree everywhere.

The training loop never builds an n x k probability matrix.  The weights
carry the bias as a last column against a constant feature, and the
per-class sums S of the training rows (that column holds the class counts)
are taken once, so each epoch's gradient is (P' Z - S) / m.  The logits are
exponentiated by ``numerics.exp_rows`` against the O((m + k) d) bound
max|z_i| max|W_c| + max|b_c| on |logit|: unshifted while the bound allows,
shifted by their row max beyond; ``softmax`` always shifts.
Rows pass through one reused buffer in ``numerics.row_blocks`` blocks, so a
probe with thousands of classes holds only a block of logits, and the
validation loss is read as log-sum-exp minus the target logit.

An epoch visits each distinct training code u once, weighted by its count
w_u (``numerics.distinct_rows``): P'Z is sum_u w_u p_u z_u', taken as
e' (z / (rowsum / w)), and the validation loss sums w_u times log-sum-exp
minus the target logit over the distinct (code, target) rows.  Codes of a
finite world (the two-bit world's 10 000 codes hold 4 distinct rows) cost
their distinct rows; when every count is 1, the weights change no bit.

Held-out evaluation takes the logits in the row blocks of
``numerics.row_blocks`` (the BLAS calls of ``numerics.matmul``), adds the
bias and the softmax to each block in place, and keeps only each row's
argmax and the columns of the classes present in the test targets: at
n = 600 and k = 1 400 it peaks at about 3.4 MB, where the n x k logits and
their biased copy took 13.5 MB.  The macro one-vs-rest AUC ranks the scores
of every present class, ties at their average rank, in class blocks whose
arrays hold about ``numerics.BLOCK_ENTRIES`` entries in all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateError
from .numerics import (BLOCK_ENTRIES, Rng, as_samples, distinct_rows,
                       exp_rows, matmul, row_blocks)

LOG2 = np.log(2.0)

_EPOCHS = 200
_LR = 1.0
_VAL_FRAC = 0.2
_PATIENCE = 25
_TEST_FRAC = 0.3


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax computed in place: ``logits`` (float64) is
    overwritten with the probabilities and returned."""
    _, sums = exp_rows(logits, np.inf)
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

    def standardize(self, z: np.ndarray) -> np.ndarray:
        return (np.asarray(z, dtype=np.float64) - self.mean) / self.scale

    def logits(self, z: np.ndarray) -> np.ndarray:
        return matmul(self.standardize(z), self.W.T) + self.b

    def predict_proba(self, z: np.ndarray) -> np.ndarray:
        return softmax(self.logits(z))

    def predict(self, z: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.logits(z), axis=1)]


def _logit_bound(z_norm_max: float, Wb: np.ndarray) -> float:
    """Bound on |z . W_c + b_c| over rows z and classes c (Cauchy-Schwarz)."""
    W, b = Wb[:, :-1], Wb[:, -1]
    return (z_norm_max * float(np.sqrt(np.max(np.sum(W * W, axis=1))))
            + float(np.max(np.abs(b))))


def fit_linear_probe(z: np.ndarray, y: np.ndarray, rng: Rng) -> LinearHead:
    """Train a linear-softmax probe by full-batch GD with early stopping."""
    z = as_samples(z)
    y = np.asarray(y)
    classes, y_idx = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DegenerateError("probe targets must have at least two classes")
    n, d = z.shape
    k = classes.size

    perm = rng.permutation(n)
    n_val = max(1, int(round(_VAL_FRAC * n)))
    val_ix, train_ix = perm[:n_val], perm[n_val:]
    if train_ix.size == 0:
        raise ContractViolation("probe training split is empty")

    # finite codes near the float64 limit overflow the mean or the variance
    with np.errstate(over="ignore", invalid="ignore"):
        mean = z[train_ix].mean(axis=0)
        scale = z[train_ix].std(axis=0)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale))):
        raise DegenerateError("the training split's code mean or scale is "
                              "not finite: codes too large to standardize")
    scale[scale < 1e-12] = 1.0
    # standardized codes with a constant last column that carries the bias
    za = np.ones((n, d + 1))
    za[:, :d] = (z - mean) / scale
    z_norm_max = float(np.sqrt(np.max(np.sum(za[:, :d] ** 2, axis=1))))
    z_tr, y_tr = za[train_ix], y_idx[train_ix]
    m = train_ix.size
    class_sums = np.stack([np.bincount(y_tr, weights=col, minlength=k)
                           for col in z_tr.T], axis=1)
    # each epoch visits the distinct training codes and the distinct
    # validation (code, target) rows once, weighted by their counts
    first, w_tr = distinct_rows(z_tr)
    z_tr = z_tr[first]
    z_val, y_val = za[val_ix], y_idx[val_ix]
    first, w_val = distinct_rows(np.column_stack((z_val, y_val)))
    z_val, y_val = z_val[first], y_val[first]

    train_blocks = row_blocks(len(z_tr), d + 1, k)
    val_blocks = row_blocks(len(z_val), d + 1, k)
    buf = np.empty((max(hi - lo for lo, hi in train_blocks + val_blocks), k))
    Wb = np.zeros((k, d + 1))
    bound = 0.0                   # every logit is 0 while Wb = 0
    best = (np.inf, Wb.copy())
    stale = 0
    for _ in range(_EPOCHS):
        grad = -class_sums
        for lo, hi in train_blocks:
            zb = z_tr[lo:hi]
            e = buf[:hi - lo]
            matmul(zb, Wb.T, out=e)
            _, sums = exp_rows(e, bound)
            sums /= w_tr[lo:hi]
            grad += matmul(e.T, zb / sums[:, None])
        grad /= m
        Wb -= _LR * grad
        bound = _logit_bound(z_norm_max, Wb)
        loss = 0.0
        for lo, hi in val_blocks:
            zb, yb = z_val[lo:hi], y_val[lo:hi]
            e = buf[:hi - lo]
            matmul(zb, Wb.T, out=e)
            target = e[np.arange(yb.size), yb]
            c, sums = exp_rows(e, bound)
            loss += float(np.sum(w_val[lo:hi] * (c + np.log(sums) - target)))
        val_loss = loss / n_val / LOG2
        if val_loss < best[0] - 1e-12:
            best = (val_loss, Wb.copy())
            stale = 0
        else:
            stale += 1
            if stale > _PATIENCE:
                break
    Wb = best[1]
    return LinearHead(W=Wb[:, :d].copy(), b=Wb[:, d].copy(),
                      classes=classes, mean=mean, scale=scale)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def macro_ovr_auc(proba: np.ndarray, y_idx: np.ndarray, k: int) -> float:
    """One-vs-rest rank AUC (Mann-Whitney, ties at their average rank)
    averaged over the classes present in the targets, from one sort of
    each present class's scores, a block of classes at a time.  Each row is
    a positive of at most one class, so a class's rank sum adds
    half-integers and is exact."""
    n = y_idx.size
    # a target k (a test class above every trained one) is only a negative
    counts = np.bincount(y_idx, minlength=k)[:k]
    present = np.flatnonzero((counts > 0) & (counts < n))
    if present.size == 0:
        raise DegenerateError("AUC is undefined for a single-class target")
    u = np.empty(present.size)
    step = max(1, BLOCK_ENTRIES // (7 * n))
    for lo in range(0, present.size, step):
        cls = present[lo:lo + step]
        scores = proba.T[cls]
        order = np.argsort(scores, axis=1)
        ranked = np.take_along_axis(scores, order, axis=1)
        # tie groups of the flattened sorted rows: each row starts a group,
        # and NaNs sort last and tie with each other, as in np.unique
        new = np.ones(ranked.shape, dtype=bool)
        new[:, 1:] = ((ranked[:, 1:] != ranked[:, :-1])
                      & ~np.isnan(ranked[:, :-1]))
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], new.size)
        # the flat sorted position of each positive and its group's
        # average 1-based rank within its row
        pos = np.flatnonzero(y_idx[order] == cls[:, None])
        g = np.searchsorted(starts, pos, side="right") - 1
        ranks = (starts[g] + ends[g] + 1) / 2.0 - (pos - pos % n)
        u[lo:lo + step] = np.bincount(pos // n, weights=ranks,
                                      minlength=cls.size)
    n_pos = counts[present]
    u -= n_pos * (n_pos + 1) / 2.0
    return float(np.mean(u / (n_pos * (n - n_pos))))


@dataclass
class ProbeEvaluation:
    accuracy: float
    error: float
    auc: float
    n: int


def evaluate_probe(head: LinearHead, z: np.ndarray, y: np.ndarray) -> ProbeEvaluation:
    """Accuracy and macro one-vs-rest AUC of ``head`` on held-out (z, y).

    The class probabilities are taken in the row blocks of
    ``numerics.row_blocks``, so the logits come from the BLAS calls of
    ``head.logits``; each block gets its bias and softmax in place, and
    only each row's argmax and the columns of the classes present in the
    test targets are kept, which is all the AUC reads.  A test class that
    the training split never saw maps through ``searchsorted`` to a trained
    neighbour, or, above every trained class, to the index k (a negative of
    every class)."""
    y = np.asarray(y)
    zs = head.standardize(z)
    (n, d), k = zs.shape, head.classes.size
    y_idx = np.searchsorted(head.classes, y)
    # the present classes, renumbered in order; the index k becomes
    # kept.size, still a negative of every class
    kept = np.unique(y_idx[y_idx < k])
    y_kept = np.searchsorted(kept, y_idx)
    blocks = row_blocks(n, d, k)
    buf = np.empty((max((hi - lo for lo, hi in blocks), default=0), k))
    argmax = np.empty(n, dtype=np.intp)
    proba = np.empty((n, kept.size))
    for lo, hi in blocks:
        e = np.matmul(zs[lo:hi], head.W.T, out=buf[:hi - lo])
        e += head.b
        softmax(e)
        argmax[lo:hi] = np.argmax(e, axis=1)
        proba[lo:hi] = e[:, kept]
    acc = float(np.mean(head.classes[argmax] == y))
    auc = macro_ovr_auc(proba, y_kept, kept.size)
    return ProbeEvaluation(accuracy=acc, error=1.0 - acc, auc=auc, n=y.size)


def probe_split_evaluate(z, y, rng: Rng):
    """Convenience: split, fit on the training part, evaluate held out."""
    z = as_samples(z)
    y = np.asarray(y)
    n = z.shape[0]
    perm = rng.permutation(n)
    n_test = max(1, int(round(_TEST_FRAC * n)))
    test_ix, train_ix = perm[:n_test], perm[n_test:]
    head = fit_linear_probe(z[train_ix], y[train_ix], rng)
    return head, evaluate_probe(head, z[test_ix], y[test_ix])
