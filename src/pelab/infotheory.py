"""Cells and the one plug-in estimator over them, in bits.

Continuous code dimensions are cut into quantile bins, which no strictly
monotone reparameterization of a dimension changes.  One row coder,
``_row_codes``, numbers every cell of several columns (joint codes, rows
grouped to a tolerance) in lexicographic row order; one binned column is
numbered by its bins and may skip the numbers of empty bins.
``quantile_codes`` takes edges and codes from one ``argsort``, with the
edges read off the sorted column by numpy's quantile rule.

``risk_of_cells`` is the estimator: the Bayes risk of deciding a label from
the cell id, from a law's posterior rows or a sample's labels.  Every value
is one of its log-loss risks: H(V) is the one-cell case (``entropy_bits``),
I(Z; V) = H(V) - H(V | Z), and I(X; Z | T) = H(X | T) - H(X | Z, T)
(``conditional_entropy_bits``).  Its sums are ``np.bincount`` sums in row
order, over the (cell, label) pairs present only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractViolation, DegenerateError
from .numerics import as_samples, matmul


def codes_of(values) -> np.ndarray:
    """Integer codes for an arbitrary discrete 1-d array."""
    _, inv = np.unique(np.asarray(values), return_inverse=True)
    return inv


# integer keys spanning at most this many values per row are counted, not sorted
_COUNTING_SPAN = 4


def _row_codes(keys: np.ndarray) -> np.ndarray:
    """Codes 0..k-1 for the rows of a 2-d key array: equal rows share a
    code, and codes follow the lexicographic order of the rows."""
    n = keys.shape[0]
    if keys.dtype.kind == "i" and n:
        # per column: an axis-0 reduction of a narrow array is 15x slower
        lo = [int(col.min()) for col in keys.T]
        spans = [int(col.max()) - low + 1 for col, low in zip(keys.T, lo)]
        if math.prod(spans) <= _COUNTING_SPAN * n:
            # mixed-radix key, first column most significant: its order is
            # the lexicographic row order
            flat = np.zeros(n, dtype=np.int64)
            for j, span in enumerate(spans):
                flat = flat * span + (keys[:, j] - lo[j])
            present = np.bincount(flat) > 0
            return (np.cumsum(present) - 1)[flat]
    order = np.lexsort(keys.T[::-1])      # lexsort's last key is primary
    ranked = keys[order]
    starts = np.concatenate(([False], np.any(ranked[1:] != ranked[:-1], axis=1)))
    codes = np.empty(keys.shape[0], dtype=np.int64)
    codes[order] = np.cumsum(starts)
    return codes


def joint_codes(*code_arrays) -> np.ndarray:
    """Collapse several aligned integer code arrays into one."""
    return _row_codes(np.column_stack(
        [np.asarray(c, dtype=np.int64) for c in code_arrays]))


@functools.lru_cache
def _quantile_positions(n: int, n_bins: int):
    """Read-only positions of the inner ``n_bins``-quantiles in a sorted
    column of ``n`` values, by numpy's linear rule: p = q (n - 1), the
    index ``lo`` = floor p, the next index ``hi`` (clipped to the column) and
    the fraction t = p - floor p."""
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    pos = (n - 1) * qs
    lo = np.floor(pos)
    t = pos - lo
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    for a in (lo, hi, t):
        a.flags.writeable = False
    return lo, hi, t


def _sorted_quantiles(ranked: np.ndarray, n_bins: int) -> np.ndarray:
    """The inner ``n_bins``-quantiles of a sorted float64 column, equal to
    ``np.quantile(ranked, np.linspace(0, 1, n_bins + 1)[1:-1])``, read off
    it by numpy's linear rule without a partition: with a = ranked[lo] and
    b = ranked[hi] at cached positions, a + (b - a) t for t < 1/2 and
    b - (b - a)(1 - t) from 1/2 on.  A NaN sorts last and makes every
    quantile NaN, as in numpy."""
    lo, hi, t = _quantile_positions(ranked.size, n_bins)
    a = ranked[lo]
    b = ranked[hi]
    d = b - a
    edges = np.where(t < 0.5, a + d * t, b - d * (1 - t))
    if np.isnan(ranked[-1]):
        edges[...] = ranked[-1]
    return edges


def quantile_codes(values, n_bins: int = 8) -> np.ndarray:
    """Quantile-bin a 1-d array into at most n_bins integer codes: a value's
    code is the number of distinct quantile edges at or below it.

    One sort serves both steps.  The edges are read off the sorted column
    by numpy's interpolation rule (the same order statistics, hence the
    same edges), and the codes are assigned in rank space, then scattered
    back to the input order."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values)
    ranked = values[order]
    edges = np.unique(_sorted_quantiles(ranked, n_bins))
    # edge j lies at or below every rank from first[j] on; a rank's code
    # is the number of edges that have started by it
    first = np.searchsorted(ranked, edges, side="left")
    codes = np.empty(values.size, dtype=np.int64)
    codes[order] = np.cumsum(np.bincount(first, minlength=values.size + 1))[:-1]
    return codes


def pca_directions(z: np.ndarray, k: int) -> np.ndarray:
    """Top-k principal directions (columns), sign-fixed for determinism.
    Codes whose covariance overflows float64 raise DegenerateError."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.atleast_2d(np.cov(z, rowvar=False))
    if not np.isfinite(cov).all():
        raise DegenerateError("the codes' covariance is not finite in float64")
    w, vec = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    dirs = vec[:, order]
    for j in range(dirs.shape[1]):
        pivot = np.argmax(np.abs(dirs[:, j]))
        if dirs[pivot, j] < 0:
            dirs[:, j] = -dirs[:, j]
    return dirs


def discretize_codes(z: np.ndarray, n_bins: int = 8, max_dims: int = 2) -> np.ndarray:
    """Integer cell ids for a code batch: quantile bins per dimension, taken
    on at most ``max_dims`` leading principal directions to keep the plug-in
    bias controlled.  The ids of one dimension are its quantile codes."""
    z = as_samples(z)
    if z.shape[1] > max_dims:
        z = matmul(z, pca_directions(z, max_dims))
    per_dim = [quantile_codes(z[:, j], n_bins) for j in range(z.shape[1])]
    if len(per_dim) == 1:
        # one column's codes already follow its value order; the row coder
        # would only close the gaps of empty bins
        return per_dim[0]
    return joint_codes(*per_dim)


LOSS_ZERO_ONE = "zero_one"
LOSS_LOG = "log"


def risk_of_cells(cells, weights, posteriors, loss: str) -> float:
    """Bayes risk sum_c w_c loss_c of deciding from the cell id only, with
    loss_c the zero-one error of the cell's argmax or its entropy in bits.

    ``posteriors`` is a law's posterior rows, shape (n, k), or a sample's
    integer labels, shape (n,).  Each form gives the mass of every (cell,
    label) pair present, summed in row order, and the cell posteriors are
    priced by one rule.  Labels pair with cells through ``joint_codes``, in
    O(n) memory, so the labels' numbering changes no bit."""
    cells = np.asarray(cells, dtype=np.int64)
    w_cell = np.bincount(cells, weights)
    if posteriors.ndim == 1:
        pairs = joint_codes(cells, posteriors)
        mass = np.bincount(pairs, weights)
        cell = np.empty(mass.size, dtype=np.int64)
        cell[pairs] = cells
    else:
        mass = np.column_stack([np.bincount(cells, weights * col, w_cell.size)
                                for col in posteriors.T]).reshape(-1)
        cell = np.repeat(np.arange(w_cell.size), posteriors.shape[1])
    present = mass > 0
    cell = cell[present]
    post = mass[present] / w_cell[cell]
    if loss == LOSS_ZERO_ONE:
        losses = np.zeros(w_cell.size)
        np.maximum.at(losses, cell, post)
        losses = 1.0 - losses
    elif loss == LOSS_LOG:
        # subtracting from +0.0, not negating, keeps a one-label cell at +0.0
        losses = 0.0 - np.bincount(cell, post * np.log2(post), w_cell.size)
    else:
        raise ContractViolation(f"unknown loss {loss!r}")
    nonzero = w_cell > 0
    return float(np.sum(w_cell[nonzero] * losses[nonzero]))


def conditional_entropy_bits(codes, cells) -> float:
    """Plug-in H(codes | cells) in bits of a sample: its log-loss risk per
    row, from unit row weights, so that every mass is an exact count."""
    codes = np.asarray(codes, dtype=np.int64)
    return risk_of_cells(cells, np.ones(codes.size), codes,
                         LOSS_LOG) / codes.size


def entropy_bits(codes) -> float:
    """Plug-in H(codes) in bits of a sample: the one-cell case."""
    return conditional_entropy_bits(codes, np.zeros(len(codes), np.int64))


_ROW_TOL = 1e-9


def rows_as_codes(x: np.ndarray) -> np.ndarray:
    """Integer codes for matrix rows, numbered in lexicographic row order.

    Rows share a code when each of their entries rounds to the same multiple
    of tol = 1e-9.  From ``|x| >= 2**53 * tol`` on, float64 spacing is at
    least ``2 * tol`` and ``x / tol`` may overflow, so such an entry keys as
    itself behind a -1/+1 side flag that sorts it beyond every grid key.
    """
    x = as_samples(x)
    on_grid = np.abs(x) < 2.0 ** 53 * _ROW_TOL
    keys = np.empty(x.shape + (2,))
    keys[..., 0] = np.sign(x) * ~on_grid
    keys[..., 1] = x
    keys[..., 1][on_grid] = np.round(x[on_grid] / _ROW_TOL)
    # side_0, key_0, side_1, key_1, ...
    return _row_codes(keys.reshape(x.shape[0], -1))
