"""Plug-in information estimators over discretized variables.

All quantities are in bits.  Continuous code dimensions are discretized by
quantile binning, which is invariant under strictly monotone per-dimension
reparameterizations (bin membership depends only on sample ranks).  Every
cell numbering of several columns -- joint integer codes and rows grouped to
a tolerance -- comes from one row coder, ``_row_codes``, so cells are always
numbered in lexicographic row order.  One quantile-coded column is numbered
by its bins, in value order, and may skip the numbers of empty bins: the
cell sums, the entropies and ``joint_codes`` read only which rows share a
cell and in what order.

The cell kernel sorts each column once.  ``quantile_codes`` takes its edges
and its codes from one ``argsort``, reading the edges off the sorted column
by numpy's quantile rule at positions cached per (rows, bins);
``_row_codes`` renumbers integer keys of a narrow range by a counting pass
and sorts only wide-range or float keys; cell sums are ``np.bincount``
weighted sums, added in row order.
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
        lo = keys.min(axis=0)
        spans = [int(hi) - int(low) + 1 for hi, low in zip(keys.max(axis=0), lo)]
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


def _distribution(codes, weights=None) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    if weights is None:
        counts = np.bincount(codes)
        return counts / codes.size
    dist = np.bincount(codes, weights=np.asarray(weights, dtype=np.float64))
    return dist / dist.sum()


def entropy_bits(codes, weights=None) -> float:
    p = _distribution(codes, weights)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def mutual_information_bits(a, b, weights=None) -> float:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ContractViolation("mutual information needs aligned code arrays")
    return entropy_bits(a, weights) + entropy_bits(b, weights) \
        - entropy_bits(joint_codes(a, b), weights)


def conditional_mi_bits(a, b, cond, weights=None) -> float:
    """I(A; B | C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), plug-in."""
    return (entropy_bits(joint_codes(a, cond), weights)
            + entropy_bits(joint_codes(b, cond), weights)
            - entropy_bits(joint_codes(a, b, cond), weights)
            - entropy_bits(cond, weights))


def rows_as_codes(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Integer codes for matrix rows, numbered in lexicographic row order.

    Rows share a code when each of their entries rounds to the same multiple
    of ``tol``.  From ``|x| >= 2**53 * tol`` on, float64 spacing is at least
    ``2 * tol`` and ``x / tol`` may overflow, so such an entry keys as itself
    behind a -1/+1 side flag that sorts it beyond every grid key.
    """
    x = as_samples(x)
    on_grid = np.abs(x) < 2.0 ** 53 * tol
    keys = np.empty(x.shape + (2,))
    keys[..., 0] = np.sign(x) * ~on_grid
    keys[..., 1] = x
    keys[..., 1][on_grid] = np.round(x[on_grid] / tol)
    # side_0, key_0, side_1, key_1, ...
    return _row_codes(keys.reshape(x.shape[0], -1))
