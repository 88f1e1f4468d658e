"""Plug-in information estimators over discretized variables.

All quantities are in bits.  Continuous code dimensions are discretized by
quantile binning, which is invariant under strictly monotone per-dimension
reparameterizations (bin membership depends only on sample ranks).  Every
cell numbering -- joint integer codes and rows grouped to a tolerance --
comes from one row coder, ``_row_codes``, so cells are always numbered in
lexicographic row order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .numerics import as_samples


def codes_of(values) -> np.ndarray:
    """Integer codes for an arbitrary discrete 1-d array."""
    _, inv = np.unique(np.asarray(values), return_inverse=True)
    return inv


def _row_codes(keys: np.ndarray) -> np.ndarray:
    """Codes 0..k-1 for the rows of a 2-d key array: equal rows share a
    code, and codes follow the lexicographic order of the rows."""
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


def quantile_codes(values, n_bins: int = 8) -> np.ndarray:
    """Quantile-bin a 1-d array into at most n_bins integer codes."""
    values = np.asarray(values, dtype=np.float64)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.unique(np.quantile(values, qs))
    return np.searchsorted(edges, values, side="right")


def pca_directions(z: np.ndarray, k: int) -> np.ndarray:
    """Top-k principal directions (columns), sign-fixed for determinism."""
    z = np.asarray(z, dtype=np.float64)
    w, vec = np.linalg.eigh(np.atleast_2d(np.cov(z, rowvar=False)))
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
    bias controlled."""
    z = as_samples(z)
    if z.shape[1] > max_dims:
        z = z @ pca_directions(z, max_dims)
    per_dim = [quantile_codes(z[:, j], n_bins) for j in range(z.shape[1])]
    return joint_codes(*per_dim)


def _distribution(codes, weights=None) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    if weights is None:
        counts = np.bincount(codes)
        return counts / codes.size
    weights = np.asarray(weights, dtype=np.float64)
    dist = np.zeros(int(codes.max()) + 1)
    np.add.at(dist, codes, weights)
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
