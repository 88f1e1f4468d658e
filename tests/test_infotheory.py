import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelab.infotheory import (_quantile_positions, _sorted_quantiles,
                              discretize_codes, entropy_bits, joint_codes,
                              quantile_codes, rows_as_codes)
from pelab.metrics import sufficiency_surrogate
from pelab.theory import risk_of_cells


def _grid_codes(x, tol=1e-9):
    """Integer-grid grouping, exact while |x| / tol stays below 2**63."""
    keys = np.round(x / tol).astype(np.int64)
    return np.unique(keys, axis=0, return_inverse=True)[1]


def test_rows_as_codes_distinguishes_large_codes():
    x = np.array([[1e10], [2e10], [3e10]])
    assert rows_as_codes(x).tolist() == [0, 1, 2]


def test_rows_as_codes_near_float_max_stays_distinct_and_ordered():
    col = np.array([1e300, np.nextafter(1e300, np.inf), -1e300, 1.7e308,
                    -1.7e308, 0.5, 1e7, 1e7 + 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = rows_as_codes(col)
    assert codes.tolist() == np.argsort(np.argsort(col)).tolist()


def test_rows_as_codes_matches_integer_grid_in_range():
    rng = np.random.default_rng(0)
    # multiples of 1.4 tol land next to cell edges; the rest are codes at
    # the scales the bundled configs produce
    near_edges = rng.integers(-3, 4, (200, 3)) * rng.choice([1e-9, 1.4e-9],
                                                            (200, 3))
    x = np.vstack([near_edges, np.round(rng.normal(size=(200, 3)), 2),
                   rng.integers(0, 2, (50, 3)) * 1e6])
    assert np.array_equal(rows_as_codes(x), _grid_codes(x))
    assert np.array_equal(rows_as_codes(x[:, 0]), _grid_codes(x[:, :1]))


_VALUES = st.sampled_from([0.0, -0.0, 3e-10, 1e-9, 1.0, -1.0, 2.5, 1e10,
                           -2e10, 1e300, -1e300, 1.7e308])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_VALUES, min_size=2, max_size=2), min_size=1,
                max_size=30), st.randoms(use_true_random=False))
def test_rows_as_codes_independent_of_row_order(rows, rnd):
    x = np.array(rows)
    perm = np.arange(len(rows))
    rnd.shuffle(perm)
    assert np.array_equal(rows_as_codes(x[perm]), rows_as_codes(x)[perm])


def _unique_row_codes(*code_arrays):
    """The former np.unique(axis=0) joint coding, kept as the oracle."""
    stacked = np.column_stack([np.asarray(c, dtype=np.int64)
                               for c in code_arrays])
    return np.unique(stacked, axis=0, return_inverse=True)[1].reshape(-1)


_INTS = st.one_of(st.integers(-3, 5), st.integers(-2 ** 63, 2 ** 63 - 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(_INTS, min_size=k, max_size=k), min_size=1, max_size=40)))
def test_joint_codes_match_unique_rows(rows):
    cols = np.array(rows, dtype=np.int64).T
    assert np.array_equal(joint_codes(*cols), _unique_row_codes(*cols))


_SMALL_INTS = st.integers(-2, 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(_SMALL_INTS, min_size=k, max_size=k), min_size=1, max_size=200)))
def test_joint_codes_counting_pass_matches_unique_rows(rows):
    # narrow key ranges: the counting pass numbers these cells
    cols = np.array(rows, dtype=np.int64).T
    assert np.array_equal(joint_codes(*cols), _unique_row_codes(*cols))


def test_joint_codes_wide_single_column_stays_sorted():
    # a counting pass over this range would need a 1.3e9-entry table
    assert joint_codes(np.array([0, 1_307_701_356])).tolist() == [0, 1]
    assert joint_codes(np.array([0, 1, 0]),
                       np.array([2 ** 62, 0, 2 ** 62])).tolist() == [0, 1, 0]


def _unsorted_quantile_codes(values, n_bins):
    """The former unsorted-search quantile coding, kept as the oracle."""
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.searchsorted(np.unique(np.quantile(values, qs)), values,
                           side="right")


_TIED = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_TIED, st.floats(-1e6, 1e6)), min_size=1,
                max_size=300), st.integers(1, 130))
def test_quantile_codes_match_unsorted_search(values, n_bins):
    v = np.array(values)
    codes = quantile_codes(v, n_bins)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, _unsorted_quantile_codes(v, n_bins))


@pytest.mark.parametrize("n_bins", [1, 2, 8, 64, 129, 130])
@pytest.mark.parametrize("values", [
    [4.0],                                          # n = 1
    [-0.0, 0.0] * 20,                               # constant, signed zeros
    np.round(np.random.default_rng(2).normal(size=4096), 1),   # heavy ties
    np.random.default_rng(3).normal(size=4096),
])
def test_quantile_codes_edge_columns(values, n_bins):
    v = np.asarray(values, dtype=np.float64)
    assert np.array_equal(quantile_codes(v, n_bins),
                          _unsorted_quantile_codes(v, n_bins))


def _same_quantiles(ranked, n_bins):
    """_sorted_quantiles(ranked, n_bins) equals np.quantile(ranked, qs) at
    the inner n_bins-quantiles qs bit for bit, up to the sign of a zero:
    np.quantile partitions its input, which may swap -0.0 and 0.0 (they
    compare equal), so that sign does not follow the column; adding 0.0
    maps -0.0 to 0.0 and keeps every other value's bits.  Quantile codes
    never see the sign."""
    edges = _sorted_quantiles(ranked, n_bins)
    ref = np.quantile(ranked, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    return np.array_equal(edges, ref, equal_nan=True) \
        and (edges + 0.0).tobytes() == (ref + 0.0).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TIED, st.floats(-1e300, 1e300)), min_size=1,
                max_size=600), st.integers(1, 130))
def test_sorted_quantiles_match_np_quantile(values, n_bins):
    assert _same_quantiles(np.sort(np.array(values)), n_bins)


@pytest.mark.parametrize("n", [2, 3, 97, 4096, 5000])
@pytest.mark.parametrize("n_bins", [2, 7, 63, 64, 129])
def test_sorted_quantiles_match_np_quantile_on_long_columns(n, n_bins):
    rng = np.random.default_rng(n * 1000 + n_bins)
    for column in (rng.normal(size=n), np.round(rng.normal(size=n), 1),
                   rng.integers(0, 3, n).astype(np.float64)):
        assert _same_quantiles(np.sort(column), n_bins)


def test_sorted_quantiles_of_a_column_with_nan_are_nan():
    ranked = np.sort(np.array([1.0, np.nan, 0.5, 2.0]))
    assert np.isnan(_sorted_quantiles(ranked, 4)).all()
    assert _same_quantiles(ranked, 4)


def test_cached_quantile_positions_are_read_only():
    for a in _quantile_positions(4096, 64):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # a later call reads the same, unchanged arrays
    assert _quantile_positions(4096, 64)[0] is _quantile_positions(4096, 64)[0]
    assert _same_quantiles(np.sort(np.random.default_rng(9).normal(size=4096)),
                           64)


@pytest.mark.parametrize("loss", ["zero_one", "log"])
@pytest.mark.parametrize("n_bins", [2, 8, 64, 300])
@pytest.mark.parametrize("kind", ["normal", "ties", "sparse"])
def test_one_column_cells_match_the_row_coder(loss, n_bins, kind):
    # one column's quantile codes may skip the numbers of empty bins; the
    # cells priced and counted from them keep every bit
    rng = np.random.default_rng(n_bins)
    col = {"normal": rng.normal(size=500),
           "ties": np.round(rng.normal(size=500), 1),
           "sparse": rng.integers(0, 3, 500) * 1e3}[kind]
    labels = (col + rng.normal(size=500) > 0).astype(int)
    w = np.full(500, 1.0 / 500)
    post = np.eye(2)[labels]
    cells = discretize_codes(col, n_bins=n_bins, max_dims=1)
    renumbered = joint_codes(quantile_codes(col, n_bins))
    assert risk_of_cells(cells, w, post, loss) == \
        risk_of_cells(renumbered, w, post, loss)
    assert entropy_bits(cells) == entropy_bits(renumbered)
    assert entropy_bits(cells, w) == entropy_bits(renumbered, w)
    assert np.array_equal(joint_codes(cells, labels),
                          joint_codes(renumbered, labels))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 200), st.integers(1, 20))
def test_weighted_entropy_matches_scatter_add(seed, n, k):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, k, n)
    weights = rng.random(n) * (rng.random(n) < 0.8)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    dist = np.zeros(codes.max() + 1)
    np.add.at(dist, codes, weights)
    p = dist / dist.sum()
    p = p[p > 0]
    assert entropy_bits(codes, weights) == float(-np.sum(p * np.log2(p)))


def test_sufficiency_one_bit_for_scaled_injective_code():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    z = 1e10 * x + np.array([1e10, 2e10])
    assert abs(sufficiency_surrogate(z, x, x[:, 0]) - 1.0) <= 1e-12
