import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pelab.infotheory import joint_codes, rows_as_codes
from pelab.metrics import sufficiency_surrogate


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


def test_sufficiency_one_bit_for_scaled_injective_code():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    z = 1e10 * x + np.array([1e10, 2e10])
    assert abs(sufficiency_surrogate(z, x, x[:, 0]) - 1.0) <= 1e-12
