import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelab import metrics
from pelab.errors import (ContractViolation, DegenerateError,
                          NotApplicableError)
from pelab.metrics import (Curve, MetricInputs, MetricReport,
                           MetricSuiteOptions, certify, certify_encoder,
                           disentanglement_nmi, fisher_trace,
                           geometry_diagnostics, invariance_curve,
                           leakage_probe, normalized_mi, probe_data_efficiency,
                           radial_fisher, separability, smoothness,
                           sufficiency_surrogate, uniform_grid)
from pelab.infotheory import rows_as_codes
from pelab.metrics import _cap_group, _two_orbit_groups
from pelab.numerics import (Encoder, Rng, distinct_rows, evenly_spaced,
                            make_encoder, matmul)
from pelab.worlds import make_bernoulli_uv_world, sample_batch

from conftest import identity_encoder, through_orbit_map


# ---------------------------------------------------------------------------
# invariance curves
# ---------------------------------------------------------------------------

def test_curve_zero_at_identity_and_constant_encoder(unit_circle_world, rng):
    enc = Encoder("linear", np.zeros((2, 2)), np.array([1.0, 2.0]))
    curve = invariance_curve(enc, unit_circle_world, uniform_grid(np.pi, 9),
                             200, rng)
    assert curve.values[0] == 0.0
    assert np.all(curve.values == 0.0)
    assert curve.auc == 0.0


def test_curve_matches_closed_form_on_unit_circle(unit_circle_world):
    # identity encoder on the unit circle: D(alpha) = 2(1 - cos alpha),
    # AUC over [0, pi] = 2 pi
    enc = identity_encoder(2)
    grid = uniform_grid(np.pi, 33)
    curve = invariance_curve(enc, unit_circle_world, grid, 10_000, Rng(3))
    oracle = 2.0 * (1.0 - np.cos(grid))
    assert np.all(np.abs(curve.values - oracle) <= 0.02 * oracle + 1e-12)
    assert abs(curve.auc - 2.0 * np.pi) <= 0.02 * 2.0 * np.pi


def test_curve_auc_self_consistent(unit_circle_world, rng):
    enc = identity_encoder(2)
    curve = invariance_curve(enc, unit_circle_world, uniform_grid(np.pi, 17),
                             500, rng)
    assert curve.auc == float(np.trapezoid(curve.values, curve.alphas))


def test_curve_requires_magnitude_family(bernoulli_world, rng):
    with pytest.raises(NotApplicableError):
        invariance_curve(identity_encoder(2), bernoulli_world,
                         uniform_grid(1.0, 5), 100, rng)


def test_curve_not_applicable_draws_nothing(bernoulli_world):
    # the family is checked before any input is drawn, so the caller's
    # stream is left where it was
    rng = Rng(4)
    with pytest.raises(NotApplicableError):
        invariance_curve(identity_encoder(2), bernoulli_world,
                         uniform_grid(1.0, 5), 100, rng)
    assert rng.uniform(size=8).tobytes() == Rng(4).uniform(size=8).tobytes()


def test_curve_validates_grid():
    with pytest.raises(ContractViolation):
        Curve(np.array([0.0, 0.5, 0.5]), np.zeros(3))
    with pytest.raises(ContractViolation):
        Curve(np.array([0.0, 0.5]), np.array([1.0, -0.2]))


# ---------------------------------------------------------------------------
# leakage
# ---------------------------------------------------------------------------

def test_leakage_chance_level_for_independent_codes():
    rng = Rng(10)
    z = rng.normal(size=(10_000, 3))
    v = rng.integers(0, 2, size=10_000)
    res = leakage_probe(z, v, Rng(11))
    assert 0.45 <= res["auc"] <= 0.55
    assert res["leakage_score"] <= 0.1


def test_leakage_perfect_when_code_contains_nuisance():
    rng = Rng(12)
    v = rng.integers(0, 2, size=2000)
    z = np.column_stack([v.astype(float), rng.normal(size=2000)])
    res = leakage_probe(z, v, Rng(13))
    assert res["auc"] >= 0.99


def test_leakage_bernoulli_u_code(bernoulli_world):
    batch = sample_batch(bernoulli_world, 10_000, Rng(14))
    z = batch.x[:, [0]]  # code = U; nuisance = V, independent of U
    res = leakage_probe(z, batch.v, Rng(15))
    assert 0.45 <= res["auc"] <= 0.55


def test_leakage_rejects_single_class(rng):
    with pytest.raises(ContractViolation):
        leakage_probe(rng.normal(size=(200, 2)), np.zeros(200), rng)


def test_leakage_requires_min_samples(rng):
    with pytest.raises(ContractViolation):
        leakage_probe(rng.normal(size=(50, 2)),
                      rng.integers(0, 2, size=50), rng)


# ---------------------------------------------------------------------------
# normalized MI
# ---------------------------------------------------------------------------

def test_normalized_mi_identity():
    v = Rng(16).integers(0, 2, size=5000)
    assert abs(normalized_mi(v.astype(float), v) - 1.0) <= 1e-12


def test_normalized_mi_independent_small():
    rng = Rng(17)
    z = rng.normal(size=(10_000, 2))
    v = rng.integers(0, 2, size=10_000)
    assert normalized_mi(z, v) <= 0.05


def test_normalized_mi_full_code_recovers_nuisance(bernoulli_world):
    batch = sample_batch(bernoulli_world, 4096, Rng(18))
    assert abs(normalized_mi(batch.x, batch.v) - 1.0) <= 1e-12


def test_normalized_mi_rejects_constant_nuisance(rng):
    with pytest.raises(ContractViolation):
        normalized_mi(rng.normal(size=(500, 2)), np.ones(500))


def test_normalized_mi_bounded_across_random_batches():
    for seed in range(10):
        rng = Rng(seed)
        n = 1500
        v = rng.integers(0, int(rng.integers(2, 5)), size=n)
        z = rng.normal(size=(n, int(rng.integers(1, 5))))
        if rng.uniform() < 0.5:
            z[:, 0] += v  # partial leakage
        val = normalized_mi(z, v)
        assert 0.0 <= val <= 1.02, seed


def test_shuffle_baseline_kills_leakage_and_mi():
    rng = Rng(19)
    v = rng.integers(0, 2, size=10_000)
    z = np.column_stack([v.astype(float) * 2.0, rng.normal(size=10_000)])
    v_shuffled = Rng(20).permutation(v)
    assert normalized_mi(z, v_shuffled) <= 0.05
    res = leakage_probe(z, v_shuffled, Rng(21))
    assert 0.45 <= res["auc"] <= 0.55


# ---------------------------------------------------------------------------
# smoothness and geometry
# ---------------------------------------------------------------------------

def test_smoothness_constant_encoder(rotation_world, rng):
    enc = Encoder("linear", np.zeros((2, 2)), np.ones(2))
    assert smoothness(enc, rotation_world, 100, rng) == 0.0


def test_smoothness_linear_is_frobenius_energy(rotation_world, rng):
    W = np.array([[1.0, -2.0], [0.5, 3.0]])
    enc = Encoder("linear", W, np.zeros(2))
    s = smoothness(enc, rotation_world, 64, rng)
    assert abs(s - np.sum(W * W)) <= 1e-12


def test_smoothness_quadratic_homogeneity(rotation_world):
    W = np.array([[1.0, -2.0], [0.5, 3.0]])
    s1 = smoothness(Encoder("linear", W, np.zeros(2)), rotation_world, 32, Rng(1))
    s2 = smoothness(Encoder("linear", 2 * W, np.zeros(2)), rotation_world, 32, Rng(1))
    assert abs(s2 - 4.0 * s1) <= 1e-9


def _pointwise_smoothness(enc, world, n, rng):
    """smoothness as one input_jacobian call per sampled point."""
    x = world.sample_xy(rng, n)[0]
    return float(np.mean([np.sum(enc.input_jacobian(xi) ** 2) for xi in x]))


@pytest.mark.parametrize("n", [1, 7, 4096])
@pytest.mark.parametrize("arch, d_z, d_hidden",
                         [("linear", 2, 0), ("linear", 5, 0), ("mlp1", 4, 32)])
@pytest.mark.parametrize("world", ["rotation_world", "bernoulli_world"])
def test_smoothness_batch_matches_pointwise_jacobians(world, arch, d_z,
                                                      d_hidden, n, request):
    world = request.getfixturevalue(world)
    enc = make_encoder(arch, world.d_x, d_z, d_hidden, Rng(n), init_scale=4.0)
    s = smoothness(enc, world, n, Rng(2))
    ref = _pointwise_smoothness(enc, world, n, Rng(2))
    if arch == "linear":
        assert s == ref
    else:
        assert abs(s - ref) <= 1e-12 * ref


def test_geometry_diagnostics_whitened_and_collapsed(rng):
    z = rng.normal(size=(5000, 4))
    geo = geometry_diagnostics(z, gamma=1.0)
    assert geo["cov_offdiag"] <= 0.01
    assert geo["var_floor_violation"] <= 0.1
    collapsed = np.tile([0.3, -0.7, 1.1, 0.0], (100, 1))
    geo_c = geometry_diagnostics(collapsed, gamma=1.0)
    assert geo_c["var_floor_violation"] == 4.0  # gamma * d_z


def test_geometry_diagnostics_duplicate_dimension():
    base = np.array([1.0, 1.0, -1.0, -1.0]) * np.sqrt(3.0) / 2.0
    geo = geometry_diagnostics(np.column_stack([base, base]), gamma=0.5)
    assert abs(geo["cov_offdiag"] - 2.0) <= 1e-9


# ---------------------------------------------------------------------------
# disentanglement
# ---------------------------------------------------------------------------

def test_disentanglement_aligned_codes_score_near_zero():
    rng = Rng(22)
    factors = rng.uniform(0.0, 1.0, size=(10_000, 2))
    z = np.column_stack([np.exp(factors[:, 0]), factors[:, 1] ** 3])
    res = disentanglement_nmi(z, factors)
    assert res["score"] <= 0.02  # monotone per-dim maps keep quantile bins


def test_disentanglement_constant_code_scores_factor_count():
    rng = Rng(23)
    factors = rng.uniform(size=(2000, 3))
    z = np.ones((2000, 2))
    res = disentanglement_nmi(z, factors)
    assert res["score"] == 3.0


def test_disentanglement_rotated_factors_strictly_between():
    rng = Rng(24)
    factors = rng.uniform(size=(10_000, 2))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    z = factors @ np.array([[c, s], [-s, c]])
    res = disentanglement_nmi(z, factors)
    assert 0.05 < res["score"] < 1.95

    # cross-check one best-NMI value with an independent plug-in estimate
    def plug_in_nmi(a, b, bins=8):
        qa = np.quantile(a, np.linspace(0, 1, bins + 1)[1:-1])
        qb = np.quantile(b, np.linspace(0, 1, bins + 1)[1:-1])
        ca = np.searchsorted(np.unique(qa), a, side="right")
        cb = np.searchsorted(np.unique(qb), b, side="right")
        joint, _, _ = np.histogram2d(ca, cb, bins=[np.arange(bins + 1) - 0.5,
                                                   np.arange(bins + 1) - 0.5])
        p = joint / joint.sum()
        pa, pb = p.sum(axis=1), p.sum(axis=0)
        nz = p > 0
        mi = np.sum(p[nz] * np.log2(p[nz] / np.outer(pa, pb)[nz]))
        ha = -np.sum(pa[pa > 0] * np.log2(pa[pa > 0]))
        hb = -np.sum(pb[pb > 0] * np.log2(pb[pb > 0]))
        return mi / np.sqrt(ha * hb)

    oracle = max(plug_in_nmi(z[:, d], factors[:, 0]) for d in range(2))
    assert abs(res["best_nmi_per_factor"][0] - oracle) <= 1e-9


def test_disentanglement_skips_constant_factor(rng):
    factors = np.column_stack([np.ones(500), rng.uniform(size=500)])
    res = disentanglement_nmi(rng.normal(size=(500, 2)), factors)
    assert res["skipped_constant_factors"] == [0]


# ---------------------------------------------------------------------------
# Fisher trace
# ---------------------------------------------------------------------------

def test_fisher_trace_constant_encoder(rotation_world, rng):
    enc = Encoder("linear", np.zeros((2, 2)), np.ones(2))
    assert fisher_trace(enc, rotation_world, 100, rng) == 0.0


def test_fisher_trace_identity_on_unit_circle(unit_circle_world, rng):
    # d(R_alpha x)/d alpha at 0 is (-x2, x1): squared norm = ||x||^2 = 1
    val = fisher_trace(identity_encoder(2), unit_circle_world, 1000, rng)
    assert abs(val - 1.0) <= 1e-6


def test_fisher_trace_quadratic_scaling(unit_circle_world):
    v1 = fisher_trace(identity_encoder(2), unit_circle_world, 500, Rng(2))
    enc3 = Encoder("linear", 3.0 * np.eye(2), np.zeros(2))
    v2 = fisher_trace(enc3, unit_circle_world, 500, Rng(2))
    assert abs(v2 - 9.0 * v1) <= 1e-9


def test_fisher_trace_rejects_discrete_family(bernoulli_world, rng):
    with pytest.raises(NotApplicableError):
        fisher_trace(identity_encoder(2), bernoulli_world, 100, rng)


# ---------------------------------------------------------------------------
# sufficiency surrogate
# ---------------------------------------------------------------------------

def _enumerated_bernoulli():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    t = x[:, 0]
    return x, t


def test_sufficiency_zero_for_orbit_measurable_code():
    x, t = _enumerated_bernoulli()
    assert sufficiency_surrogate(x[:, [0]], x, t) == 0.0


def test_sufficiency_one_bit_for_full_code():
    x, t = _enumerated_bernoulli()
    assert abs(sufficiency_surrogate(x, x, t) - 1.0) <= 1e-12


def test_sufficiency_zero_for_constant_code():
    x, t = _enumerated_bernoulli()
    assert sufficiency_surrogate(np.ones((4, 1)), x, t) == 0.0


def test_sufficiency_metric_bins_codes_by_mi_bins():
    # continuous codes of binary inputs: the registry bins them with
    # metrics.mi_bins, and 16 bins see more of I(X; Z | T) than 8
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2, size=(2000, 2)).astype(np.float64)
    z = x @ np.array([[1.0], [0.5]]) + rng.normal(size=(2000, 1))
    t = x[:, 0]
    values = {}
    for bins in (8, 16):
        report = certify(MetricInputs(z=z, x=x, t=t),
                         MetricSuiteOptions(mi_bins=bins), {},
                         names=("sufficiency_cmi_bits",))
        values[bins] = report.metrics["sufficiency_cmi_bits"].value
        assert values[bins] == sufficiency_surrogate(z, x, t, n_bins=bins)
    assert values[16] > values[8]


def test_certify_encoder_bins_the_nuisance_by_mi_bins(rotation_world,
                                                       monkeypatch):
    # the rotation world's nuisance is a continuous angle: the leakage probe
    # sees it in metrics.mi_bins quantile classes
    seen = []
    probe = metrics.leakage_probe

    def spy(z, v, rng):
        seen.append(np.unique(v).size)
        return probe(z, v, rng)

    monkeypatch.setattr(metrics, "leakage_probe", spy)
    opts = MetricSuiteOptions(n=512, curve_points=5, mi_bins=16,
                              probe_efficiency=False)
    certify_encoder(make_encoder("mlp1", 2, 3, 8, Rng(39)), rotation_world,
                    opts, Rng(40))
    assert seen == [16]


def test_sufficiency_rejects_continuous_inputs(rotation_world, rng):
    batch = sample_batch(rotation_world, 500, rng)
    with pytest.raises(NotApplicableError):
        sufficiency_surrogate(batch.x, batch.x, batch.t)


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------

def test_separability_same_distribution_mmd_near_zero():
    rng = Rng(30)
    a = rng.normal(size=(200, 3))
    b = rng.normal(size=(200, 3))
    res = separability(a, b)
    # unbiased estimator: |mmd2| within a few estimator stds of zero
    assert abs(res["mmd2"]) <= 0.01
    assert res["fisher_ratio"] <= 0.05


def test_separability_far_clusters_matches_brute_force():
    rng = Rng(31)
    a = rng.normal(size=(40, 2)) + np.array([50.0, 0.0])
    b = rng.normal(size=(40, 2)) - np.array([50.0, 0.0])
    res = separability(a, b)

    # O(n^2) double-sum oracle with the same median-heuristic bandwidth
    pooled = np.vstack([a, b])
    d2 = []
    for i in range(pooled.shape[0]):
        for j in range(i + 1, pooled.shape[0]):
            d2.append(np.sum((pooled[i] - pooled[j]) ** 2))
    h2 = np.median(d2) / 2.0

    def k(p, q):
        return np.exp(-np.sum((p - q) ** 2) / (2.0 * h2))

    m = n = 40
    kaa = sum(k(a[i], a[j]) for i in range(m) for j in range(m) if i != j)
    kbb = sum(k(b[i], b[j]) for i in range(n) for j in range(n) if i != j)
    kab = sum(k(a[i], b[j]) for i in range(m) for j in range(n))
    oracle = kaa / (m * (m - 1)) + kbb / (n * (n - 1)) - 2.0 * kab / (m * n)
    assert abs(res["mmd2"] - oracle) <= 1e-9
    assert res["mmd2"] <= 2.0


def _dense_kernel(p, q, h2):
    d2 = (np.sum(p * p, axis=1)[:, None] + np.sum(q * q, axis=1)[None, :]
          - 2.0 * (p @ q.T))
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * h2))


def _dense_mmd2(a, b, h2):
    """Unbiased MMD^2 from three full kernel matrices: the reference for
    the blocked kernel sums."""
    m, n = len(a), len(b)
    kaa, kbb = _dense_kernel(a, a, h2), _dense_kernel(b, b, h2)
    kab = _dense_kernel(a, b, h2)
    return ((kaa.sum() - np.trace(kaa)) / (m * (m - 1))
            + (kbb.sum() - np.trace(kbb)) / (n * (n - 1)) - 2.0 * kab.mean())


@pytest.mark.parametrize("m, n, d", [(20, 2048, 4), (255, 2048, 4),
                                     (256, 2048, 4), (257, 2048, 4),
                                     (1000, 2048, 4), (2048, 2048, 4),
                                     (300, 517, 1), (517, 300, 3)])
def test_separability_blocked_mmd_matches_dense_kernels(m, n, d):
    rng = Rng(m + n + d)
    a = rng.normal(size=(m, d))
    b = rng.normal(size=(n, d)) * 1.3 + 0.4
    res = separability(a, b)
    oracle = _dense_mmd2(a, b, res["bandwidth_sq"])
    assert abs(res["mmd2"] - oracle) <= 1e-12 * abs(oracle)


def _dense_bandwidth_sq(pooled):
    """median_bandwidth_sq from the full distance matrix and its
    ``triu_indices`` (the former code), kept as the oracle for the blocked
    distances."""
    pooled = evenly_spaced(pooled, 512)
    aa = np.sum(pooled * pooled, axis=1)[:, None]
    d2 = np.maximum(aa + aa.T - 2.0 * matmul(pooled, pooled.T), 0.0)
    med = float(np.median(d2[np.triu_indices(len(pooled), k=1)]))
    return med / 2.0 if med > 0 else 1.0


@pytest.mark.parametrize("n, d", [(512, 1), (512, 2), (512, 4), (300, 3),
                                  (3000, 4), (512, 16)])
def test_median_bandwidth_sq_equals_the_dense_distances(n, d):
    x = Rng(n + d).normal(size=(n, d)) * 3.0 + 1.0
    assert metrics.median_bandwidth_sq(x) == _dense_bandwidth_sq(x)


def test_median_bandwidth_sq_peak_memory_is_blocked():
    # 512 continuous 4-d codes: the dense distances, their 2ab and aa + bb
    # terms and a triu_indices pair took 6.3 MB; the blocked ones keep
    # the condensed pairs (1 MB) and one row block at a time
    x = Rng(40).normal(size=(512, 4))
    metrics.median_bandwidth_sq(x)
    tracemalloc.start()
    try:
        got = metrics.median_bandwidth_sq(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _dense_bandwidth_sq(x)
    assert peak < 4e6, peak


def test_median_bandwidth_sq_of_mostly_equal_rows_is_the_fallback():
    # 20 rows of one code against 464 of another: most pairs are equal
    # rows, at distance exactly 0 rather than the rounding noise of
    # aa + bb - 2ab, so the median is 0 and the bandwidth falls back to 1
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = rng.integers(1, 6)
        c1 = rng.normal(size=d) * rng.choice([1.0, 10.0, 100.0])
        c2 = rng.normal(size=d)
        pooled = np.vstack([np.tile(c1, (20, 1)), np.tile(c2, (464, 1))])
        assert metrics.median_bandwidth_sq(pooled) == 1.0


@st.composite
def _repeated_groups(draw):
    """Two code groups of 20 to 600 rows, each drawn from 1 to 6 distinct
    rows in unequal shares.  Where more than half of all pairs are equal
    rows (one code against another, or one dominant code) the median
    squared distance is 0 and the bandwidth is the 1.0 fallback."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    groups = []
    for _ in range(2):
        distinct = rng.normal(size=(draw(st.integers(1, 6)), d))
        shares = rng.dirichlet(np.full(len(distinct), 0.5))
        n = draw(st.integers(20, 600))
        groups.append(distinct[rng.choice(len(distinct), n, p=shares)])
    return groups


@settings(max_examples=60, deadline=None)
@given(_repeated_groups(), st.floats(0.1, 10.0))
def test_kernel_sums_over_distinct_rows_match_dense_kernels(groups, h2):
    a, b = groups
    fa, wa = distinct_rows(a)
    fb, wb = distinct_rows(b)
    c = a + 1e-3 * np.arange(len(a))[:, None]      # every row distinct
    inv_2h2 = 1.0 / (2.0 * h2)
    kaa = _dense_kernel(a, a, h2)
    for got, want in (
            (metrics._kernel_sum(a[fa], wa, a[fa], wa, inv_2h2, True),
             kaa.sum() - np.trace(kaa)),
            (metrics._kernel_sum(a[fa], wa, b[fb], wb, inv_2h2, False),
             _dense_kernel(a, b, h2).sum()),
            (metrics._kernel_sum(c, np.ones(len(c)), b[fb], wb, inv_2h2,
                                 False),
             _dense_kernel(c, b, h2).sum())):
        assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=100, deadline=None)
@given(_repeated_groups())
# one code per group, 20 rows against 464: aa + bb - 2ab put the equal
# rows at 4.4e-16 apart, and that median was taken for the bandwidth
@example([np.tile([0.35, -7.44], (20, 1)), np.tile([-1.29, 1.42], (464, 1))])
def test_separability_on_repeated_rows_matches_dense_kernels(groups):
    a, b = groups
    res = separability(a, b)
    # MMD^2 is a difference of kernel means, each in [0, 1] (the cross
    # term in [0, 2]), so the bound is relative to that scale
    assert abs(res["mmd2"] - _dense_mmd2(a, b, res["bandwidth_sq"])) <= 4e-12


def test_separability_kernel_blocks_hold_only_distinct_rows(monkeypatch):
    # 10 000 two-bit codes split by the orbit bit: each group holds 2
    # distinct codes, and every kernel block must be at most 2 x 2
    world = make_bernoulli_uv_world()
    enc_rng, data_rng = Rng(0).split(2)
    enc = make_encoder("mlp1", 2, 4, 32, enc_rng, init_scale=4.0)
    batch = sample_batch(world, 10000, data_rng)
    groups = _two_orbit_groups(enc.forward(batch.x), batch.t)
    assert [np.unique(g, axis=0).shape[0] for g in groups] == [2, 2]
    blocks, inside = [], []
    kernel_sum, matmul = metrics._kernel_sum, metrics.matmul

    def kernel_spy(*args):
        inside.append(True)
        try:
            return kernel_sum(*args)
        finally:
            inside.pop()

    def matmul_spy(a, b, out=None):
        if inside:
            blocks.append((a.shape[0], b.shape[1]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(metrics, "_kernel_sum", kernel_spy)
    monkeypatch.setattr(metrics, "matmul", matmul_spy)
    separability(*groups)
    assert len(blocks) == 3
    assert max(max(blk) for blk in blocks) <= 2


def _three_branch_groups(z, t):
    """The former split, kept as the oracle: the two most common row cells
    for 2-d t, the two most common values for 1-d t with at most 64 of
    them, the median split otherwise."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1:
        t_codes = rows_as_codes(t)
        vals, counts = np.unique(t_codes, return_counts=True)
        if vals.size < 2:
            return None
        top = vals[np.argsort(counts)[::-1][:2]]
        mask_a, mask_b = t_codes == top[0], t_codes == top[1]
    else:
        vals = np.unique(t)
        if vals.size < 2:
            return None
        if vals.size <= 64:
            _, counts = np.unique(t, return_counts=True)
            top = vals[np.argsort(counts)[::-1][:2]]
            mask_a, mask_b = t == top[0], t == top[1]
        else:
            med = np.median(t)
            mask_a, mask_b = t <= med, t > med
    if mask_a.sum() < 20 or mask_b.sum() < 20:
        return None
    return _cap_group(z[mask_a]), _cap_group(z[mask_b])


@pytest.mark.parametrize("kind", ["discrete_1d", "continuous_1d", "rows_2d",
                                  "single_valued"])
def test_two_orbit_groups_match_three_branch_split(kind):
    rng = np.random.default_rng(11)
    n = 5000
    z = rng.normal(size=(n, 3))
    t = {"discrete_1d": rng.choice([0.6, 0.9, 1.1, 1.4], n,
                                   p=[0.1, 0.4, 0.3, 0.2]),
         "continuous_1d": rng.uniform(0.5, 1.5, n),
         "rows_2d": rng.integers(0, 3, (n, 2)).astype(np.float64),
         "single_valued": np.full(n, 2.0)}[kind]
    got, want = _two_orbit_groups(z, t), _three_branch_groups(z, t)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_separability_peak_memory_is_blocked():
    rng = Rng(35)
    a = rng.normal(size=(2048, 4))
    b = rng.normal(size=(2048, 4)) + 0.5
    tracemalloc.start()
    try:
        separability(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one full 2048 x 2048 kernel matrix alone is 32 MB; the kernel sums
    # hold one 256 x 2048 block (4.2 MB) and the bandwidth one row block of
    # its distances, 5.6 MB in all when numpy's first np.unique call in the
    # process also imports numpy.ma
    assert peak < 6.5e6, peak


def test_separability_equal_means_fisher_near_zero():
    rng = Rng(32)
    a = rng.normal(size=(500, 2))
    b = rng.normal(size=(500, 2))
    assert separability(a, b)["fisher_ratio"] <= 0.01


def test_separability_degenerate_fisher_is_infinite():
    a = np.tile([1.0, 0.0], (30, 1))
    b = np.tile([0.0, 1.0], (30, 1))
    assert separability(a, b)["fisher_ratio"] == float("inf")


def test_separability_requires_group_size():
    with pytest.raises(ContractViolation):
        separability(np.zeros((5, 2)), np.zeros((30, 2)))


def test_separability_overflowing_squared_distances_degenerate():
    # codes near 1e154 in three dimensions: the Fisher ratio is finite, but
    # the squared norms behind the kernel distances and the radial norms
    # overflow float64.  The suite turns RuntimeWarnings into errors, so the
    # overflow must also pass silently
    rng = Rng(35)
    a = 1e154 + rng.normal(size=(40, 3)) * 1e150
    b = a + 1e151
    for metric in (separability, radial_fisher):
        with pytest.raises(DegenerateError, match="overflow float64"):
            metric(a, b)


def test_radial_fisher_separates_norm_groups():
    rng = Rng(33)
    a = rng.normal(size=(100, 2)) * 0.1 + np.array([5.0, 0.0])
    # same norms, rotated: radial fisher should be tiny
    theta = rng.uniform(0, 2 * np.pi, 100)
    b = np.column_stack([np.cos(theta), np.sin(theta)]) * np.linalg.norm(a, axis=1)[:, None]
    assert radial_fisher(a, b) <= 0.05


def test_radial_fisher_equals_separability_on_norms():
    rng = Rng(34)
    a = rng.normal(size=(60, 3)) + 1.0
    b = rng.normal(size=(45, 3))
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    assert radial_fisher(a, b) == separability(na, nb)["fisher_ratio"]


# ---------------------------------------------------------------------------
# probe data-efficiency
# ---------------------------------------------------------------------------

def test_probe_efficiency_radius_code(rotation_world):
    enc = through_orbit_map(rotation_world, identity_encoder(1))
    res = probe_data_efficiency(enc, rotation_world, (64, 256), Rng(34))
    assert res["accuracy_per_budget"]["256"] >= 0.95


def test_probe_efficiency_constant_code(rotation_world):
    enc = Encoder("linear", np.zeros((2, 2)), np.ones(2))
    res = probe_data_efficiency(enc, rotation_world, (256,), Rng(35))
    assert res["accuracy_per_budget"]["256"] <= 0.6  # about the class prior


def test_probe_efficiency_monotone_up_to_noise(rotation_world):
    enc = through_orbit_map(rotation_world, identity_encoder(1))
    budgets = (32, 128, 512)
    for seed in range(5):
        res = probe_data_efficiency(enc, rotation_world, budgets, Rng(seed))
        accs = [res["accuracy_per_budget"][str(b)] for b in budgets]
        for lo, hi in zip(accs, accs[1:]):
            assert hi >= lo - 0.03, (seed, accs)


def test_probe_efficiency_budget_exceeds_pool(rotation_world, rng):
    with pytest.raises(ContractViolation):
        probe_data_efficiency(identity_encoder(2), rotation_world, (9999,),
                              rng, pool_n=100)


# ---------------------------------------------------------------------------
# representation-invariance spot check (injective reparameterizations)
# ---------------------------------------------------------------------------

def test_mi_family_metrics_stable_under_similarity_transform():
    rng = Rng(36)
    v = rng.integers(0, 2, size=6000)
    z = np.column_stack([v + 0.4 * rng.normal(size=6000),
                         rng.normal(size=6000),
                         0.5 * rng.normal(size=6000)])
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                  [np.sin(theta), np.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    z2 = 1.8 * (z @ q.T) + np.array([0.3, -2.0, 0.7])

    auc1 = leakage_probe(z, v, Rng(37))["auc"]
    auc2 = leakage_probe(z2, v, Rng(37))["auc"]
    assert abs(auc1 - auc2) <= 0.02

    mi1 = normalized_mi(z, v)
    mi2 = normalized_mi(z2, v)
    assert abs(mi1 - mi2) <= 0.02


def test_axis_metrics_stable_under_diagonal_affine():
    rng = Rng(38)
    factors = rng.uniform(size=(6000, 2))
    z = np.column_stack([factors[:, 0], factors[:, 1] + 0.1 * rng.normal(size=6000)])
    z2 = z * np.array([3.0, -0.5]) + np.array([1.0, -4.0])
    d1 = disentanglement_nmi(z, factors)["score"]
    d2 = disentanglement_nmi(z2, factors)["score"]
    assert abs(d1 - d2) <= 0.02

    x, t = _enumerated_bernoulli()
    s1 = sufficiency_surrogate(x, x, t)
    s2 = sufficiency_surrogate(x * np.array([2.0, -1.5]) + 0.3, x, t)
    assert abs(s1 - s2) <= 1e-12


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_round_trip(rotation_world):
    enc = make_encoder("mlp1", 2, 3, 8, Rng(39))
    opts = MetricSuiteOptions(n=512, curve_points=9, probe_budgets=(32, 64),
                              probe_pool=256)
    report = certify_encoder(enc, rotation_world, opts, Rng(40),
                             config_hash="abc123", seed=40)
    assert report.metrics["invariance_auc"].status == "ok"
    assert report.metrics["sufficiency_cmi_bits"].status == "not_applicable"


def test_report_suite_marks_inapplicable_metrics(bernoulli_world):
    enc = identity_encoder(2)
    opts = MetricSuiteOptions(n=512, probe_budgets=(64,), probe_pool=256)
    report = certify_encoder(enc, bernoulli_world, opts, Rng(41))
    assert report.metrics["invariance_auc"].status == "not_applicable"
    assert report.metrics["fisher_trace"].status == "not_applicable"
    assert report.metrics["sufficiency_cmi_bits"].status == "ok"
    assert report.metrics["leakage_probe_auc"].status == "ok"


def test_certify_records_missing_inputs_and_failed_preconditions():
    # two orbit groups of 30 rows; every code of a group has the same norm,
    # so the radial Fisher ratio is infinite
    rng = Rng(44)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    z = axes[rng.integers(0, 4, size=60)] * np.repeat([1.0, 2.0], 30)[:, None]
    t = np.repeat([0.0, 1.0], 30)
    v = rng.integers(0, 2, size=60)
    report = certify(MetricInputs(z=z, t=t, v=v), MetricSuiteOptions(), {})
    m = report.metrics
    assert m["invariance_auc"].status == "not_applicable"
    assert m["invariance_auc"].detail["reason"] == "missing input: encoder, world"
    assert m["sufficiency_cmi_bits"].detail["reason"] == "missing input: x"
    assert m["leakage_probe_auc"].status == "degenerate"
    assert "n >= 100" in m["leakage_probe_auc"].detail["reason"]
    assert m["normalized_mi"].status == "degenerate"
    assert m["per_dim_variance"].status == "ok"
    assert m["fisher_ratio"].status == "ok"
    assert m["radial_fisher"].status == "degenerate"
    assert m["radial_fisher"].value is None
    json.loads(report.to_json())

    single = certify(MetricInputs(z=z, t=np.zeros(60)), MetricSuiteOptions(),
                     {}, names=("separability",))
    assert sorted(single.metrics) == ["fisher_ratio", "mmd2", "radial_fisher"]
    assert all(e.status == "degenerate" for e in single.metrics.values())


def test_report_records_non_finite_entries_as_degenerate():
    report = MetricReport()
    report.add("value", value=float("inf"))
    report.add("detail", value=1.0, spread=[0.5, float("nan")])
    for name in ("value", "detail"):
        assert report.metrics[name].status == "degenerate"
        assert report.metrics[name].value is None
    json.loads(report.to_json())
    report.theory["check"] = {"measured": float("nan")}
    with pytest.raises(ValueError):
        report.to_json()
