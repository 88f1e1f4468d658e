import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pelab
from pelab import objectives
from pelab.config import load_config
from pelab.errors import ConfigurationError, ContractViolation
from pelab.numerics import Encoder, Rng, finite_diff, make_encoder
from pelab.objectives import (ObjectiveSpec, covariance_penalty_value_grad,
                              equivariance_value_grad, infonce_value_grad,
                              invariance_value_grad, perc_loss,
                              variance_floor_value_grad)
from pelab.worlds import Batch, make_rotation_world, rho_batch, sample_batch

from conftest import identity_encoder, relative_l2_error


def _pair_batch(x, x_plus, deltas=None):
    n = x.shape[0]
    return Batch(x=x, x_plus=x_plus,
                 deltas=np.zeros(n) if deltas is None else deltas)


def _invariance(enc, batch):
    value, _, _ = invariance_value_grad(enc.forward(batch.x),
                                        enc.forward(batch.x_plus))
    return value


def _equivariance(enc, batch, rho):
    z = enc.forward(batch.x)
    mats = rho_batch(rho, batch.deltas, z.shape[1])
    value, _, _ = equivariance_value_grad(z, enc.forward(batch.x_plus), mats)
    return value


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------

def test_invariance_zero_for_identity_views(rng):
    enc = make_encoder("mlp1", 2, 3, 5, rng)
    x = rng.normal(size=(16, 2))
    assert _invariance(enc, _pair_batch(x, x.copy())) == 0.0


def test_invariance_zero_for_constant_encoder(rng):
    enc = Encoder("linear", np.zeros((2, 2)), np.array([3.0, -1.0]))
    x = rng.normal(size=(16, 2))
    xp = rng.normal(size=(16, 2))
    assert _invariance(enc, _pair_batch(x, xp)) == 0.0


def test_invariance_half_turn_closed_form():
    # identity encoder, x=(1,0), view rotated by pi: ||(1,0)-(-1,0)||^2 = 4
    enc = identity_encoder(2)
    x = np.array([[1.0, 0.0]])
    xp = np.array([[-1.0, 0.0]])
    assert _invariance(enc, _pair_batch(x, xp)) == 4.0


def test_invariance_zero_iff_views_coincide(rng):
    enc = identity_encoder(2)
    x = rng.normal(size=(8, 2))
    xp = x.copy()
    xp[3, 1] += 1e-3
    assert _invariance(enc, _pair_batch(x, xp)) > 0.0


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def test_equivariance_exact_for_identity_encoder_on_rotations(rng):
    world = make_rotation_world()
    enc = identity_encoder(2)
    batch = sample_batch(world, 64, rng)
    assert _equivariance(enc, batch, world.transforms) <= 1e-28


def test_equivariance_with_identity_rho_equals_invariance(rng):
    class IdentityRho:
        kind = "test"

        def rho(self, delta):   # one matrix per delta, as rho_batch asks
            return np.broadcast_to(np.eye(3), np.shape(delta) + (3, 3))

    enc = make_encoder("mlp1", 2, 3, 4, rng)
    x = rng.normal(size=(32, 2))
    xp = rng.normal(size=(32, 2))
    batch = _pair_batch(x, xp)
    assert _equivariance(enc, batch, IdentityRho()) == \
        _invariance(enc, batch)


def test_equivariance_constant_encoder_negation_rho():
    # constant code c=(1,0) with rho(pi) = -I: E||c - (-c)||^2 = 4
    enc = Encoder("linear", np.zeros((2, 2)), np.array([1.0, 0.0]))

    class NegRho:
        def rho(self, delta):   # one matrix per delta, as rho_batch asks
            return np.broadcast_to(-np.eye(2), np.shape(delta) + (2, 2))

    x = np.zeros((5, 2))
    batch = _pair_batch(x, x.copy(), deltas=np.full(5, np.pi))
    assert _equivariance(enc, batch, NegRho()) == 4.0


def test_equivariance_requires_rho(rng):
    enc = identity_encoder(2)
    batch = _pair_batch(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))

    class NoRho:
        kind = "none"
        rho = None

    with pytest.raises(ContractViolation):
        _equivariance(enc, batch, NoRho())


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------

def test_infonce_uniform_logits_equals_log_n():
    for n in (2, 5, 17):
        for sim in ("dot", "cosine"):
            # zero codes give all-zero dot logits; identical rows give
            # cosine logits all equal to 1/tau
            z = np.zeros((n, 3)) if sim == "dot" else np.ones((n, 3))
            value, _, _ = infonce_value_grad(z, z.copy(), tau=0.5, sim=sim)
            assert abs(value - np.log(n)) <= 1e-12, (n, sim)


def test_infonce_perturbing_any_logit_changes_loss():
    # dot logits of z = I are L = zp' / tau, so zp[j, i] moves L[i, j] alone
    n = 4
    z = np.eye(n)
    base, _, _ = infonce_value_grad(z, np.zeros((n, n)), tau=1.0)
    for i in range(n):
        for j in range(n):
            zp = np.zeros((n, n))
            zp[j, i] = 1e-3
            value, _, _ = infonce_value_grad(z, zp, tau=1.0)
            assert value != base, (i, j)


def _softmax_ce_rows(logits):
    """Per-row softmax cross entropy with the diagonal as targets, with a
    dense gradient.  Returns (mean loss, gradient w.r.t. logits)."""
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - m)
    denom = p.sum(axis=1, keepdims=True)
    value = float(np.mean(m[:, 0] + np.log(denom[:, 0]) - np.diag(logits)))
    p /= denom
    p[np.arange(n), np.arange(n)] -= 1.0
    return value, p / n


def _two_pass_nce(logits):
    v1, g1 = _softmax_ce_rows(logits)
    v2, g2 = _softmax_ce_rows(logits.T)
    return 0.5 * (v1 + v2), 0.5 * (g1 + g2.T)


def _dense_symmetric_nce(logits, symmetric=True):
    """Dense oracle for the thin kernel: one exp pass shifted by the global
    maximum and a dense n x n gradient, with the per-row two-pass kernel
    beyond a logit spread of 700 and for the one-sided loss."""
    if not symmetric:
        return _softmax_ce_rows(logits)
    hi = logits.max()
    if hi - logits.min() > 700.0:
        return _two_pass_nce(logits)
    n = logits.shape[0]
    e = np.exp(logits - hi)
    rows = e.sum(axis=1)
    cols = e.sum(axis=0)
    pos = np.diag(logits) - hi
    value = 0.5 * (float(np.mean(np.log(rows) - pos))
                   + float(np.mean(np.log(cols) - pos)))
    grad = e * (0.5 / n / rows)[:, None] + e * (0.5 / n / cols)[None, :]
    grad[np.arange(n), np.arange(n)] -= 1.0 / n
    return value, grad


def _dense_infonce(z, zp, tau, sim, symmetric):
    """infonce_value_grad through the dense oracle kernel."""
    if sim == "dot":
        value, ds = _dense_symmetric_nce((z / tau) @ zp.T, symmetric)
        return value, (ds @ zp) / tau, (ds.T @ z) / tau
    zn = np.linalg.norm(z, axis=1, keepdims=True)
    zpn = np.linalg.norm(zp, axis=1, keepdims=True)
    zh, zph = z / zn, zp / zpn
    value, ds = _dense_symmetric_nce((zh / tau) @ zph.T, symmetric)
    gzh, gzph = (ds @ zph) / tau, (ds.T @ zh) / tau
    return (value,
            (gzh - np.sum(gzh * zh, axis=1, keepdims=True) * zh) / zn,
            (gzph - np.sum(gzph * zph, axis=1, keepdims=True) * zph) / zpn)


def _logit_bound(z, zp, tau, sim):
    if sim == "cosine":
        return 1.0 / tau
    return (np.linalg.norm(z, axis=1).max()
            * np.linalg.norm(zp, axis=1).max() / tau)


def _thin_nce_of_logits(logits, symmetric=True):
    """The thin kernel on a given logit matrix, factored as logits @ I'; the
    gradient w.r.t. the first factor is then the logit gradient itself."""
    n = logits.shape[0]
    value, ds, _ = objectives._nce_thin(logits, np.eye(n),
                                        float(np.abs(logits).max()), symmetric)
    return value, ds


@pytest.fixture
def shifted_exps(monkeypatch):
    """Records the shape of each logit matrix that InfoNCE exponentiates
    with a per-row shift, that is, with 2 bound > 700."""
    calls = []
    exp_rows = objectives.exp_rows

    def spy(logits, bound):
        if 2.0 * bound > 700.0:
            calls.append(logits.shape)
        return exp_rows(logits, bound)

    monkeypatch.setattr(objectives, "exp_rows", spy)
    return calls


# (tau, code scale) per similarity: 2 bound below 700, then above it
_BOUND_CASES = {"dot": [(0.5, 1.0), (0.5, 30.0)],
                "cosine": [(0.5, 1.0), (1e-3, 1.0)]}


@pytest.mark.parametrize("wide", [False, True], ids=["below700", "above700"])
@pytest.mark.parametrize("n", [2, 5, 64, 257])
@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "one_sided"])
@pytest.mark.parametrize("sim", ["dot", "cosine"])
def test_infonce_thin_gradient_matches_dense_oracle(sim, symmetric, n, wide,
                                                    shifted_exps):
    tau, scale = _BOUND_CASES[sim][wide]
    rng = Rng(n)
    z = scale * rng.normal(size=(n, 3))
    zp = z + 0.3 * scale * rng.normal(size=(n, 3))
    ref_value, ref_gz, ref_gzp = _dense_infonce(z, zp, tau, sim, symmetric)
    value, gz, gzp = infonce_value_grad(z, zp, tau, sim, symmetric)
    fallback = 2.0 * _logit_bound(z, zp, tau, sim) > 700.0
    assert fallback == wide
    assert len(shifted_exps) == (2 if symmetric else 1) * fallback
    assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
    for g, ref in ((gz, ref_gz), (gzp, ref_gzp)):
        assert np.max(np.abs(g - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 300.0])
@pytest.mark.parametrize("n", [2, 5, 64])
def test_fused_symmetric_nce_matches_two_pass(scale, n, shifted_exps):
    # uniform on [-scale, scale]: 2 bound stays below 700, so the thin path
    # is taken even at scale 300
    logits = Rng(n).uniform(-scale, scale, size=(n, n))
    ref_value, ref_grad = _two_pass_nce(logits)
    value, grad = _thin_nce_of_logits(logits)
    assert shifted_exps == []
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12


def test_symmetric_nce_falls_back_beyond_shared_shift_range(shifted_exps):
    # unshifted, every entry of row 1 would underflow to 0
    logits = np.array([[0.0, -800.0, -800.0],
                       [-1000.0, -900.0, -1000.0],
                       [-800.0, -800.0, -10.0]])
    value, grad = _thin_nce_of_logits(logits)
    assert len(shifted_exps) == 2
    ref_value, ref_grad = _two_pass_nce(logits)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("sim", ["dot", "cosine"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("scale", [1.0, 1000.0])
def test_infonce_leaves_input_unchanged(symmetric, scale, sim):
    rng = Rng(3)
    z = rng.normal(0.0, scale, size=(16, 3))
    zp = rng.normal(0.0, scale, size=(16, 3))
    before = z.tobytes(), zp.tobytes()
    infonce_value_grad(z, zp, 0.5, sim, symmetric)
    assert (z.tobytes(), zp.tobytes()) == before


def test_infonce_two_point_hand_value():
    # n=2, dot sim, tau=1: positives at 1, cross terms 0
    # per direction: -log(e / (e + 1))
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, _, _ = infonce_value_grad(z, z.copy(), tau=1.0, sim="dot")
    oracle = -np.log(np.e / (np.e + 1.0))
    assert abs(value - oracle) <= 1e-12
    assert abs(oracle - 0.31326) <= 1e-5


def test_infonce_cosine_scale_invariance(rng):
    z = rng.normal(size=(12, 3))
    zp = rng.normal(size=(12, 3))
    v1, _, _ = infonce_value_grad(z, zp, tau=0.4, sim="cosine")
    v2, _, _ = infonce_value_grad(7.3 * z, 7.3 * zp, tau=0.4, sim="cosine")
    assert abs(v1 - v2) <= 1e-12


def test_infonce_rejects_singleton_batch():
    z = np.ones((1, 2))
    with pytest.raises(ContractViolation):
        infonce_value_grad(z, z, tau=1.0)


# ---------------------------------------------------------------------------
# variance floor / covariance penalty
# ---------------------------------------------------------------------------

def test_variance_floor_inactive_when_above_gamma(rng):
    z = rng.normal(size=(200, 3)) * 3.0
    assert variance_floor_value_grad(z, 1.0)[0] == 0.0


def test_variance_floor_constant_codes():
    z = np.tile([2.0, -1.0, 0.5, 3.0], (10, 1))
    assert variance_floor_value_grad(z, 1.0)[0] == 4.0


def test_variance_floor_hinge_arithmetic():
    # one dimension at Var=0.25, another above the floor: shortfall 0.75
    base = np.array([1.0, 1.0, -1.0, -1.0])
    col_low = np.sqrt(3.0 / 16.0) * base   # unbiased Var = 0.25
    col_high = 3.0 * base                  # unbiased Var = 12
    z = np.column_stack([col_low, col_high])
    assert abs(variance_floor_value_grad(z, 1.0)[0] - 0.75) <= 1e-12


def test_variance_floor_requires_two_rows():
    with pytest.raises(ContractViolation):
        variance_floor_value_grad(np.ones((1, 2)), 1.0)


def test_covariance_penalty_decorrelated_is_zero():
    z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert covariance_penalty_value_grad(z)[0] == 0.0


def test_covariance_penalty_counts_both_ordered_pairs():
    # Cov(Z1, Z2) = 0.5 exactly: contributes 0.25 twice
    base = np.array([1.0, 1.0, -1.0, -1.0])
    z = np.column_stack([base, 0.375 * base])
    assert abs(covariance_penalty_value_grad(z)[0] - 0.5) <= 1e-12


def test_covariance_penalty_duplicate_dimension():
    # Z2 == Z1 with Var = 1: Cov = 1 on both off-diagonals, penalty 2
    base = np.array([1.0, 1.0, -1.0, -1.0]) * np.sqrt(3.0) / 2.0
    z = np.column_stack([base, base])
    assert abs(covariance_penalty_value_grad(z)[0] - 2.0) <= 1e-9


# ---------------------------------------------------------------------------
# composite
# ---------------------------------------------------------------------------

def test_perc_loss_all_terms_off(rng):
    enc = make_encoder("mlp1", 2, 3, 4, rng)
    world = make_rotation_world()
    batch = sample_batch(world, 16, rng, with_labels=False)
    spec = ObjectiveSpec(beta_inv=0.0)
    total, grad, comps = perc_loss(enc, batch, spec)
    assert total == 0.0
    assert np.array_equal(grad, np.zeros(enc.n_params))
    assert comps == {}


def test_perc_loss_beta_only_equals_invariance(rng):
    enc = make_encoder("mlp1", 2, 3, 4, rng)
    world = make_rotation_world()
    batch = sample_batch(world, 16, rng, with_labels=False)
    total, _, _ = perc_loss(enc, batch, ObjectiveSpec(beta_inv=1.0))
    assert total == _invariance(enc, batch)


def test_perc_loss_linear_in_weights(rng):
    enc = make_encoder("mlp1", 2, 3, 4, rng)
    world = make_rotation_world()
    batch = sample_batch(world, 32, rng, with_labels=False)
    spec1 = ObjectiveSpec(beta_inv=1.0, use_nce=True, tau=0.5,
                          gamma=0.8, w_var=2.0, w_cov=3.0)
    spec2 = ObjectiveSpec(beta_inv=2.0, use_nce=True, tau=0.5,
                          gamma=0.8, w_var=2.0, w_cov=3.0)
    _, _, c1 = perc_loss(enc, batch, spec1)
    _, _, c2 = perc_loss(enc, batch, spec2)
    assert c2["inv"] == 2.0 * c1["inv"]
    assert c2["nce"] == c1["nce"]
    assert c2["var"] == c1["var"]
    assert c2["cov"] == c1["cov"]


def test_perc_loss_component_sum_is_total(rng):
    enc = make_encoder("mlp1", 2, 2, 5, rng)
    world = make_rotation_world()
    batch = sample_batch(world, 24, rng, with_labels=False)
    spec = ObjectiveSpec(beta_inv=0.7, use_nce=True, tau=0.9, gamma=0.5,
                         w_var=1.3, w_cov=0.4, w_eq=0.6)
    total, _, comps = perc_loss(enc, batch, spec, rho_source=world.transforms)
    assert abs(total - sum(comps.values())) <= 1e-9


def test_perc_loss_eq_requires_rho(rng):
    enc = make_encoder("linear", 2, 2, rng=rng)
    world = make_rotation_world()
    batch = sample_batch(world, 8, rng, with_labels=False)
    with pytest.raises(ConfigurationError):
        perc_loss(enc, batch, ObjectiveSpec(w_eq=1.0), rho_source=None)


def test_perc_loss_peak_memory_is_one_logit_matrix():
    # rotation_pel's weights at batch 1024: the 1024 x 1024 float64 logits
    # take 8.4 MB; a second n x n buffer would push the peak past 16 MB
    cfg = load_config(Path(pelab.__file__).parent / "configs"
                      / "rotation_pel.cfg")
    rng = Rng(0)
    enc = make_encoder("mlp1", 2, 4, 32, rng, init_scale=4.0)
    batch = sample_batch(make_rotation_world(), 1024, rng, with_labels=False)
    spec = cfg.objective
    tracemalloc.start()
    try:
        perc_loss(enc, batch, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


@pytest.mark.parametrize("symmetric", [True, False],
                         ids=["symmetric", "one_sided"])
def test_infonce_beyond_spread_limit_peak_memory_is_one_logit_matrix(
        symmetric, shifted_exps):
    # dot logits with 2 bound far above 700 at n = 1 024: each one-sided
    # pass exponentiates its own 8.4 MB logit matrix and frees it before the
    # next, so no two n x n float64 buffers are ever alive together
    n = 1024
    rng = Rng(8)
    z = 30.0 * rng.normal(size=(n, 3))
    zp = z + 3.0 * rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        infonce_value_grad(z, zp, 0.5, "dot", symmetric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shifted_exps == [(n, n)] * (2 if symmetric else 1)
    assert peak < 2 * n * n * 8, peak


def test_objective_spec_validation():
    # each message opens with its field, which the config maps to its key
    with pytest.raises(ConfigurationError, match="^tau "):
        ObjectiveSpec(tau=0.0)
    with pytest.raises(ConfigurationError, match="^w_var "):
        ObjectiveSpec(w_var=-1.0)
    with pytest.raises(ConfigurationError, match="^sim "):
        ObjectiveSpec(sim="what")


# ---------------------------------------------------------------------------
# gradient checks and nonnegativity properties
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_all_loss_terms_nonnegative(seed):
    rng = Rng(seed)
    enc = make_encoder("mlp1", 2, 2, 4, rng)
    world = make_rotation_world()
    batch = sample_batch(world, 8, rng, with_labels=False)
    spec = ObjectiveSpec(beta_inv=1.0, use_nce=True, tau=0.5, gamma=1.0,
                         w_var=1.0, w_cov=1.0, w_eq=1.0)
    _, _, comps = perc_loss(enc, batch, spec, rho_source=world.transforms)
    for name, value in comps.items():
        assert value >= 0.0, name


def _random_spec(rng):
    sim = "dot" if rng.uniform() < 0.5 else "cosine"
    gamma = float(rng.uniform(0.2, 0.6))  # kept away from sampled variances
    return ObjectiveSpec(
        beta_inv=float(rng.uniform(0.0, 2.0)),
        use_nce=bool(rng.uniform() < 0.8),
        tau=float(rng.uniform(0.3, 1.5)),
        gamma=gamma,
        w_var=float(rng.uniform(0.0, 2.0)),
        w_cov=float(rng.uniform(0.0, 2.0)),
        w_eq=0.0,
        sim=sim,
        symmetric_nce=bool(rng.uniform() < 0.5))


def test_perc_loss_gradient_matches_finite_differences_20_configs():
    world = make_rotation_world()
    rng = Rng(2024)
    for trial in range(20):
        arch = "linear" if trial % 3 == 0 else "mlp1"
        d_z = 2 if trial % 2 == 0 else 3
        enc = make_encoder(arch, 2, d_z, int(rng.integers(3, 9)), rng)
        batch = sample_batch(world, int(rng.integers(8, 33)), rng,
                             with_labels=False)
        spec = _random_spec(rng)
        if d_z == 2 and trial % 4 == 0:
            spec.w_eq = float(rng.uniform(0.1, 1.0))
        _, grad, _ = perc_loss(enc, batch, spec, rho_source=world.transforms)

        def f(p, enc=enc, batch=batch, spec=spec):
            e = enc.copy()
            e.set_flat_params(p)
            t, _, _ = perc_loss(e, batch, spec, rho_source=world.transforms)
            return t

        fd = finite_diff(f, enc.get_flat_params(), 1e-5)
        err = relative_l2_error(grad, fd)
        assert err <= 1e-4, f"trial {trial}: {err}"
