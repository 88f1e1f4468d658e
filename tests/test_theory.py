import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelab import infotheory as it
from pelab import theory
from pelab.errors import ContractViolation
from pelab.infotheory import risk_of_cells
from pelab.numerics import Encoder, Rng, as_samples, make_encoder, matmul
from pelab.objectives import ObjectiveSpec, invariance_value_grad
from pelab.probes import LinearHead
from pelab.theory import (_PERCEPTION_SPEC, _family_gradient,
                          assumption_audit, bayes_risk,
                          bayes_risk_through_encoder, empirical_bayes_risk,
                          factorization_residual, far_pairs,
                          injectivity_witness, monotone_scalar_link,
                          orbit_merging_link,
                          orthogonality_check, over_invariance_check,
                          risk_table,
                          run_scenario, task_risk, two_stage_check)
from pelab.trainer import TrainConfig, train_head, train_perception
from pelab.worlds import (Atoms, make_bernoulli_uv_world, make_rotation_world,
                          make_six_nine_world, sample_batch, sample_law)

from conftest import (former_backprop, former_covariance_penalty,
                      former_infonce, former_variance_floor, identity_encoder,
                      sum_rounding_bound, through_orbit_map)


# ---------------------------------------------------------------------------
# Bayes-risk oracles
# ---------------------------------------------------------------------------

def test_risk_table_exact(bernoulli_world):
    table = risk_table(bernoulli_world)
    assert table["zero_one"]["full"] == 0.0
    assert table["zero_one"]["good"] == 0.0
    assert abs(table["zero_one"]["bad"] - 0.5) <= 1e-12
    assert table["log_bits"]["good"] == 0.0          # H(Y | V) = 0
    assert abs(table["log_bits"]["bad"] - 1.0) <= 1e-12  # H(Y | U) = 1 bit


def test_risk_table_needs_two_bit_world(rotation_world):
    with pytest.raises(ContractViolation, match="two-bit world"):
        risk_table(rotation_world)


def test_bayes_risk_continuous_world_needs_resolution(rotation_world):
    # a continuous world has no exact law: its law is discretized at a
    # resolution, where the full input still decides the label exactly
    assert rotation_world.atoms is None
    law = rotation_world.discretized_atoms(64)
    assert bayes_risk(law.x, law, "zero_one") == 0.0


def test_bayes_risk_through_encoder_identity(bernoulli_world):
    assert bayes_risk_through_encoder(identity_encoder(2), bernoulli_world,
                                      "zero_one") == 0.0


def test_bayes_risk_through_encoder_project_to_u(bernoulli_world):
    enc = Encoder("linear", np.array([[1.0, 0.0]]), np.zeros(1))
    assert abs(bayes_risk_through_encoder(enc, bernoulli_world, "zero_one")
               - 0.5) <= 1e-12


def test_bayes_risk_through_injective_reparam_of_v(bernoulli_world):
    enc = Encoder("linear", np.array([[0.0, -2.5]]), np.array([0.7]))
    assert bayes_risk_through_encoder(enc, bernoulli_world, "zero_one") == 0.0


def test_oracle_consistency_identity_equals_full(bernoulli_world):
    via_enc = bayes_risk_through_encoder(identity_encoder(2), bernoulli_world,
                                         "log")
    law = bernoulli_world.atoms()
    direct = bayes_risk(law.x, law, "log")
    assert via_enc == direct


def test_coarsening_never_decreases_bayes_risk(bernoulli_world):
    atoms = bernoulli_world.atoms()
    base_cells = np.arange(4)
    rng = Rng(50)
    for loss in ("zero_one", "log"):
        base = risk_of_cells(base_cells, atoms.weight, atoms.posterior, loss)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            merge = rng.integers(0, k, size=4)
            merged = risk_of_cells(merge, atoms.weight, atoms.posterior, loss)
            assert merged >= base - 1e-15, (loss, merge)


def _row_loss(posteriors, loss):
    """The former dense pricing, kept as the oracle: the Bayes-act loss of
    each posterior row, over every column."""
    if loss == "zero_one":
        return 1.0 - posteriors.max(axis=1)
    mask = posteriors > 0
    logs = np.log2(np.where(mask, posteriors, 1.0))
    out = np.zeros(posteriors.shape[0])
    out -= np.sum(np.where(mask, posteriors * logs, 0.0), axis=1)
    return out


def _scatter_add_risk(cells, weights, posteriors, loss):
    """The former np.add.at cell aggregation and dense row pricing, kept as
    the oracle."""
    k = int(cells.max()) + 1
    w_cell = np.zeros(k)
    np.add.at(w_cell, cells, weights)
    post_cell = np.zeros((k, posteriors.shape[1]))
    np.add.at(post_cell, cells, weights[:, None] * posteriors)
    nonzero = w_cell > 0
    post_cell[nonzero] /= w_cell[nonzero, None]
    losses = _row_loss(post_cell[nonzero], loss)
    return float(np.sum(w_cell[nonzero] * losses))


@pytest.mark.parametrize("loss", ["zero_one", "log"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       k=st.integers(1, 40), n_classes=st.integers(2, 4))
def test_risk_of_cells_matches_scatter_add(loss, seed, n, k, n_classes):
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, k, n)
    weights = rng.random(n) * (rng.random(n) < 0.9)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    weights /= weights.sum()
    posteriors = rng.dirichlet(np.ones(n_classes), n)
    one_hot = rng.random(n) < 0.5
    posteriors[one_hot] = np.eye(n_classes)[rng.integers(0, n_classes, n)][one_hot]
    assert risk_of_cells(cells, weights, posteriors, loss) == \
        _scatter_add_risk(cells, weights, posteriors, loss)


def _label_law(x, labels, n_classes=2):
    """The empirical law of labelled rows: mass 1/n each, one-hot labels."""
    n = len(labels)
    return Atoms(x, np.full(n, 1.0 / n), np.eye(n_classes)[labels])


@pytest.mark.parametrize("loss", ["zero_one", "log"])
def test_empirical_bayes_risk_ignores_constant_columns(loss):
    rng = np.random.default_rng(4)
    codes = rng.normal(size=(600, 2))
    labels = (codes[:, 0] + 0.5 * rng.normal(size=600) > 0).astype(int)
    padded = np.column_stack([codes[:, :1], np.full(600, 7.0), codes[:, 1:]])
    law = _label_law(codes, labels)
    assert empirical_bayes_risk(padded, law, loss, 16) == \
        empirical_bayes_risk(codes, law, loss, 16)


@pytest.mark.parametrize("loss", ["zero_one", "log"])
def test_empirical_bayes_risk_of_constant_codes_is_one_cell(loss):
    labels = np.array([0] * 30 + [1] * 10)
    law = _label_law(np.zeros((40, 1)), labels)
    one_cell = risk_of_cells(np.zeros(40, dtype=np.int64), law.weight,
                             law.posterior, loss)
    assert empirical_bayes_risk(np.full((40, 3), -2.0), law, loss, 8) == \
        one_cell
    assert one_cell > 0.0


def _labels_risk(codes, labels, loss, resolution, n_classes):
    """The former labels-and-class-count estimator, kept as the oracle: it
    rebuilt the 1/n weights and the one-hot posteriors on every call."""
    codes = as_samples(codes)
    cells = it.discretize_codes(codes, n_bins=resolution,
                                max_dims=codes.shape[1])
    labels = np.asarray(labels, dtype=np.int64)
    w = np.full(labels.size, 1.0 / labels.size)
    return risk_of_cells(cells, w, np.eye(n_classes)[labels], loss)


_SAMPLED_WORLDS = {"rotation": make_rotation_world,
                   "rotation_discrete": lambda: make_rotation_world(
                       radius_values=(0.6, 0.9, 1.1, 1.4)),
                   "bernoulli_uv": make_bernoulli_uv_world,
                   "six_nine": make_six_nine_world}


@pytest.mark.parametrize("loss", ["zero_one", "log"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
       resolution=st.integers(2, 32), d_z=st.integers(1, 3),
       kind=st.sampled_from(sorted(_SAMPLED_WORLDS)))
def test_empirical_bayes_risk_of_sampled_law_matches_labels_formula(
        loss, seed, n, resolution, kind, d_z):
    world = _SAMPLED_WORLDS[kind]()
    enc = make_encoder("mlp1", 2, d_z, 5, Rng(seed), init_scale=2.0)
    law = sample_law(world, Rng(seed), n)
    x, y = world.sample_xy(Rng(seed), n)
    assert empirical_bayes_risk(enc.forward(law.x), law, loss, resolution) \
        == _labels_risk(enc.forward(x), y, loss, resolution, world.n_classes)


@pytest.mark.parametrize("scenario, evals", [
    ("orthogonality_rotation", 53), ("merged_orbits", 43),
    ("over_invariance_bernoulli", 2)])
def test_risk_evaluations_per_scenario(risk_evals, scenario, evals):
    # each check builds its law once; every F evaluation prices it once
    run_scenario(scenario, seed=11)
    assert len(risk_evals) == evals


@pytest.mark.parametrize("scenario, forwards", [
    ("orthogonality_rotation", {4096: 45, 256: 17}),
    ("merged_orbits", {4: 62}),
    ("over_invariance_bernoulli", {})])
def test_forwards_per_scenario(monkeypatch, scenario, forwards):
    # one forward of the link per parameter point: the central difference's
    # codes price both resolutions of the resolution-shift diagnostic
    calls = {}
    build = theory.monotone_scalar_link

    def counted_link(*args, **kwargs):
        link = build(*args, **kwargs)
        encode = link.forward

        def counted(t):
            z = encode(t)
            calls[z.shape[0]] = calls.get(z.shape[0], 0) + 1
            return z

        link.forward = counted
        return link

    monkeypatch.setattr(theory, "monotone_scalar_link", counted_link)
    run_scenario(scenario, seed=11)
    assert calls == forwards


@pytest.mark.parametrize("loss", ["zero_one", "log"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
       resolution=st.integers(2, 32), d_z=st.integers(1, 3))
def test_empirical_bayes_risk_ignores_the_order_of_a_sampled_law(
        loss, seed, n, resolution, d_z):
    # the orthogonality check sorts its sampled law by orbit value
    world = make_rotation_world()
    law = sample_law(world, Rng(seed), n)
    codes = make_encoder("mlp1", 2, d_z, 5, Rng(seed),
                         init_scale=2.0).forward(law.x)
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = Atoms(law.x[perm], law.weight[perm], law.posterior[perm])
    assert empirical_bayes_risk(codes[perm], shuffled, loss, resolution) == \
        empirical_bayes_risk(codes, law, loss, resolution)


# ---------------------------------------------------------------------------
# task risk of concrete heads
# ---------------------------------------------------------------------------

def _head(W, b):
    k, d = np.asarray(W).shape
    return LinearHead(W=np.asarray(W, float), b=np.asarray(b, float),
                      classes=np.arange(k), mean=np.zeros(d), scale=np.ones(d))


def test_task_risk_saturated_head_on_good_code(bernoulli_world):
    enc = Encoder("linear", np.array([[0.0, 1.0]]), np.zeros(1))  # z = V
    head = _head([[10.0], [-10.0]], [5.0, -5.0])
    # logits: class0 = 10 z + 5, class1 = -10 z - 5 -> wrong orientation;
    # flip so z=1 predicts class 1 with a +/-10 margin
    head = _head([[-10.0], [10.0]], [5.0, -5.0])
    risk = task_risk(enc, head, bernoulli_world, "log", 4096, Rng(51))
    assert risk <= 0.01


def test_task_risk_uniform_head_is_one_bit(bernoulli_world):
    head = _head(np.zeros((2, 2)), np.zeros(2))
    risk = task_risk(identity_encoder(2), head, bernoulli_world, "log",
                     2048, Rng(52))
    assert risk == 1.0


def test_task_risk_dominated_by_bayes(bernoulli_world):
    # deciding from Z = U: no head can beat 1/2 beyond Monte Carlo noise
    enc = Encoder("linear", np.array([[1.0, 0.0]]), np.zeros(1))
    bayes = bayes_risk_through_encoder(enc, bernoulli_world, "zero_one")
    n = 4096
    mc_std = 0.5 / np.sqrt(n)
    rng = Rng(53)
    for _ in range(10):
        head = _head(rng.normal(size=(2, 1)), rng.normal(size=2))
        risk = task_risk(enc, head, bernoulli_world, "zero_one", n, rng)
        assert risk >= bayes - 3.0 * mc_std


# ---------------------------------------------------------------------------
# links over the orbit statistic
# ---------------------------------------------------------------------------

def test_factorization_residual_is_zero(rotation_world, rng):
    x = rotation_world.sample_xy(rng, 500)[0]
    assert factorization_residual(monotone_scalar_link(), rotation_world,
                                  x) <= 1e-12


def _dense_witness(link, t, in_gap=1e-3, out_tol=1e-9):
    """The former dense (m, m, d) witness, kept as the oracle."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    if t.size > 256:
        t = t[np.linspace(0, t.size - 1, 256).astype(int)]
    z = link.forward(t[:, None])
    dt = np.abs(t[:, None] - t[None, :])
    dz = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    mask = dt >= in_gap
    violations = int(np.sum(dz[mask] < out_tol) // 2)
    min_dz = float(dz[mask].min()) if mask.any() else None
    return {"ok": violations == 0, "violations": violations,
            "min_code_gap": min_dz}


def _steep_link(rng, d_out):
    # steep tanh units saturate to exactly +-1, so some far pairs share a code
    return Encoder("mlp1", 40.0 * rng.normal(size=(4, 1)), rng.normal(size=4),
                   rng.normal(size=(d_out, 4)), np.zeros(d_out))


@pytest.mark.parametrize("d_out", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 5, 300, 4096])
def test_injectivity_witness_matches_dense_oracle(d_out, m):
    rng = np.random.default_rng(d_out * 10_000 + m)
    link = _steep_link(rng, d_out)
    t = np.round(rng.uniform(0.5, 1.5, m), 3)
    assert injectivity_witness(link, far_pairs(t)) == _dense_witness(link, t)


def test_injectivity_witness_reuses_one_pair_set_across_inner_maps():
    rng = np.random.default_rng(8)
    t = np.round(rng.uniform(0.5, 1.5, 1000), 3)
    pairs = far_pairs(t)
    seen_violation = False
    for d_out in (1, 2, 3):
        for link in (_steep_link(rng, d_out),
                     make_encoder("mlp1", 1, d_out, 5, Rng(d_out))):
            wit = injectivity_witness(link, pairs)
            assert wit == _dense_witness(link, t)
            seen_violation = seen_violation or not wit["ok"]
    assert seen_violation   # the steep maps exercise the violation count


@pytest.mark.parametrize("scenario", ["orthogonality_rotation",
                                      "merged_orbits"])
def test_orthogonality_check_builds_its_pair_set_once(monkeypatch, scenario):
    calls = []
    build = theory.far_pairs

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(theory, "far_pairs", counted)
    run_scenario(scenario, seed=11)
    assert len(calls) == 1


def test_injectivity_witness_detects_merge():
    world = make_rotation_world(radius_values=(0.6, 0.9, 1.1, 1.4))
    t = world.t_atoms().x
    pairs = far_pairs(t)
    assert injectivity_witness(monotone_scalar_link(hidden=2), pairs)["ok"]
    wit = injectivity_witness(orbit_merging_link(), pairs)
    assert not wit["ok"]
    assert wit["violations"] >= 2  # both straddling pairs collapse


# ---------------------------------------------------------------------------
# orthogonality: theorem regime and violations
# ---------------------------------------------------------------------------

def test_orthogonality_theorem_regime_passes():
    verdict, expected_pass, ok = run_scenario("orthogonality_rotation", seed=11)
    assert expected_pass and ok and verdict.passed
    assert verdict.measured["max_abs_directional_derivative"] <= 1e-3
    assert verdict.measured["max_abs_delta_f"] <= 1e-3
    # invariance gradient vanishes at exact invariance; recorded, not faked
    assert verdict.diagnostics["grad_inv_norm"] <= 1e-9
    # nonzero tangent probes were exercised
    assert verdict.diagnostics["directions"]["perception_gradient"]["norm"] > 1e-6


def test_orthogonality_resolution_stable():
    verdict, _, _ = run_scenario("orthogonality_rotation", seed=12)
    assert verdict.diagnostics["resolution_shift_of_dvf"] <= 0.5 * 1e-3


def test_orbit_merging_direction_fails_with_risk_jump():
    verdict, expected_pass, ok = run_scenario("merged_orbits", seed=11)
    assert not expected_pass and ok
    assert not verdict.passed
    assert verdict.measured["risk_increase"] >= 0.1
    assert not verdict.diagnostics["injectivity_ok"]
    merge = verdict.diagnostics["directions"]["orbit_merge"]["delta_f"]
    endpoint = max(d["delta_f"] for d in merge.values())
    assert endpoint >= 0.4  # both straddling orbit pairs mix completely


def test_over_invariance_descent_doubles_risk():
    verdict, expected_pass, ok = run_scenario("over_invariance_bernoulli",
                                              seed=11)
    assert not expected_pass and ok
    assert verdict.measured["f_start"] == 0.0
    assert abs(verdict.measured["f_end"] - 0.5) <= 1e-12
    assert verdict.measured["invariance_loss_final"] <= 1e-12


def test_over_invariance_descent_keeps_the_former_bits(bernoulli_world):
    # the former loop: the view pair and the two code gradients concatenated
    # on every step, the parameters rebuilt by get + delta and set
    steps, lr, n = (theory._DESCENT_STEPS, theory._DESCENT_LR,
                    theory._DESCENT_N)
    verdict = over_invariance_check(bernoulli_world, Rng(3))
    enc = Encoder("linear", np.array([[1.0, 2.0]]), np.zeros(1))
    batch = sample_batch(bernoulli_world, n, Rng(3), with_labels=False)
    x2 = np.concatenate([batch.x.copy(), batch.x_plus.copy()])
    losses = []
    for _ in range(steps):
        z2 = matmul(x2, enc.W1.T) + enc.b1
        diff = z2[:n] - z2[n:]
        losses.append(float(np.sum(diff * diff)) / n)
        g = (2.0 / n) * diff
        grad = enc.backprop_params(x2, np.concatenate([g, -g]))
        enc.set_flat_params(enc.get_flat_params() + -lr * grad)
    assert verdict.measured["invariance_loss_final"] == losses[-1]
    assert verdict.diagnostics["invariance_loss_initial"] == losses[0]
    assert losses[-1] < losses[0]


def test_family_gradients_keep_the_former_bits(rotation_world):
    # the former code losses and backprop of the orthogonality check, on the
    # former concatenating path
    def perception(z, zp):
        v1, g1, g1p = former_infonce(z, zp, tau=0.5, sim="dot")
        v2, g2 = former_variance_floor(z, 1.0)
        v3, g3 = former_covariance_penalty(z)
        return v1 + v2 + v3, g1 + g2 + g3, g1p

    cases = [(link, spec, code_loss)
             for link in (monotone_scalar_link(),
                          make_encoder("mlp1", 1, 2, 4, Rng(6)))
             for spec, code_loss in ((ObjectiveSpec(), invariance_value_grad),
                                     (_PERCEPTION_SPEC, perception))]
    for link, spec, code_loss in cases:
        grad = _family_gradient(link, rotation_world, Rng(5), spec)
        batch = sample_batch(rotation_world, 512, Rng(5), with_labels=False)
        t2 = np.concatenate([as_samples(rotation_world.orbit_map(batch.x)),
                             as_samples(rotation_world.orbit_map(batch.x_plus))])
        z2, h2 = link._forward_hidden(t2)
        _, gz, gzp = code_loss(z2[:512], z2[512:])
        ref = former_backprop(link, t2, np.concatenate([gz, gzp]), h2)
        if spec is not _PERCEPTION_SPEC and link.d_z > 1:
            # the invariance term is unchanged, and bias sums over more
            # than one column add row after row, as ndarray.sum does
            assert grad.tobytes() == ref.tobytes()
        else:
            # InfoNCE's row sums, the shared diversity kernel and a
            # one-column bias sum (which ndarray.sum takes pairwise) add in
            # another order; the longest sums run over 2 x 512 rows
            tol = sum_rounding_bound(len(t2))
            assert np.max(np.abs(grad - ref)) <= tol * np.max(np.abs(ref))


def test_orthogonality_check_custom_family_on_discrete_world():
    world = make_rotation_world(radius_values=(0.5, 0.8, 1.2, 1.5))
    verdict = orthogonality_check(monotone_scalar_link(), world, Rng(60))
    assert verdict.passed
    assert verdict.measured["f_at_start"] == 0.0


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ContractViolation):
        run_scenario("nonexistent", seed=0)


# ---------------------------------------------------------------------------
# two-stage optimality
# ---------------------------------------------------------------------------

def test_two_stage_factor_through_link_achieves_bayes(rotation_world):
    enc = through_orbit_map(rotation_world, monotone_scalar_link())
    verdict = two_stage_check(rotation_world, enc, Rng(61))
    assert verdict.passed
    assert verdict.measured["bayes_risk_full"] == 0.0


def test_two_stage_after_perception_training(rotation_world):
    # regression-pinned configuration from the first green build
    enc0 = make_encoder("mlp1", 2, 4, 32, Rng(0), init_scale=4.0)
    spec = ObjectiveSpec(beta_inv=1.0, use_nce=True, tau=0.1, sim="cosine",
                         gamma=1.0, w_var=10.0, w_cov=1.0)
    cfg = TrainConfig(steps=4000, batch_size=256, lr=3e-3, optimizer="adam",
                      seed=0, objective=spec, sigma_aug=0.8)
    enc1, _ = train_perception(rotation_world, enc0, cfg)
    verdict = two_stage_check(rotation_world, enc1, Rng(500))
    assert verdict.passed
    assert verdict.measured["head_risk"] <= 0.03


def test_two_stage_untrained_encoder_recorded(rotation_world):
    enc = make_encoder("mlp1", 2, 4, 32, Rng(7), init_scale=4.0)
    verdict = two_stage_check(rotation_world, enc, Rng(62))
    assert np.isfinite(verdict.measured["head_risk"])  # recorded, not asserted


def test_two_stage_constant_encoder_prior_risk_exact():
    world = make_rotation_world(radius_values=(0.6, 0.9, 1.1))  # P(Y=1) = 1/3
    enc = Encoder("linear", np.zeros((2, 2)), np.ones(2))
    rng = Rng(63)
    head = train_head(enc, world, rng, label_budget=2048)
    x_eval, y_eval = world.sample_xy(Rng(64), 4096)
    preds = head.predict(enc.forward(x_eval))
    assert np.unique(preds).size == 1  # the head can only predict the prior
    assert preds[0] == 0               # majority class
    risk = float(np.mean(preds != y_eval))
    assert risk == float(np.mean(y_eval == 1))


# six_nine with overlapping clusters: F(X) over the law discretized at 256
_SIX_NINE_SIGMA2_BAYES = 0.0668


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_stage_on_overlapping_clusters_does_not_beat_bayes(seed):
    # a head trained and scored on the drawn labels cannot beat the Bayes
    # risk by more than 3 standard errors at n_eval = 4 096
    world = make_six_nine_world(sigma=2.0)
    verdict = two_stage_check(world, identity_encoder(2), Rng(seed))
    assert abs(verdict.measured["bayes_risk_full"]
               - _SIX_NINE_SIGMA2_BAYES) <= 1e-4
    assert verdict.measured["gap"] >= -0.012
    assert verdict.passed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_risk_of_one_coordinate_of_overlapping_clusters(seed):
    # x_0 carries all the information about the class (c lies on the first
    # axis), so the sampled F of x_0 estimates the Bayes risk of X; the
    # world has no atoms, hence no exact F
    world = make_six_nine_world(sigma=2.0)
    enc = Encoder("linear", np.array([[1.0, 0.0]]), np.zeros(1))
    law = sample_law(world, Rng(seed), 4096)
    f = empirical_bayes_risk(enc.forward(law.x), law, "zero_one", 64)
    assert abs(f - _SIX_NINE_SIGMA2_BAYES) <= 0.015
    with pytest.raises(ContractViolation, match="has no atoms"):
        bayes_risk_through_encoder(enc, world, "zero_one")


def test_assumption_audit_a1_passes_with_an_odd_count_of_radii():
    # the median radius is not the label threshold, so rotating a point on
    # the median orbit cannot move its posterior
    world = make_rotation_world(radius_values=(0.3, 0.7, 1.1))
    verdicts = {v.name: v for v in assumption_audit(world, Rng(0))}
    assert verdicts["A1_label_invariance"].measured["violations"] == 0
    assert verdicts["A1_label_invariance"].passed


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

def test_assumption_audit_rotation_all_pass(rotation_world):
    verdicts = {v.name: v for v in assumption_audit(rotation_world, Rng(65))}
    assert verdicts["A1_label_invariance"].passed
    assert verdicts["A1_label_invariance"].measured["violations"] == 0
    assert verdicts["A2_orbit_constancy"].passed
    assert verdicts["A4_invariance_minimum"].passed
    assert verdicts["A5_factorization_residual"].passed
    assert verdicts["A5_factorization_residual"].measured["max_residual"] <= 1e-12


def test_assumption_audit_bernoulli_a1_fails_at_half_rate(bernoulli_world):
    verdicts = {v.name: v for v in assumption_audit(bernoulli_world, Rng(66))}
    a1 = verdicts["A1_label_invariance"]
    assert a1.passed  # the world declares A1 false; violations are expected
    assert 0.4 <= a1.measured["rate"] <= 0.6
    assert verdicts["A2_orbit_constancy"].passed


def test_theorem_and_violation_pairing():
    # the asserted property: the theorem regime passes while both
    # constructed violations fail, under the same machinery and seeds
    outcomes = {name: run_scenario(name, seed=11)
                for name in ("orthogonality_rotation",
                             "over_invariance_bernoulli", "merged_orbits")}
    assert outcomes["orthogonality_rotation"][0].passed
    assert not outcomes["over_invariance_bernoulli"][0].passed
    assert not outcomes["merged_orbits"][0].passed
    assert all(ok for _, _, ok in outcomes.values())
