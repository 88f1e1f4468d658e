import numpy as np
import pytest

from pelab.errors import ContractViolation
from pelab.numerics import Encoder, Rng, identity_encoder, make_encoder
from pelab.objectives import ObjectiveSpec
from pelab.probes import LinearHead
from pelab.theory import (FactorThroughTFamily, assumption_audit, bayes_risk,
                          bayes_risk_through_encoder, empirical_bayes_risk,
                          factorization_residual,
                          monotone_scalar_link, orbit_merging_link,
                          orthogonality_check, risk_of_cells, risk_table,
                          run_scenario, task_risk, two_stage_check)
from pelab.trainer import TrainConfig, train_head, train_perception
from pelab.worlds import make_rotation_world


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


def test_bayes_risk_rejects_unknown_representation(bernoulli_world):
    with pytest.raises(ContractViolation):
        bayes_risk(bernoulli_world, "mediocre", "zero_one")


def test_bayes_risk_continuous_world_needs_resolution(rotation_world):
    with pytest.raises(ContractViolation):
        bayes_risk(rotation_world, "full", "zero_one")
    assert bayes_risk(rotation_world, "full", "zero_one", resolution=64) == 0.0


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
    direct = bayes_risk(bernoulli_world, "full", "log")
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


@pytest.mark.parametrize("loss", ["zero_one", "log"])
def test_empirical_bayes_risk_ignores_constant_columns(loss):
    rng = np.random.default_rng(4)
    codes = rng.normal(size=(600, 2))
    labels = (codes[:, 0] + 0.5 * rng.normal(size=600) > 0).astype(int)
    padded = np.column_stack([codes[:, :1], np.full(600, 7.0), codes[:, 1:]])
    assert empirical_bayes_risk(padded, labels, loss, 16, 2) == \
        empirical_bayes_risk(codes, labels, loss, 16, 2)


@pytest.mark.parametrize("loss", ["zero_one", "log"])
def test_empirical_bayes_risk_of_constant_codes_is_one_cell(loss):
    labels = np.array([0] * 30 + [1] * 10)
    post = np.eye(2)[labels]
    one_cell = risk_of_cells(np.zeros(40, dtype=np.int64),
                             np.full(40, 1.0 / 40), post, loss)
    assert empirical_bayes_risk(np.full((40, 3), -2.0), labels, loss, 8,
                                2) == one_cell
    assert one_cell > 0.0


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
# factor-through family
# ---------------------------------------------------------------------------

def test_factorization_residual_is_zero(rotation_world, rng):
    family = FactorThroughTFamily(rotation_world, monotone_scalar_link())
    x = rotation_world.sample_x(rng, 500)
    assert factorization_residual(family, x) <= 1e-12


def test_injectivity_witness_detects_merge():
    world = make_rotation_world(radius_values=(0.6, 0.9, 1.1, 1.4))
    t = world.t_atoms().x
    good = FactorThroughTFamily(world, monotone_scalar_link(hidden=2))
    assert good.injectivity_witness(t)["ok"]
    bad = FactorThroughTFamily(world, orbit_merging_link())
    wit = bad.injectivity_witness(t)
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


def test_orthogonality_check_custom_family_on_discrete_world():
    world = make_rotation_world(radius_values=(0.5, 0.8, 1.2, 1.5))
    family = FactorThroughTFamily(world, monotone_scalar_link())
    verdict = orthogonality_check(family, world, Rng(60))
    assert verdict.passed
    assert verdict.measured["f_at_start"] == 0.0


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(ContractViolation):
        run_scenario("nonexistent", seed=0)


# ---------------------------------------------------------------------------
# two-stage optimality
# ---------------------------------------------------------------------------

def test_two_stage_factor_through_link_achieves_bayes(rotation_world):
    family = FactorThroughTFamily(rotation_world, monotone_scalar_link())
    verdict = two_stage_check(rotation_world, family, Rng(61))
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
    x_eval = world.sample_x(Rng(64), 4096)
    y_eval = world.label_fn(x_eval)
    preds = head.predict(enc.forward(x_eval))
    assert np.unique(preds).size == 1  # the head can only predict the prior
    assert preds[0] == 0               # majority class
    risk = float(np.mean(preds != y_eval))
    assert risk == float(np.mean(y_eval == 1))


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
