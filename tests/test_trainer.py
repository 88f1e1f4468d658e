import numpy as np
import pytest

from pelab.errors import ConfigurationError, ContractViolation, DivergenceError
from pelab.numerics import Encoder, Rng, make_encoder
from pelab.objectives import ObjectiveSpec, perc_loss
from pelab.trainer import TrainConfig, train_head, train_perception
from pelab.worlds import sample_batch

from conftest import identity_encoder


def _spec(**kw):
    base = dict(beta_inv=1.0, use_nce=True, tau=0.5, sim="cosine",
                gamma=1.0, w_var=10.0, w_cov=1.0)
    base.update(kw)
    return ObjectiveSpec(**base)


def test_train_config_validation():
    # each message opens with its field, which the config maps to its key
    with pytest.raises(ConfigurationError, match="^steps "):
        TrainConfig(steps=0)
    with pytest.raises(ConfigurationError, match="^lr "):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigurationError, match="^optimizer "):
        TrainConfig(optimizer="lbfgs")


def test_training_is_deterministic(rotation_world):
    cfg = TrainConfig(steps=50, batch_size=32, seed=9, objective=_spec())
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(9), init_scale=4.0)
    enc_a, log_a = train_perception(rotation_world, enc0, cfg)
    enc_b, log_b = train_perception(rotation_world, enc0, cfg)
    assert enc_a.get_flat_params().tobytes() == enc_b.get_flat_params().tobytes()
    assert log_a.totals == log_b.totals


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_zero_learning_rate_leaves_encoder_unchanged(rotation_world, optimizer):
    cfg = TrainConfig(steps=20, batch_size=16, lr=0.0, optimizer=optimizer,
                      seed=2, objective=_spec())
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(2), init_scale=4.0)
    enc1, _ = train_perception(rotation_world, enc0, cfg)
    assert enc1.get_flat_params().tobytes() == enc0.get_flat_params().tobytes()


def test_zero_weight_objective_is_noop_under_sgd(rotation_world):
    cfg = TrainConfig(steps=20, batch_size=16, lr=0.1, optimizer="sgd",
                      seed=3, objective=ObjectiveSpec(beta_inv=0.0))
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(3))
    enc1, log = train_perception(rotation_world, enc0, cfg)
    assert enc1.get_flat_params().tobytes() == enc0.get_flat_params().tobytes()
    assert all(t == 0.0 for t in log.totals)


def test_loss_component_accounting(rotation_world):
    cfg = TrainConfig(steps=30, batch_size=32, seed=4, objective=_spec(w_eq=0.0))
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(4), init_scale=4.0)
    _, log = train_perception(rotation_world, enc0, cfg)
    for comps, total in zip(log.components, log.totals):
        assert abs(sum(comps.values()) - total) <= 1e-9


def _former_update(cfg, size):
    """The optimizer steps as the trainer computed them before they moved in
    place: each returns the new parameter vector from the old one."""
    if cfg.optimizer == "sgd":
        return lambda params, grad, t: params - cfg.lr * grad
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    state = {"m": np.zeros(size), "v": np.zeros(size)}

    def adam(params, grad, t):
        state["m"] = b1 * state["m"] + (1 - b1) * grad
        state["v"] = b2 * state["v"] + (1 - b2) * grad * grad
        m_hat = state["m"] / (1 - b1 ** t)
        v_hat = state["v"] / (1 - b2 ** t)
        return params - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
    return adam


@pytest.mark.parametrize("optimizer,lr", [("sgd", 2e-3), ("adam", 3e-3)])
def test_in_place_optimizer_steps_keep_the_former_bits(rotation_world,
                                                       optimizer, lr):
    cfg = TrainConfig(steps=50, batch_size=32, lr=lr, optimizer=optimizer,
                      seed=11, objective=_spec(), sigma_aug=0.8)
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(11), init_scale=4.0)
    enc, log = train_perception(rotation_world, enc0, cfg)

    (data_rng,) = Rng(cfg.seed).split(1)
    ref = enc0.copy()
    update = _former_update(cfg, ref.n_params)
    totals = []
    for t in range(1, cfg.steps + 1):
        batch = sample_batch(rotation_world, cfg.batch_size, data_rng,
                             sigma=cfg.sigma_aug,
                             with_labels=False)
        total, grad, _ = perc_loss(ref, batch, cfg.objective)
        totals.append(total)
        ref.set_flat_params(update(ref.get_flat_params(), grad, t))
    assert log.totals == totals
    assert enc.get_flat_params().tobytes() == ref.get_flat_params().tobytes()
    assert enc.mutation_count == cfg.steps


def test_training_reduces_invariance_loss_10x(rotation_world):
    # regression baseline recorded at the first green build (seed 0)
    enc0 = make_encoder("mlp1", 2, 4, 32, Rng(0), init_scale=4.0)
    cfg = TrainConfig(steps=2000, batch_size=256, lr=3e-3, optimizer="adam",
                      seed=0, objective=_spec(), sigma_aug=0.8)
    _, log = train_perception(rotation_world, enc0, cfg)
    assert log.components[-1]["inv"] <= 0.1 * log.components[0]["inv"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_diagnostics(rotation_world):
    cfg = TrainConfig(steps=200, batch_size=16, lr=1e30, optimizer="sgd",
                      seed=5, objective=ObjectiveSpec(beta_inv=0.0, w_cov=1.0,
                                                      w_var=1.0, gamma=1.0))
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(5), init_scale=4.0)
    with pytest.raises(DivergenceError):
        train_perception(rotation_world, enc0, cfg)


def test_snapshot_callback_invoked(rotation_world):
    seen = []
    cfg = TrainConfig(steps=10, batch_size=8, seed=6, objective=_spec(),
                      eval_every=5)
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(6))
    _, log = train_perception(rotation_world, enc0, cfg,
                              snapshot_fn=lambda step, enc: seen.append(step) or step)
    assert seen == [5, 10]
    assert log.snapshots == [(5, 5), (10, 10)]


def test_trainlog_csv_format(tmp_path, rotation_world):
    cfg = TrainConfig(steps=5, batch_size=8, seed=7, objective=_spec())
    enc0 = make_encoder("mlp1", 2, 3, 8, Rng(7))
    _, log = train_perception(rotation_world, enc0, cfg)
    path = tmp_path / "trainlog.csv"
    log.write_csv(path, config_hash="deadbeef", seed=7)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef seed=7"
    assert lines[1] == "step,inv,nce,var,cov,eq,total"
    assert len(lines) == 2 + 5
    row = lines[2].split(",")
    comps = [float(c) for c in row[1:6]]
    assert abs(sum(comps) - float(row[6])) <= 1e-9


# ---------------------------------------------------------------------------
# decision heads and the separation contract
# ---------------------------------------------------------------------------

def test_head_training_never_mutates_encoder(bernoulli_world):
    enc = make_encoder("mlp1", 2, 3, 8, Rng(8))
    before = enc.get_flat_params().tobytes()
    for seed in range(5):
        train_head(enc, bernoulli_world, Rng(seed), label_budget=512)
    assert enc.get_flat_params().tobytes() == before
    assert enc.mutation_count == 0


def test_head_on_full_code_is_accurate(bernoulli_world):
    head = train_head(identity_encoder(2), bernoulli_world, Rng(9),
                      label_budget=4096)
    x, y = bernoulli_world.sample_xy(Rng(10), 4096)
    acc = float(np.mean(head.predict(identity_encoder(2).forward(x)) == y))
    assert acc >= 0.99


def test_head_on_invariant_code_is_chance(bernoulli_world):
    enc = Encoder("linear", np.array([[1.0, 0.0]]), np.zeros(1))  # z = U
    head = train_head(enc, bernoulli_world, Rng(11), label_budget=8192)
    x, y = bernoulli_world.sample_xy(Rng(12), 4096)
    acc = float(np.mean(head.predict(enc.forward(x)) == y))
    assert 0.45 <= acc <= 0.55


def test_head_requires_labels_and_budget(rotation_world, rng):
    enc = identity_encoder(2)
    with pytest.raises(ContractViolation):
        train_head(enc, rotation_world, rng, label_budget=1)
