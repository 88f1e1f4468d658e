"""Optimization loops enforcing the perception/decision separation.

Perception training touches only encoder parameters and only through the
label-free composite loss (batches are drawn without their label column, so
no code path from task labels into the encoder exists).  Decision heads are
trained on frozen codes; every head-training call audits that the encoder's
parameters were not mutated, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation, DivergenceError
from .numerics import Encoder, Rng
from .objectives import ObjectiveSpec, perc_loss
from .probes import LinearHead, fit_linear_probe
from .worlds import World, sample_batch

LOSS_COLUMNS = ("inv", "nce", "var", "cov", "eq")


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 256
    lr: float = 1e-3
    optimizer: str = "adam"          # sgd | adam
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    eval_every: int = 0              # 0: no snapshots
    sigma_aug: float = 0.5           # stddev of the Gaussian view sampler

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        # InfoNCE needs a negative and the variance and covariance terms a
        # spread, so each needs two pairs per batch
        spec, least = self.objective, 1
        if spec.use_nce or spec.w_var > 0 or spec.w_cov > 0:
            least = 2
        if self.batch_size < least:
            raise ConfigurationError(
                f"batch_size must be >= {least}, got {self.batch_size}")
        # lr == 0 is allowed: it is the no-op determinism check
        if not np.isfinite(self.lr) or self.lr < 0:
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(
                f"optimizer must be sgd or adam, got {self.optimizer!r}")
        # a beta of 1 leaves Adam's bias correction 1 - beta^t at 0
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {beta}")
        if not self.adam_eps > 0:
            raise ConfigurationError(
                f"adam_eps must be > 0, got {self.adam_eps}")
        if not np.isfinite(self.sigma_aug) or self.sigma_aug < 0:
            raise ConfigurationError(
                f"sigma_aug must be finite and >= 0, got {self.sigma_aug}")
        if self.eval_every < 0:
            raise ConfigurationError(f"eval_every must be >= 0, got {self.eval_every}")


@dataclass
class TrainLog:
    steps: list = field(default_factory=list)
    components: list = field(default_factory=list)   # dict per step
    totals: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)    # (step, payload)

    def append(self, step: int, comps: dict, total: float):
        self.steps.append(step)
        self.components.append(comps)
        self.totals.append(total)

    def write_csv(self, path, config_hash: str = "", seed: int = 0):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# config_hash={config_hash} seed={seed}\n")
            fh.write("step," + ",".join(LOSS_COLUMNS) + ",total\n")
            for step, comps, total in zip(self.steps, self.components, self.totals):
                vals = [repr(float(comps.get(c, 0.0))) for c in LOSS_COLUMNS]
                fh.write(f"{step}," + ",".join(vals) + f",{repr(float(total))}\n")


class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, grad):
        """The parameter change for one gradient."""
        return -self.lr * grad


class _Adam:
    def __init__(self, lr, beta1, beta2, eps, size):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad):
        """The parameter change for one gradient; the moments update in
        place."""
        self.t += 1
        self.m *= self.b1
        self.m += (1 - self.b1) * grad
        self.v *= self.b2
        self.v += (1 - self.b2) * grad * grad
        denom = np.sqrt(self.v / (1 - self.b2 ** self.t)) + self.eps
        return -self.lr * (self.m / (1 - self.b1 ** self.t)) / denom


def _make_optimizer(cfg: TrainConfig, size: int):
    if cfg.optimizer == "sgd":
        return _Sgd(cfg.lr)
    return _Adam(cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, size)


def train_perception(world: World, enc_init: Encoder, cfg: TrainConfig,
                     snapshot_fn=None) -> tuple[Encoder, TrainLog]:
    """Minimize the composite perception loss on label-free view pairs.

    Deterministic given cfg.seed.  ``snapshot_fn(step, enc)`` is called every
    ``eval_every`` steps (when set) and its return value is logged; this is
    how callers attach metric snapshots without labels entering this path.
    """
    enc = enc_init.copy()
    rng = Rng(cfg.seed)
    (data_rng,) = rng.split(1)
    opt = _make_optimizer(cfg, enc.n_params)
    log = TrainLog()

    for step in range(1, cfg.steps + 1):
        batch = sample_batch(world, cfg.batch_size, data_rng,
                             sigma=cfg.sigma_aug, with_labels=False)
        total, grad, comps = perc_loss(enc, batch, cfg.objective,
                                       rho_source=world.transforms)
        if not np.isfinite(total) or not np.all(np.isfinite(grad)):
            raise DivergenceError(
                f"non-finite loss at step {step}: total={total!r}, "
                f"components={comps!r}")
        log.append(step, comps, total)
        enc.add_to_params(opt.step(grad))
        if snapshot_fn is not None and cfg.eval_every > 0 \
                and step % cfg.eval_every == 0:
            log.snapshots.append((step, snapshot_fn(step, enc)))
    return enc, log


def train_head(frozen_enc, world: World, rng: Rng, label_budget: int,
               **probe_kw) -> LinearHead:
    """Train a linear-softmax decision head on frozen codes.

    The encoder is audited: its flat parameters must be bitwise identical
    before and after, and its mutation counter must not advance.
    """
    if label_budget < 2:
        raise ContractViolation("label budget must be >= 2")
    if world.label_fn is None:
        raise ContractViolation(f"world {world.name!r} exposes no labels")
    params_before = frozen_enc.get_flat_params().tobytes()
    mutations_before = frozen_enc.mutation_count

    x = world.sample_x(rng, label_budget)
    y = world.label_fn(x)
    z = frozen_enc.forward(x)
    head = fit_linear_probe(z, y, rng, **probe_kw)

    if frozen_enc.get_flat_params().tobytes() != params_before \
            or frozen_enc.mutation_count != mutations_before:
        raise ContractViolation(
            "separation violated: encoder parameters changed during head training")
    return head
