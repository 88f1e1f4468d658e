"""Experiment configuration: a documented key=value text schema.

Unknown keys are rejected with the offending line number; every run echoes
the fully resolved configuration and stamps its hash into all outputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigurationError
from .objectives import ObjectiveSpec
from .trainer import TrainConfig
from .worlds import make_bernoulli_uv_world, make_rotation_world, make_six_nine_world


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str):
    return tuple(float(p) for p in text.replace(",", " ").split())


def _parse_int_list(text: str):
    items = tuple(int(p) for p in text.replace(",", " ").split())
    if not items:   # the only int list is probe budgets, which needs one
        raise ValueError("expected at least one value")
    return items


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "floats": _parse_float_list,
    "ints": _parse_int_list,
}

# key -> (type, default, help)
SCHEMA = {
    "seed": ("int", 0, "root seed; --seed overrides"),
    "world.kind": ("str", "rotation", "rotation | bernoulli_uv | six_nine"),
    "world.r_min": ("float", 0.5, "rotation world: smallest radius"),
    "world.r_max": ("float", 1.5, "rotation world: largest radius"),
    "world.radius_values": ("floats", (), "rotation world: discrete radii "
                                          "(overrides r_min/r_max when set)"),
    "world.center_x": ("float", 3.0, "six_nine world: cluster center x"),
    "world.center_y": ("float", 0.0, "six_nine world: cluster center y"),
    "world.sigma": ("float", 0.5, "six_nine world: cluster spread"),
    "encoder.arch": ("str", "mlp1", "linear | mlp1"),
    "encoder.d_hidden": ("int", 32, "hidden width (mlp1 only)"),
    "encoder.d_z": ("int", 4, "code dimension"),
    "encoder.init_scale": ("float", 1.0, "weight init scale"),
    "train.steps": ("int", 0, "perception training steps (0: skip training)"),
    "train.batch_size": ("int", 256, "view pairs per step"),
    "train.lr": ("float", 1e-3, "learning rate"),
    "train.optimizer": ("str", "adam", "sgd | adam"),
    "train.adam_beta1": ("float", 0.9, "adam first-moment decay"),
    "train.adam_beta2": ("float", 0.999, "adam second-moment decay"),
    "train.adam_eps": ("float", 1e-8, "adam epsilon"),
    "train.sigma_aug": ("float", 0.5, "stddev of the Gaussian view sampler"),
    "train.eval_every": ("int", 0, "metric snapshot period (0: never)"),
    "objective.beta_inv": ("float", 1.0, "invariance weight"),
    "objective.use_nce": ("bool", False, "enable the contrastive term"),
    "objective.tau": ("float", 0.5, "contrastive temperature"),
    "objective.sim": ("str", "cosine", "dot | cosine"),
    "objective.symmetric_nce": ("bool", True, "average both directions"),
    "objective.gamma": ("float", 1.0, "variance floor"),
    "objective.w_var": ("float", 0.0, "variance-floor weight"),
    "objective.w_cov": ("float", 0.0, "covariance-penalty weight"),
    "objective.w_eq": ("float", 0.0, "equivariance weight"),
    "metrics.enabled": ("bool", True, "run the certification suite"),
    "metrics.n": ("int", 10000, "samples per metric"),
    "metrics.curve_points": ("int", 33, "invariance-curve grid size"),
    "metrics.curve_alpha_max": ("float", float(np.pi), "curve grid maximum"),
    "metrics.mi_bins": ("int", 8, "quantile bins for MI estimators"),
    "metrics.probe_budgets": ("ints", (64, 256, 1024), "label budgets"),
    "metrics.probe_pool": ("int", 4096, "labeled pool for probe efficiency"),
    "metrics.probe_efficiency": ("bool", True, "run the secondary probe metric"),
    "theory.risk_table": ("bool", False, "compute the counterexample risk table"),
    "theory.assumption_audit": ("bool", False, "audit assumptions on the world"),
    "theory.two_stage": ("bool", False, "two-stage optimality check"),
    "theory.scenario": ("str", "", "verify-theory scenario: "
                                   "orthogonality_rotation | "
                                   "over_invariance_bernoulli | merged_orbits"),
    "theory.n": ("int", 4096, "samples for theory checks"),
    "theory.resolution": ("int", 64, "code-histogram cells per dimension"),
    "assert.risk_table_exact": ("bool", False,
                                "assert the (0, 0, 1/2) risk table exactly"),
    "assert.auc_ratio_max": ("float", float("nan"),
                             "assert trained/untrained invariance-AUC ratio "
                             "is at most this (nan: disabled)"),
}


# lower bounds of the keys whose smaller values no command can run with
_MINIMUM = {"seed": 0, "encoder.d_z": 1, "metrics.curve_points": 1}


def _checked(key: str, value, where: str):
    """``value`` if ``key`` accepts it; ``where`` names the line or flag."""
    if key in _MINIMUM and value < _MINIMUM[key]:
        raise ConfigurationError(
            f"{where}: {key} must be >= {_MINIMUM[key]}, got {value}")
    return value


class ExperimentConfig:
    """Typed view over a parsed key=value file with schema defaults."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key: str):
        if key in self.values:
            return self.values[key]
        return SCHEMA[key][1]

    def with_override(self, key: str, value,
                      where: str = "override") -> "ExperimentConfig":
        out = dict(self.values)
        out[key] = _checked(key, value, where)
        return ExperimentConfig(out)

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(SCHEMA):
            val = self[key]
            if isinstance(val, tuple):
                rendered = ",".join(repr(v) for v in val)
            elif isinstance(val, float):
                rendered = repr(val)
            else:
                rendered = str(val)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    # -- factories ----------------------------------------------------------
    def build_world(self):
        kind = self["world.kind"]
        if kind == "rotation":
            radii = self["world.radius_values"]
            return make_rotation_world(
                r_min=self["world.r_min"], r_max=self["world.r_max"],
                radius_values=radii if radii else None)
        if kind == "bernoulli_uv":
            return make_bernoulli_uv_world()
        if kind == "six_nine":
            return make_six_nine_world(
                center=(self["world.center_x"], self["world.center_y"]),
                sigma=self["world.sigma"])
        raise ConfigurationError(f"unknown world kind {kind!r}")

    def build_objective(self) -> ObjectiveSpec:
        return ObjectiveSpec(
            beta_inv=self["objective.beta_inv"],
            use_nce=self["objective.use_nce"],
            tau=self["objective.tau"],
            gamma=self["objective.gamma"],
            w_var=self["objective.w_var"],
            w_cov=self["objective.w_cov"],
            w_eq=self["objective.w_eq"],
            sim=self["objective.sim"],
            symmetric_nce=self["objective.symmetric_nce"])

    def build_train_config(self) -> TrainConfig:
        return TrainConfig(
            steps=max(1, self["train.steps"]),
            batch_size=self["train.batch_size"],
            lr=self["train.lr"],
            optimizer=self["train.optimizer"],
            adam_beta1=self["train.adam_beta1"],
            adam_beta2=self["train.adam_beta2"],
            adam_eps=self["train.adam_eps"],
            seed=self["seed"],
            objective=self.build_objective(),
            eval_every=self["train.eval_every"],
            sigma_aug=self["train.sigma_aug"])


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigurationError(f"{source}:{lineno}: unknown key {key!r}")
        typ = SCHEMA[key][0]
        try:
            parsed = _PARSERS[typ](val)
        except ValueError as exc:
            raise ConfigurationError(
                f"{source}:{lineno}: bad {typ} value for {key}: {exc}") from None
        values[key] = _checked(key, parsed, f"{source}:{lineno}")
    return ExperimentConfig(values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read config: {exc}") from None
    return parse_config_text(text, source=str(path))


def schema_help() -> str:
    lines = ["# experiment config schema: 'key = value' lines, '#' comments",
             "# unknown keys are rejected\n"]
    for key, (typ, default, help_text) in SCHEMA.items():
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"{key:28s} ({typ:6s}) default={default!r:24} {help_text}")
    return "\n".join(lines) + "\n"
