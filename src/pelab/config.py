"""Experiment configuration: a documented key=value text schema.

Unknown keys are rejected with the offending line number; every run echoes
the fully resolved configuration and stamps its hash into all outputs.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import operator

import numpy as np

from .errors import ConfigurationError
from .metrics import MetricSuiteOptions
from .numerics import ARCH_LINEAR, ARCH_MLP1
from .objectives import ObjectiveSpec
from .theory import SCENARIOS
from .trainer import TrainConfig
from .worlds import WORLD_BUILDERS


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


# rules for the keys that no built object checks: (key, relation, bound); a
# bound naming a key stands for its value, and lists are checked item by item.
# A binning key needs two cells to tell any two codes apart.  A name must be
# one the program knows, so a typo fails with its line before any work.
_RULES = (
    ("seed", ">=", 0),
    ("world.kind", "one of", tuple(WORLD_BUILDERS)),
    ("world.r_min", ">=", 0),
    ("world.r_min", "<=", "world.r_max"),
    ("world.sigma", ">", 0),
    ("world.r_min", "finite", None),
    ("world.r_max", "finite", None),
    ("world.radius_values", "finite", None),
    ("world.center_x", "finite", None),
    ("world.center_y", "finite", None),
    ("world.sigma", "finite", None),
    ("encoder.arch", "one of", (ARCH_LINEAR, ARCH_MLP1)),
    ("encoder.d_hidden", ">=", 1),
    ("encoder.d_z", ">=", 1),
    ("encoder.init_scale", ">=", 0),
    ("encoder.init_scale", "finite", None),
    ("metrics.n", ">=", 1),
    ("metrics.curve_points", ">=", 1),
    ("metrics.curve_alpha_max", ">", 0),
    ("metrics.curve_alpha_max", "finite", None),
    ("metrics.mi_bins", ">=", 2),
    ("metrics.probe_budgets", ">=", 2),
    ("metrics.probe_pool", ">=", "metrics.probe_budgets"),
    ("theory.scenario", "one of", ("",) + SCENARIOS),
    ("theory.n", ">=", 2),
    ("theory.resolution", ">=", 2),
)
_RELATIONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
              "finite": lambda v, _: math.isfinite(v),
              "one of": lambda v, names: v in names}


def _items(value) -> tuple:   # a list value's items, or a scalar alone
    return value if isinstance(value, tuple) else (value,)


@functools.cache
def _parameter_names(build) -> tuple:
    """The parameter names of a builder (of its ``__init__``, for a class),
    read once per process: in-process callers parse many configs."""
    return tuple(inspect.signature(build).parameters)


class ExperimentConfig:
    """Typed view over a parsed key=value file with schema defaults; ``where``
    maps each key set in it to its ``<file>:<line>`` or flag.  Construction
    checks every rule, then builds the world and the other sections."""

    def __init__(self, values: dict, where: dict, source: str):
        self.values, self.where, self.source = values, where, source
        for key, relation, bound in _RULES:
            named = isinstance(bound, str)
            limit = self[bound] if named else bound
            if not all(_RELATIONS[relation](v, b) for v in _items(self[key])
                       for b in (_items(limit) if named else (limit,))):
                at = where.get(key) or where.get(bound, source)
                shown = f"{bound} = {limit}" if named else bound
                rule = relation if bound is None else f"{relation} {shown}"
                raise ConfigurationError(f"{at}: {key} must be {rule}, "
                                         f"got {self[key]!r}")
        self.world = self.section("world", WORLD_BUILDERS[self["world.kind"]])
        if self["objective.w_eq"] > 0:
            self._check_equivariance_target()
        self.objective = self.section("objective", ObjectiveSpec)
        self.train = self.section(
            "train", TrainConfig, steps=max(1, self["train.steps"]),
            seed=self["seed"], objective=self.objective)
        self.metrics = self.section("metrics", MetricSuiteOptions,
                                    gamma=self["objective.gamma"])

    def __getitem__(self, key: str):
        if key in self.values:
            return self.values[key]
        return SCHEMA[key][1]

    def _check_equivariance_target(self):
        """The equivariance term maps codes by the world's rho matrices, so
        the world's transform family must declare rho, of size d_z."""
        family = self.world.transforms
        if family.rho is None:
            need = (f"a transform family with rho; world.kind = "
                    f"{self['world.kind']} has none")
        elif (size := family.rho(0.0).shape[0]) != self["encoder.d_z"]:
            need = (f"encoder.d_z = {size}, the size of rho, "
                    f"got {self['encoder.d_z']}")
        else:
            return
        raise ConfigurationError(
            f"{self.where.get('objective.w_eq', self.source)}: "
            f"objective.w_eq > 0 needs {need}")

    def section(self, prefix: str, build, **extra):
        """``build`` called with the ``prefix.*`` keys named like its parameters
        and ``extra``; an error opening with a parameter gets that key's line."""
        kwargs = {name: self[f"{prefix}.{name}"] for name in
                  _parameter_names(build) if f"{prefix}.{name}" in SCHEMA}
        try:
            return build(**{**kwargs, **extra})
        except ConfigurationError as exc:
            key = f"{prefix}.{str(exc).split(' ', 1)[0]}"
            raise ConfigurationError(
                f"{self.where.get(key, self.source)}: {prefix}.{exc}") from None

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


def parse_config_text(text: str, source: str = "<config>",
                      seed=None) -> ExperimentConfig:
    """The config in ``text``; a ``seed`` (the ``--seed`` flag) replaces the
    file's."""
    values, where = {}, {}
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
        values[key] = parsed
        where[key] = f"{source}:{lineno}"
    if seed is not None:
        values["seed"], where["seed"] = seed, "--seed"
    return ExperimentConfig(values, where, source)


def load_config(path, seed=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read config: {exc}") from None
    return parse_config_text(text, source=str(path), seed=seed)


def schema_help() -> str:
    lines = ["# experiment config schema: 'key = value' lines, '#' comments",
             "# unknown keys are rejected\n"]
    for key, (typ, default, help_text) in SCHEMA.items():
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"{key:28s} ({typ:6s}) default={default!r:24} {help_text}")
    return "\n".join(lines) + "\n"
