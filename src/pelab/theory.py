"""Numerical verification of the perception/decision separation theory.

Contents: exact Bayes-risk oracles over enumerable (or finely discretized)
joint laws, the encoder family that factors through the orbit statistic, the
orthogonality check for perception updates against the Bayes-risk gradient,
the over-invariance counterexamples, the two-stage optimality check, and the
assumption audit.

Every joint law (of inputs, discretized inputs or orbit values) is a
``worlds.Atoms``.  F prices the Bayes act per cell: distinct codes
(``infotheory.rows_as_codes``) for exact laws, quantile histograms
(``infotheory.discretize_codes``) for samples; its gradient is
``numerics.finite_diff``.

Conventions: log-loss is reported in bits, so the log-loss Bayes risk equals
the conditional entropy H(Y | representation) in bits.  Zero-one loss is also
provided for the counterexample risk table but is not strictly proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import infotheory as it
from .errors import ContractViolation
from .numerics import Encoder, Rng, as_samples, finite_diff, param_gradient
from .objectives import (covariance_penalty_value_grad, infonce_value_grad,
                         invariance_value_grad, variance_floor_value_grad)
from .probes import LinearHead
from .worlds import (World, make_bernoulli_uv_world, make_rotation_world,
                     sample_batch)

LOSS_ZERO_ONE = "zero_one"
LOSS_LOG = "log"


def _posterior_loss(posteriors: np.ndarray, loss: str) -> np.ndarray:
    """Bayes-act loss per posterior row: zero-one error of the argmax, or
    the entropy in bits for log-loss."""
    if loss == LOSS_ZERO_ONE:
        return 1.0 - posteriors.max(axis=1)
    if loss == LOSS_LOG:
        mask = posteriors > 0
        logs = np.log2(np.where(mask, posteriors, 1.0))
        # subtracting from +0.0, not negating, keeps a one-hot row at +0.0
        out = np.zeros(posteriors.shape[0])
        out -= np.sum(np.where(mask, posteriors * logs, 0.0), axis=1)
        return out
    raise ContractViolation(f"unknown loss {loss!r}")


def risk_of_cells(cells: np.ndarray, weights: np.ndarray,
                  posteriors: np.ndarray, loss: str) -> float:
    """Bayes risk when deciding from the cell id only: aggregate the joint
    law per cell, form the cell posterior, and price the Bayes act."""
    cells = np.asarray(cells, dtype=np.int64)
    k = int(cells.max()) + 1
    w_cell = np.zeros(k)
    np.add.at(w_cell, cells, weights)
    post_cell = np.zeros((k, posteriors.shape[1]))
    np.add.at(post_cell, cells, weights[:, None] * posteriors)
    nonzero = w_cell > 0
    post_cell[nonzero] /= w_cell[nonzero, None]
    losses = _posterior_loss(post_cell[nonzero], loss)
    return float(np.sum(w_cell[nonzero] * losses))


def _world_atoms(world: World, resolution: int | None):
    if world.atoms is not None:
        return world.atoms()
    if world.discretized_atoms is None:
        raise ContractViolation(f"world {world.name!r} has no joint-law access")
    if resolution is None:
        raise ContractViolation(
            "continuous world: a discretization resolution is required")
    return world.discretized_atoms(resolution)


def bayes_risk(world: World, representation, loss: str,
               resolution: int | None = None, cell_tol: float = 1e-9) -> float:
    """Exact Bayes risk of predicting Y from a representation of X.

    ``representation`` is one of "full" (X itself), "good"/"bad" (the causal
    and the group-invariant coordinate of the two-bit world), or an encoder
    whose codes are grouped to within ``cell_tol``.
    """
    atoms = _world_atoms(world, resolution)
    if not isinstance(representation, str):
        codes = representation.forward(atoms.x)
    elif representation == "full":
        codes = atoms.x
    elif representation in ("good", "bad"):
        if world.name != "bernoulli_uv":
            raise ContractViolation(
                "good/bad representations are defined on the two-bit world")
        codes = atoms.x[:, 1 if representation == "good" else 0]
    else:
        raise ContractViolation(f"unknown representation {representation!r}")
    return risk_of_cells(it.rows_as_codes(codes, cell_tol), atoms.weight,
                         atoms.posterior, loss)


# ---------------------------------------------------------------------------
# Task risk of concrete heads
# ---------------------------------------------------------------------------

def task_risk(enc, head: LinearHead, world: World, loss: str,
              n: int, rng: Rng) -> float:
    """Monte Carlo estimate of the population task risk of head(enc(x))."""
    x = world.sample_x(rng, n)
    y = world.label_fn(x)
    proba = head.predict_proba(enc.forward(x))
    y_idx = np.searchsorted(head.classes, y)
    if loss == LOSS_ZERO_ONE:
        return float(np.mean(np.argmax(proba, axis=1) != y_idx))
    if loss == LOSS_LOG:
        p = np.clip(proba[np.arange(n), y_idx], 1e-300, None)
        return float(-np.mean(np.log2(p)))
    raise ContractViolation(f"unknown loss {loss!r}")


# ---------------------------------------------------------------------------
# Bayes risk through an encoder: F(phi)
# ---------------------------------------------------------------------------

def empirical_bayes_risk(codes: np.ndarray, labels: np.ndarray, loss: str,
                         resolution: int, n_classes: int) -> float:
    """Histogram-posterior estimate of inf_head risk from sampled codes.

    Cells are per-dimension quantile histograms over the sample; a constant
    dimension is one bin, so it leaves the cells unchanged."""
    codes = as_samples(codes)
    cells = it.discretize_codes(codes, n_bins=resolution,
                                max_dims=codes.shape[1])
    labels = np.asarray(labels, dtype=np.int64)
    w = np.full(labels.size, 1.0 / labels.size)
    return risk_of_cells(cells, w, np.eye(n_classes)[labels], loss)


def bayes_risk_through_encoder(enc, world: World, loss: str,
                               resolution: int = 64, n: int = 4096,
                               rng: Rng | None = None,
                               cell_tol: float = 1e-9) -> float:
    """F(phi) = inf over heads of the task risk when deciding from enc(X).

    Exact (joint-law enumeration, distinct-code cells) for discrete worlds;
    sampled histogram posteriors over quantile cells otherwise.
    """
    if world.atoms is not None:
        return bayes_risk(world, enc, loss, cell_tol=cell_tol)
    if rng is None:
        raise ContractViolation("sampled F(phi) requires an rng")
    x = world.sample_x(rng, n)
    y = world.label_fn(x)
    return empirical_bayes_risk(enc.forward(x), y, loss, resolution,
                                world.n_classes)


# ---------------------------------------------------------------------------
# Factor-through-T encoder family
# ---------------------------------------------------------------------------

class FactorThroughTFamily:
    """Encoders of the form f(x) = h(pi(x)): an inner map over the orbit
    statistic, so every parameter direction stays inside the flat manifold
    of the orthogonality theorem as long as h remains injective.

    Duck-types the encoder read interface (forward / flat params), so heads
    and metrics can consume it directly.
    """

    def __init__(self, world: World, inner: Encoder):
        if world.orbit_map is None:
            raise ContractViolation("factor-through family needs an orbit map")
        self.world = world
        self.inner = inner

    # -- encoder interface --------------------------------------------------
    def t_columns(self, x: np.ndarray) -> np.ndarray:
        return as_samples(self.world.orbit_map(x))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.inner.forward(self.t_columns(x))

    def codes_of_t(self, t: np.ndarray) -> np.ndarray:
        return self.inner.forward(as_samples(t))

    def get_flat_params(self) -> np.ndarray:
        return self.inner.get_flat_params()

    def set_flat_params(self, flat) -> None:
        self.inner.set_flat_params(flat)

    @property
    def mutation_count(self) -> int:
        return self.inner.mutation_count

    def injectivity_witness(self, t_sample: np.ndarray, in_gap: float = 1e-3,
                            out_tol: float = 1e-9) -> dict:
        """Sample-level injectivity of h on range(T): any two orbit values at
        least ``in_gap`` apart must map at least ``out_tol`` apart."""
        t = np.asarray(t_sample, dtype=np.float64).reshape(-1)
        if t.size > 256:
            t = t[np.linspace(0, t.size - 1, 256).astype(int)]
        z = self.codes_of_t(t)
        dt = np.abs(t[:, None] - t[None, :])
        dz = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
        mask = dt >= in_gap
        violations = int(np.sum(dz[mask] < out_tol) // 2)
        min_dz = float(dz[mask].min()) if mask.any() else float("inf")
        return {"ok": violations == 0, "violations": violations,
                "min_code_gap": min_dz}


def factorization_residual(family: FactorThroughTFamily, x: np.ndarray) -> float:
    """max_x ||f(x) - h(pi(x))||; zero by construction, audited anyway."""
    direct = family.forward(x)
    via_t = family.codes_of_t(family.world.orbit_map(x))
    return float(np.max(np.linalg.norm(direct - via_t, axis=1)))


def monotone_scalar_link(rng: Rng | None = None, hidden: int = 3) -> Encoder:
    """A strictly increasing mlp1 link h: R -> R (positive slopes throughout)."""
    if rng is None:
        w1 = np.linspace(0.8, 1.4, hidden)[:, None]
        b1 = np.linspace(-0.9, 0.3, hidden)
        w2 = np.linspace(0.9, 0.5, hidden)[None, :]
    else:
        w1 = rng.uniform(0.5, 1.5, (hidden, 1))
        b1 = rng.uniform(-1.0, 0.5, hidden)
        w2 = rng.uniform(0.3, 1.0, (1, hidden))
    return Encoder("mlp1", w1, b1, w2, np.array([0.1]))


def orbit_merging_link(centers=(0.9, 1.1), sharpness: float = 6.0) -> Encoder:
    """An mlp1 link forming a symmetric bump around the midpoint of
    ``centers``: radii equidistant from the midpoint map to the same code,
    collapsing orbit pairs that straddle the label threshold."""
    a, b = centers
    w1 = np.array([[sharpness], [sharpness]])
    b1 = np.array([-sharpness * a, -sharpness * b])
    w2 = np.array([[1.0, -1.0]])
    return Encoder("mlp1", w1, b1, w2, np.array([0.0]))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass
class TheoryVerdict:
    name: str
    measured: dict
    tolerance: float
    passed: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "tolerance": self.tolerance, "passed": bool(self.passed),
                "diagnostics": self.diagnostics}


# ---------------------------------------------------------------------------
# Orthogonality of perception updates to the Bayes-risk gradient
# ---------------------------------------------------------------------------

def _family_gradient(family: FactorThroughTFamily, world: World, rng: Rng,
                     code_loss, n: int = 512) -> np.ndarray:
    """Analytic gradient of a two-view code loss with respect to the inner
    parameters, on one sampled batch of view pairs."""
    batch = sample_batch(world, n, rng, with_labels=False)
    _, grad = param_gradient(family.inner, code_loss,
                             family.t_columns(batch.x),
                             family.t_columns(batch.x_plus))
    return grad


def _perception_code_loss(z, zp):
    """Contrastive + diversity terms: within the family, a generically
    nonzero perception-update direction that is tangent to the
    factor-through manifold by construction."""
    v1, g1, g1p = infonce_value_grad(z, zp, tau=0.5, sim="dot")
    v2, g2 = variance_floor_value_grad(z, 1.0)
    v3, g3 = covariance_penalty_value_grad(z)
    return v1 + v2 + v3, g1 + g2 + g3, g1p


def orthogonality_check(family: FactorThroughTFamily, world: World,
                        rng: Rng, loss: str = LOSS_ZERO_ONE,
                        n: int = 4096, resolution: int = 64,
                        fd_step: float = 1e-3,
                        t_grid=(-0.05, -0.01, 0.01, 0.05),
                        tol: float = 1e-3,
                        n_random_dirs: int = 3,
                        extra_directions=None,
                        name: str = "orthogonality") -> TheoryVerdict:
    """Verify that F(psi) is flat along perception-update directions.

    Evaluates |D_v F| by central differences and |F(psi + t v) - F(psi)| on a
    step grid, for: the analytic invariance gradient (the theorem's update
    direction), a contrastive+diversity perception gradient, and random
    tangent directions -- all of which stay inside the factor-through family.
    Common random numbers: every F evaluation reuses one frozen sample, and
    exact orbit-atom enumeration is used when the world provides it.

    ``extra_directions`` entries are (label, vector, step_grid) and let the
    violation scenarios drive the same machinery along merging paths.
    """
    rng_data, rng_dirs, rng_ginv, rng_gperc = rng.split(4)

    # frozen evaluation law: exact atoms when available, else one sample
    sampled = world.t_atoms is None
    if not sampled:
        law = world.t_atoms()
        t_eval = law.x

        def risk_at(psi, res=None):   # exact cells: no resolution
            family.set_flat_params(psi)
            cells = it.rows_as_codes(family.codes_of_t(t_eval))
            return risk_of_cells(cells, law.weight, law.posterior, loss)
    else:
        x_eval = world.sample_x(rng_data, n)
        y_eval = world.label_fn(x_eval)
        t_eval = np.asarray(world.orbit_map(x_eval))

        def risk_at(psi, res=resolution):
            family.set_flat_params(psi)
            return empirical_bayes_risk(family.codes_of_t(t_eval), y_eval,
                                        loss, res, world.n_classes)

    psi0 = family.get_flat_params().copy()
    f0 = risk_at(psi0)
    witness0 = family.injectivity_witness(t_eval)

    def dvf_along(unit, res):
        return (risk_at(psi0 + fd_step * unit, res)
                - risk_at(psi0 - fd_step * unit, res)) / (2.0 * fd_step)

    # the invariance gradient is identically zero at exact invariance;
    # it is computed through the real machinery rather than assumed
    g_inv = _family_gradient(family, world, rng_ginv, invariance_value_grad)
    g_perc = _family_gradient(family, world, rng_gperc, _perception_code_loss)
    directions = [("invariance_gradient", g_inv, t_grid),
                  ("perception_gradient", g_perc, t_grid)]
    for i in range(n_random_dirs):
        directions.append((f"random_tangent_{i}",
                           rng_dirs.normal(size=psi0.size), t_grid))
    for label, vec, grid in (extra_directions or []):
        directions.append((label, np.asarray(vec, dtype=np.float64), grid))

    dir_results = {}
    max_abs_dvf = 0.0
    max_abs_df = 0.0
    resolution_shift = 0.0
    witness_ok = witness0["ok"]
    for label, vec, grid in directions:
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            # zero direction (e.g. the invariance gradient at exact
            # invariance): directional derivative is identically zero
            dir_results[label] = {"norm": norm, "dvf": 0.0, "delta_f": {}}
            continue
        unit = vec / norm
        dvf = dvf_along(unit, resolution)
        deltas = {}
        for step in grid:
            f_t = risk_at(psi0 + step * unit)   # leaves psi0 + step * unit set
            wit = family.injectivity_witness(t_eval)
            deltas[repr(float(step))] = {"delta_f": f_t - f0,
                                         "injective": wit["ok"]}
            witness_ok = witness_ok and wit["ok"]
            max_abs_df = max(max_abs_df, abs(f_t - f0))
        max_abs_dvf = max(max_abs_dvf, abs(dvf))
        dir_results[label] = {"norm": norm, "dvf": float(dvf), "delta_f": deltas}
        if sampled:
            # resolution stability of the directional derivative
            resolution_shift = max(
                resolution_shift, abs(dvf_along(unit, 2 * resolution) - dvf))

    # full finite-difference gradient of F, for the cosine diagnostic
    g_f = finite_diff(risk_at, psi0, fd_step)
    family.set_flat_params(psi0)
    g_f_norm = float(np.linalg.norm(g_f))
    g_inv_norm = float(np.linalg.norm(g_inv))
    cosine = None
    if g_f_norm > 10.0 * tol and g_inv_norm > 1e-12:
        cosine = float(np.dot(g_f, g_inv) / (g_f_norm * g_inv_norm))

    passed = (max_abs_dvf <= tol) and (max_abs_df <= tol) and witness_ok
    return TheoryVerdict(
        name=name,
        measured={"max_abs_directional_derivative": float(max_abs_dvf),
                  "max_abs_delta_f": float(max_abs_df),
                  "f_at_start": float(f0),
                  "risk_increase": float(max_abs_df)},
        tolerance=tol,
        passed=passed,
        diagnostics={"directions": dir_results,
                     "injectivity_ok": bool(witness_ok),
                     "witness_at_start": witness0,
                     "grad_f_norm": g_f_norm,
                     "grad_inv_norm": g_inv_norm,
                     "cosine_gF_gInv": cosine,
                     "resolution_shift_of_dvf": float(resolution_shift),
                     "loss": loss})


def over_invariance_check(world: World, rng: Rng,
                          steps: int = 400, lr: float = 0.5,
                          n: int = 1024, tol: float = 1e-3,
                          name: str = "over_invariance") -> TheoryVerdict:
    """Follow the invariance gradient on a world whose label is NOT
    group-invariant and measure the Bayes-risk change end to end.

    Starts from an injective linear code of the two-bit world (F = 0),
    descends the invariance loss to its minimum (codes merge across the
    group that flips the label bit), and re-evaluates F exactly.  The
    verdict fails -- correctly -- whenever the risk increases beyond tol.
    """
    enc = Encoder("linear", np.array([[1.0, 2.0]]), np.zeros(1))
    f_start = bayes_risk_through_encoder(enc, world, LOSS_ZERO_ONE)
    batch = sample_batch(world, n, rng, with_labels=False)
    first_linv = None
    for _ in range(steps):
        linv, grad = param_gradient(enc, invariance_value_grad,
                                    batch.x, batch.x_plus)
        if first_linv is None:
            first_linv = linv
        enc.add_to_params(-lr * grad)
    f_end = bayes_risk_through_encoder(enc, world, LOSS_ZERO_ONE)
    increase = f_end - f_start
    return TheoryVerdict(
        name=name,
        measured={"f_start": float(f_start), "f_end": float(f_end),
                  "risk_increase": float(increase),
                  "invariance_loss_final": float(linv)},
        tolerance=tol,
        passed=bool(increase <= tol),
        diagnostics={"a1_invariant": world.a1_invariant,
                     "invariance_loss_initial": float(first_linv),
                     "descent_steps": steps})


def two_stage_check(world: World, enc, rng: Rng, n_train: int = 4096,
                    n_eval: int = 4096, gap_tol: float = 0.03,
                    resolution: int = 256,
                    name: str = "two_stage") -> TheoryVerdict:
    """Train a decision head on frozen codes and compare its held-out
    zero-one risk to the Bayes risk of the full input."""
    from .trainer import train_head  # local import: trainer builds on theory-free modules
    head = train_head(enc, world, rng, label_budget=n_train)
    risk = task_risk(enc, head, world, LOSS_ZERO_ONE, n_eval, rng)
    bayes = bayes_risk(world, "full", LOSS_ZERO_ONE, resolution=resolution)
    return TheoryVerdict(
        name=name,
        measured={"head_risk": float(risk), "bayes_risk_full": float(bayes),
                  "gap": float(risk - bayes)},
        tolerance=gap_tol,
        passed=bool(risk <= bayes + gap_tol),
        diagnostics={"n_train": n_train, "n_eval": n_eval})


# ---------------------------------------------------------------------------
# Counterexample risk table and scenario driver
# ---------------------------------------------------------------------------

def risk_table(world: World) -> dict:
    """Bayes risks of the full/good/bad representations of the two-bit world
    under zero-one loss, plus the conditional entropies under log-loss."""
    return {
        "zero_one": {rep: bayes_risk(world, rep, LOSS_ZERO_ONE)
                     for rep in ("full", "good", "bad")},
        "log_bits": {rep: bayes_risk(world, rep, LOSS_LOG)
                     for rep in ("full", "good", "bad")},
    }


def risk_table_verdict(world: World, tol: float = 1e-12) -> TheoryVerdict:
    """Assert the (0, 0, 1/2) zero-one risks and the (0, 0, 1) bit
    conditional entropies, exactly."""
    table = risk_table(world)
    zo, lg = table["zero_one"], table["log_bits"]
    checks = {
        "zero_one_full": abs(zo["full"]) <= tol,
        "zero_one_good": abs(zo["good"]) <= tol,
        "zero_one_bad": abs(zo["bad"] - 0.5) <= tol,
        "h_y_given_v_bits": abs(lg["good"]) <= tol,
        "h_y_given_u_bits": abs(lg["bad"] - 1.0) <= tol,
    }
    return TheoryVerdict(
        name="counterexample_risk_table",
        measured={"zero_one": zo, "log_bits": lg},
        tolerance=tol,
        passed=all(checks.values()),
        diagnostics={"checks": checks})


SCENARIOS = ("orthogonality_rotation", "over_invariance_bernoulli",
             "merged_orbits")
_MERGE_RADII = (0.6, 0.9, 1.1, 1.4)


def run_scenario(name: str, seed: int, n: int = 4096, resolution: int = 64):
    """Drive one theory scenario end to end.

    Returns (verdict, expected_pass, ok): ``ok`` means the observed outcome
    matches the scenario's expectation -- the theorem regime must pass, and
    both violation constructions must fail with a material risk increase.
    """
    rng = Rng(seed)
    if name == "orthogonality_rotation":
        world = make_rotation_world()
        family = FactorThroughTFamily(world, monotone_scalar_link())
        verdict = orthogonality_check(family, world, rng, n=n,
                                      resolution=resolution, name=name)
        expected_pass = True
    elif name == "merged_orbits":
        world = make_rotation_world(radius_values=_MERGE_RADII)
        family = FactorThroughTFamily(world, monotone_scalar_link(hidden=2))
        target = orbit_merging_link().get_flat_params()
        direction = target - family.get_flat_params()
        span = float(np.linalg.norm(direction))
        verdict = orthogonality_check(
            family, world, rng, n=n, resolution=resolution, name=name,
            extra_directions=[("orbit_merge", direction, (0.5 * span, span))])
        expected_pass = False
    elif name == "over_invariance_bernoulli":
        world = make_bernoulli_uv_world()
        verdict = over_invariance_check(world, rng, name=name)
        expected_pass = False
    else:
        raise ContractViolation(f"unknown theory scenario {name!r}; "
                                f"choose from {SCENARIOS}")
    if expected_pass:
        ok = verdict.passed
    else:
        ok = (not verdict.passed) and \
            verdict.measured.get("risk_increase", 0.0) >= 0.1
    return verdict, expected_pass, ok


# ---------------------------------------------------------------------------
# Assumption audit
# ---------------------------------------------------------------------------

def assumption_audit(world: World, rng: Rng, n: int = 10000) -> list[TheoryVerdict]:
    """Sample-based checks of the theory's assumptions on a world:
    label invariance under the group, orbit-map constancy, the invariance
    loss minimum at an exactly invariant encoder, and the factorization
    residual of the constructed family."""
    verdicts = []
    batch = sample_batch(world, n, rng)

    # A1: label invariance under sampled transforms
    if world.label_fn is not None:
        y = world.label_fn(batch.x)
        yt = world.label_fn(batch.x_plus)
        violations = int(np.sum(y != yt))
        expected_clean = world.a1_invariant
        passed = (violations == 0) if expected_clean else (violations > 0)
        verdicts.append(TheoryVerdict(
            name="A1_label_invariance",
            measured={"violations": violations, "rate": violations / n},
            tolerance=0.0,
            passed=passed,
            diagnostics={"flag_a1_invariant": world.a1_invariant, "n": n}))

    # A2: orbit map constant on orbits
    t = np.asarray(world.orbit_map(batch.x), dtype=np.float64)
    tp = np.asarray(world.orbit_map(batch.x_plus), dtype=np.float64)
    dev = np.abs(t - tp) if t.ndim == 1 else np.linalg.norm(t - tp, axis=1)
    max_dev = float(dev.max())
    verdicts.append(TheoryVerdict(
        name="A2_orbit_constancy",
        measured={"max_deviation": max_dev},
        tolerance=1e-9,
        passed=max_dev <= 1e-9,
        diagnostics={"n": n}))

    # A4/A5: an exactly invariant factor-through encoder sits at the
    # invariance minimum, with zero factorization residual
    t_dim = 1 if t.ndim == 1 else t.shape[1]
    inner = Encoder("linear", np.eye(t_dim), np.zeros(t_dim))
    family = FactorThroughTFamily(world, inner)
    z = family.forward(batch.x)
    zp = family.forward(batch.x_plus)
    linv, _, _ = invariance_value_grad(z, zp)
    verdicts.append(TheoryVerdict(
        name="A4_invariance_minimum",
        measured={"invariance_loss": float(linv)},
        tolerance=1e-12,
        passed=linv <= 1e-12,
        diagnostics={"encoder": "identity link over the orbit statistic"}))
    residual = factorization_residual(family, batch.x)
    verdicts.append(TheoryVerdict(
        name="A5_factorization_residual",
        measured={"max_residual": residual},
        tolerance=1e-12,
        passed=residual <= 1e-12,
        diagnostics={}))
    return verdicts
