"""Numerical verification of the perception/decision separation theory.

Contents: exact Bayes-risk oracles over enumerable (or finely discretized)
joint laws, links over the orbit statistic (an encoder f = h o T enters the
checks as its link h over the orbit values T), the orthogonality check for
perception updates against the Bayes-risk gradient, the over-invariance
counterexamples, the two-stage optimality check, and the assumption audit.

F is priced over a law: every joint law of (X, Y) or (T, Y) is a
``worlds.Atoms`` -- exact, discretized, or sampled (``worlds.sample_law``,
mass 1/n per row) -- and every Bayes risk takes ``(codes, law, loss)``, one
code row per atom.  ``bayes_risk`` makes a cell of each distinct code,
``empirical_bayes_risk`` of each quantile-histogram cell of a sampled law;
both price the Bayes act per cell with ``risk_of_cells``.  The gradient of
F is ``numerics.finite_diff``.

One orthogonality check takes the link itself and computes what is fixed
within it once: the injectivity witness's far pairs (``far_pairs``, orbit
values at least 1e-3 apart), the order of a sampled law (sorted by orbit
value, so a monotone link's codes come sorted), and the codes at each
parameter point, which price every resolution asked of that point.

Conventions: log-loss is reported in bits, so the log-loss Bayes risk equals
the conditional entropy H(Y | representation) in bits.  Zero-one loss is also
provided for the counterexample risk table but is not strictly proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import infotheory as it
from .errors import ContractViolation, DegenerateError
from .numerics import Encoder, Rng, as_samples, evenly_spaced, finite_diff
from .objectives import ObjectiveSpec, invariance_value_grad, perc_loss
from .probes import LinearHead
from .worlds import (Atoms, Batch, World, make_bernoulli_uv_world,
                     make_rotation_world, sample_batch, sample_law)

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
    w_cell = np.bincount(cells, weights=weights)
    post_cell = np.column_stack([
        np.bincount(cells, weights=weights * col, minlength=w_cell.size)
        for col in posteriors.T])
    nonzero = w_cell > 0
    post_cell[nonzero] /= w_cell[nonzero, None]
    losses = _posterior_loss(post_cell[nonzero], loss)
    return float(np.sum(w_cell[nonzero] * losses))


def bayes_risk(codes: np.ndarray, law: Atoms, loss: str) -> float:
    """Exact Bayes risk of deciding Y from codes, one code row per atom of
    ``law``: atoms whose codes agree to within 1e-9 share a cell."""
    return risk_of_cells(it.rows_as_codes(codes), law.weight, law.posterior,
                         loss)


def empirical_bayes_risk(codes: np.ndarray, law: Atoms, loss: str,
                         resolution: int) -> float:
    """Histogram-posterior estimate of inf_head risk from the codes of a
    sampled law (``worlds.sample_law``), one code row per atom.

    Cells are per-dimension quantile histograms over the sample; a constant
    dimension is one bin, so it leaves the cells unchanged."""
    codes = as_samples(codes)
    cells = it.discretize_codes(codes, n_bins=resolution,
                                max_dims=codes.shape[1])
    return risk_of_cells(cells, law.weight, law.posterior, loss)


# ---------------------------------------------------------------------------
# Task risk of concrete heads
# ---------------------------------------------------------------------------

def task_risk(enc, head: LinearHead, world: World, loss: str,
              n: int, rng: Rng) -> float:
    """Monte Carlo estimate of the population task risk of head(enc(x))."""
    x, y = world.sample_xy(rng, n)
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

def bayes_risk_through_encoder(enc, world: World, loss: str,
                               resolution: int = 64, n: int = 4096,
                               rng: Rng | None = None) -> float:
    """F(phi) = inf over heads of the task risk when deciding from enc(X).

    Exact over the world's atoms for discrete worlds; over quantile cells
    of one sampled law otherwise.
    """
    if world.atoms is not None:
        law = world.atoms()
        return bayes_risk(enc.forward(law.x), law, loss)
    if rng is None:
        raise ContractViolation("sampled F(phi) requires an rng")
    law = sample_law(world, rng, n)
    return empirical_bayes_risk(enc.forward(law.x), law, loss, resolution)


# ---------------------------------------------------------------------------
# Links over the orbit statistic
# ---------------------------------------------------------------------------
# An encoder f = h o T reads x through the orbit map T, so every parameter
# direction of the link h stays inside the flat manifold of the
# orthogonality theorem as long as h remains injective.  The checks take h,
# a plain Encoder over the orbit values as_samples(T(x)).

# injectivity on range(T): orbit values at least _IN_GAP apart must map at
# least _OUT_TOL apart
_IN_GAP = 1e-3
_OUT_TOL = 1e-9


def _orbit_values(world: World, x: np.ndarray) -> np.ndarray:
    return as_samples(world.orbit_map(x))


def injectivity_witness(link: Encoder, t_sample: np.ndarray,
                        pairs=None) -> dict:
    """Sample-level injectivity of the link on range(T): any two orbit
    values at least 1e-3 apart must map at least 1e-9 apart.

    ``pairs`` is ``far_pairs(t_sample)``, passed in when one set serves
    several links.  A sample without far pairs witnesses nothing: it is ok,
    with a ``min_code_gap`` of None."""
    t, i, j = far_pairs(t_sample) if pairs is None else pairs
    z = link.forward(as_samples(t))
    # squared code gaps of the far pairs, summed column by column
    sq = sum(np.square(col.take(i) - col.take(j)) for col in z.T)
    near = sq[sq <= (2.0 * _OUT_TOL) ** 2]
    violations = int(np.count_nonzero(np.sqrt(near) < _OUT_TOL))
    return {"ok": violations == 0, "violations": violations,
            "min_code_gap": float(np.sqrt(sq.min())) if i.size else None}


def far_pairs(t_sample: np.ndarray):
    """The injectivity witness's sample and pair set: at most 256 evenly
    spaced values ``t`` of ``t_sample``, and the index arrays ``i < j`` of
    the pairs of ``t`` at least 1e-3 apart, as ``(t, i, j)``."""
    t = evenly_spaced(np.asarray(t_sample, dtype=np.float64).reshape(-1), 256)
    i, j = np.nonzero(np.triu(np.abs(np.subtract.outer(t, t)) >= _IN_GAP, 1))
    return t, i, j


def factorization_residual(link: Encoder, world: World,
                           x: np.ndarray) -> float:
    """max_x ||f(x) - h(T(x))|| for the encoder f = h o T.  f reads x
    through T, so the residual is zero by construction; audited anyway."""
    direct = link.forward(_orbit_values(world, x))
    via_t = link.forward(_orbit_values(world, x))
    return float(np.max(np.linalg.norm(direct - via_t, axis=1)))


def monotone_scalar_link(hidden: int = 3) -> Encoder:
    """A strictly increasing mlp1 link h: R -> R (positive slopes throughout)."""
    w1 = np.linspace(0.8, 1.4, hidden)[:, None]
    b1 = np.linspace(-0.9, 0.3, hidden)
    w2 = np.linspace(0.9, 0.5, hidden)[None, :]
    return Encoder("mlp1", w1, b1, w2, np.array([0.1]))


def orbit_merging_link() -> Encoder:
    """An mlp1 link forming a symmetric bump of sharpness 6 around 1.0, the
    midpoint of 0.9 and 1.1: radii equidistant from 1.0 map to the same
    code, collapsing orbit pairs that straddle the label threshold."""
    a, b, sharpness = 0.9, 1.1, 6.0
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

def _family_gradient(link: Encoder, world: World, rng: Rng,
                     spec: ObjectiveSpec) -> np.ndarray:
    """Analytic gradient of the perception loss ``spec`` with respect to the
    link's parameters, on one sampled batch of 512 view pairs seen through
    the orbit statistic."""
    batch = sample_batch(world, 512, rng, with_labels=False)
    orbits = Batch(_orbit_values(world, batch.x),
                   _orbit_values(world, batch.x_plus), batch.deltas)
    return perc_loss(link, orbits, spec)[1]


# contrastive + diversity terms: for a link over T, a generically nonzero
# perception-update direction that is tangent to the flat manifold of
# encoders h o T by construction
_PERCEPTION_SPEC = ObjectiveSpec(beta_inv=0.0, use_nce=True, tau=0.5,
                                 sim="dot", gamma=1.0, w_var=1.0, w_cov=1.0)


# the orthogonality check's settings: zero-one loss, central differences of
# step _FD_STEP, the step grid of every built-in direction, the tolerance
# on |D_v F| and |delta F|, and the number of random tangent directions
_FD_STEP = 1e-3
_T_GRID = (-0.05, -0.01, 0.01, 0.05)
_TOL = 1e-3
_N_RANDOM_DIRS = 3


def orthogonality_check(link: Encoder, world: World, rng: Rng,
                        n: int = 4096, resolution: int = 64,
                        extra_directions=None,
                        name: str = "orthogonality") -> TheoryVerdict:
    """Verify that F(psi) is flat along perception-update directions of the
    link psi over the orbit statistic (the encoder f = h_psi o T).

    Evaluates |D_v F| by central differences and |F(psi + t v) - F(psi)| on a
    step grid, for: the analytic invariance gradient (the theorem's update
    direction), a contrastive+diversity perception gradient, and random
    tangent directions -- all of which stay links over T.
    Common random numbers: every F evaluation reuses one frozen sample, and
    exact orbit-atom enumeration is used when the world provides it.

    ``extra_directions`` entries are (label, vector, step_grid) and let the
    violation scenarios drive the same machinery along merging paths.

    What is fixed within the check is computed once: the injectivity
    witness's far pairs, the sort order of a sampled law (its atoms ordered
    by orbit value), and the codes at each central-difference point, which
    price both resolutions of the resolution-shift diagnostic.
    """
    rng_data, rng_dirs, rng_ginv, rng_gperc = rng.split(4)

    # frozen evaluation law of (T, Y): the exact orbit atoms when available,
    # else one sample with its rows replaced by their orbit values
    sampled = world.t_atoms is None
    if sampled:
        law = sample_law(world, rng_data, n)
        t_witness = np.asarray(world.orbit_map(law.x))
        # atoms sorted by orbit value, so a monotone link yields sorted
        # codes; every nonzero term of a cell sum is the same 1/n, so the
        # order of the rows cannot change a risk
        order = np.lexsort(as_samples(t_witness).T[::-1])
        law = Atoms(t_witness[order], law.weight[order], law.posterior[order])
    else:
        law = world.t_atoms()
        t_witness = law.x
    t_eval = as_samples(law.x)

    def codes_at(psi):
        link.set_flat_params(psi)
        return link.forward(t_eval)

    def price(codes, res=resolution):   # exact cells need no resolution
        return (empirical_bayes_risk(codes, law, LOSS_ZERO_ONE, res)
                if sampled else bayes_risk(codes, law, LOSS_ZERO_ONE))

    def risk_at(psi):
        return price(codes_at(psi))

    psi0 = link.get_flat_params()
    f0 = risk_at(psi0)

    # the invariance gradient is identically zero at exact invariance;
    # it is computed through the real machinery rather than assumed
    g_inv = _family_gradient(link, world, rng_ginv, ObjectiveSpec())
    g_perc = _family_gradient(link, world, rng_gperc, _PERCEPTION_SPEC)
    directions = [("invariance_gradient", g_inv, _T_GRID),
                  ("perception_gradient", g_perc, _T_GRID)]
    for i in range(_N_RANDOM_DIRS):
        directions.append((f"random_tangent_{i}",
                           rng_dirs.normal(size=psi0.size), _T_GRID))
    for label, vec, grid in (extra_directions or []):
        directions.append((label, np.asarray(vec, dtype=np.float64), grid))

    # one witness pair set for the whole check, built after the gradients'
    # buffers are freed; the parameters are still psi0
    pairs = far_pairs(t_witness)
    witness0 = injectivity_witness(link, t_witness, pairs=pairs)

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
        # one forward per difference point prices both resolutions
        plus = codes_at(psi0 + _FD_STEP * unit)
        minus = codes_at(psi0 - _FD_STEP * unit)

        def dvf_at(res):
            return (price(plus, res) - price(minus, res)) / (2.0 * _FD_STEP)

        dvf = dvf_at(resolution)
        if sampled:
            # resolution stability of the directional derivative
            resolution_shift = max(resolution_shift,
                                   abs(dvf_at(2 * resolution) - dvf))
        deltas = {}
        for step in grid:
            f_t = risk_at(psi0 + step * unit)   # leaves psi0 + step * unit set
            wit = injectivity_witness(link, t_witness, pairs=pairs)
            deltas[repr(float(step))] = {"delta_f": f_t - f0,
                                         "injective": wit["ok"]}
            witness_ok = witness_ok and wit["ok"]
            max_abs_df = max(max_abs_df, abs(f_t - f0))
        max_abs_dvf = max(max_abs_dvf, abs(dvf))
        dir_results[label] = {"norm": norm, "dvf": float(dvf), "delta_f": deltas}

    # full finite-difference gradient of F, for the cosine diagnostic
    g_f = finite_diff(risk_at, psi0, _FD_STEP)
    link.set_flat_params(psi0)
    g_f_norm = float(np.linalg.norm(g_f))
    g_inv_norm = float(np.linalg.norm(g_inv))
    cosine = None
    if g_f_norm > 10.0 * _TOL and g_inv_norm > 1e-12:
        cosine = float(np.dot(g_f, g_inv) / (g_f_norm * g_inv_norm))

    passed = (max_abs_dvf <= _TOL) and (max_abs_df <= _TOL) and witness_ok
    return TheoryVerdict(
        name=name,
        measured={"max_abs_directional_derivative": float(max_abs_dvf),
                  "max_abs_delta_f": float(max_abs_df),
                  "f_at_start": float(f0),
                  "risk_increase": float(max_abs_df)},
        tolerance=_TOL,
        passed=passed,
        diagnostics={"directions": dir_results,
                     "injectivity_ok": bool(witness_ok),
                     "witness_at_start": witness0,
                     "grad_f_norm": g_f_norm,
                     "grad_inv_norm": g_inv_norm,
                     "cosine_gF_gInv": cosine,
                     "resolution_shift_of_dvf": float(resolution_shift),
                     "loss": LOSS_ZERO_ONE})


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
    spec = ObjectiveSpec()   # the invariance loss alone
    first_linv = None
    for _ in range(steps):
        linv, grad, _ = perc_loss(enc, batch, spec)
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
    zero-one risk to the Bayes risk of the full input (exact atoms, or the
    law discretized at ``resolution``).  A label sample too degenerate to
    train a head on fails the verdict, with the reason in its diagnostics."""
    from .trainer import train_head  # local import: trainer builds on theory-free modules
    law = world.atoms() if world.atoms else world.discretized_atoms(resolution)
    bayes = bayes_risk(law.x, law, LOSS_ZERO_ONE)
    risk = gap = None
    diagnostics = {"n_train": n_train, "n_eval": n_eval}
    try:
        head = train_head(enc, world, rng, label_budget=n_train)
    except DegenerateError as exc:
        diagnostics["reason"] = str(exc)
    else:
        risk = task_risk(enc, head, world, LOSS_ZERO_ONE, n_eval, rng)
        gap = risk - bayes
    return TheoryVerdict(
        name=name,
        measured={"head_risk": risk, "bayes_risk_full": bayes, "gap": gap},
        tolerance=gap_tol,
        passed=risk is not None and risk <= bayes + gap_tol,
        diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Counterexample risk table and scenario driver
# ---------------------------------------------------------------------------

def risk_table(world: World) -> dict:
    """Bayes risks of the full (X), good (V) and bad (U) representations of
    the two-bit world under zero-one loss, plus the conditional entropies
    under log-loss."""
    if world.name != "bernoulli_uv":
        raise ContractViolation("the risk table is defined on the two-bit "
                                f"world, not {world.name!r}")
    law = world.atoms()
    reps = {"full": law.x, "good": law.x[:, 1], "bad": law.x[:, 0]}
    return {key: {rep: bayes_risk(codes, law, loss)
                  for rep, codes in reps.items()}
            for key, loss in (("zero_one", LOSS_ZERO_ONE),
                              ("log_bits", LOSS_LOG))}


def risk_table_verdict(table: dict, tol: float = 1e-12) -> TheoryVerdict:
    """Assert the (0, 0, 1/2) zero-one risks and the (0, 0, 1) bit
    conditional entropies of a ``risk_table``, exactly."""
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


def run_scenario(scenario: str, seed: int, n: int = 4096, resolution: int = 64):
    """Drive one theory scenario end to end.

    Returns (verdict, expected_pass, ok): ``ok`` means the observed outcome
    matches the scenario's expectation -- the theorem regime must pass, and
    both violation constructions must fail with a material risk increase.
    """
    rng = Rng(seed)
    if scenario == "orthogonality_rotation":
        world = make_rotation_world()
        verdict = orthogonality_check(monotone_scalar_link(), world, rng, n=n,
                                      resolution=resolution, name=scenario)
        expected_pass = True
    elif scenario == "merged_orbits":
        world = make_rotation_world(radius_values=_MERGE_RADII)
        link = monotone_scalar_link(hidden=2)
        direction = (orbit_merging_link().get_flat_params()
                     - link.get_flat_params())
        span = float(np.linalg.norm(direction))
        verdict = orthogonality_check(
            link, world, rng, n=n, resolution=resolution, name=scenario,
            extra_directions=[("orbit_merge", direction, (0.5 * span, span))])
        expected_pass = False
    elif scenario == "over_invariance_bernoulli":
        world = make_bernoulli_uv_world()
        verdict = over_invariance_check(world, rng, name=scenario)
        expected_pass = False
    else:
        raise ContractViolation(f"unknown theory scenario {scenario!r}; "
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
    posterior invariance under the group, orbit-map constancy, the invariance
    loss minimum at an exactly invariant encoder, and the factorization
    residual of the identity link over the orbit statistic."""
    verdicts = []
    batch = sample_batch(world, n, rng)

    # A1: P(Y | x) = P(Y | T x) under sampled transforms, row by row
    violations = int(np.sum(np.any(
        world.posterior(batch.x) != world.posterior(batch.x_plus), axis=1)))
    verdicts.append(TheoryVerdict(
        name="A1_label_invariance",
        measured={"violations": violations, "rate": violations / n},
        tolerance=0.0,
        passed=(violations == 0) == world.a1_invariant,
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

    # A4/A5: the identity link over the orbit statistic sits at the
    # invariance minimum, with zero factorization residual
    t_dim = 1 if t.ndim == 1 else t.shape[1]
    link = Encoder("linear", np.eye(t_dim), np.zeros(t_dim))
    z = link.forward(as_samples(t))
    zp = link.forward(as_samples(tp))
    linv, _, _ = invariance_value_grad(z, zp)
    verdicts.append(TheoryVerdict(
        name="A4_invariance_minimum",
        measured={"invariance_loss": float(linv)},
        tolerance=1e-12,
        passed=linv <= 1e-12,
        diagnostics={"encoder": "identity link over the orbit statistic"}))
    residual = factorization_residual(link, world, batch.x)
    verdicts.append(TheoryVerdict(
        name="A5_factorization_residual",
        measured={"max_residual": residual},
        tolerance=1e-12,
        passed=residual <= 1e-12,
        diagnostics={}))
    return verdicts
