"""Synthetic data sources with known group structure.

Each world bundles: an input sampler, a transform family with its sampling
measure, an orbit map constant on group orbits, an optional nuisance variable,
optional generative factors, and a label function.  Labels exist for the
theory/probe code paths only; perception training never reads them.

Three worlds are provided:

* rotation     -- points on planar circles; rotations are the nuisance group,
                  the radius is the orbit statistic, the label thresholds the
                  radius (label IS group-invariant).
* bernoulli_uv -- X=(U,V) with two fair bits, label Y=V, and a group that
                  flips V.  The label is NOT group-invariant: enforcing
                  invariance destroys it.
* six_nine     -- two antipodal Gaussian clusters; the 180-degree rotation
                  maps each cluster onto the other, so again the label is not
                  invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, NotApplicableError
from .numerics import Rng


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Transform families
# ---------------------------------------------------------------------------

class RotationFamily:
    """Planar rotations T_alpha, parameterized by angle.

    The default measure is uniform on [0, 2*pi); a Gaussian sampler
    (mean 0, configurable sigma) is available for training views.
    """

    kind = "rotation2d"
    smooth = True                  # differentiable in delta at the identity
    magnitude_parameterized = True

    def sample_delta(self, rng: Rng, n: int, sampler=None) -> np.ndarray:
        if sampler is None or sampler == "uniform":
            return rng.uniform(0.0, 2.0 * np.pi, n)
        name, sigma = sampler
        if name != "gaussian":
            raise ContractViolation(f"unknown delta sampler {sampler!r}")
        return rng.normal(0.0, sigma, n)

    def apply(self, deltas, x: np.ndarray) -> np.ndarray:
        deltas = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        c, s = np.cos(deltas), np.sin(deltas)
        out = np.empty_like(x)
        out[:, 0] = c * x[:, 0] - s * x[:, 1]
        out[:, 1] = s * x[:, 0] + c * x[:, 1]
        return out

    def inverse(self, deltas):
        return -np.asarray(deltas)

    def compose(self, d1, d2):
        return np.asarray(d1) + np.asarray(d2)

    def by_magnitude(self, alpha: float):
        """The transform tau_alpha used by invariance curves."""
        return float(alpha)

    def rho(self, delta: float) -> np.ndarray:
        """Code-space representation: the same rotation acting on a 2-d code."""
        return rotation_matrix(float(delta))


class FlipVFamily:
    """G = {id, tau} with tau.(u, v) = (u, 1 - v); delta in {0, 1} uniform."""

    kind = "flip_v"
    smooth = False
    magnitude_parameterized = False
    rho = None

    def sample_delta(self, rng: Rng, n: int, sampler=None) -> np.ndarray:
        return rng.integers(0, 2, size=n).astype(np.float64)

    def apply(self, deltas, x: np.ndarray) -> np.ndarray:
        d = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        out = x.copy()
        out[:, 1] = (1.0 - d) * x[:, 1] + d * (1.0 - x[:, 1])
        return out

    def inverse(self, deltas):
        return np.asarray(deltas)  # tau is an involution

    def compose(self, d1, d2):
        return np.mod(np.asarray(d1) + np.asarray(d2), 2.0)


class NegationFamily:
    """G = {id, 180-degree rotation}; delta in {0, 1} uniform, T_1 x = -x."""

    kind = "discrete_set"
    smooth = False
    magnitude_parameterized = False

    def sample_delta(self, rng: Rng, n: int, sampler=None) -> np.ndarray:
        return rng.integers(0, 2, size=n).astype(np.float64)

    def apply(self, deltas, x: np.ndarray) -> np.ndarray:
        d = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        return x * (1.0 - 2.0 * d)[:, None]

    def inverse(self, deltas):
        return np.asarray(deltas)

    def compose(self, d1, d2):
        return np.mod(np.asarray(d1) + np.asarray(d2), 2.0)

    def rho(self, delta: float) -> np.ndarray:
        return -np.eye(2) if delta >= 0.5 else np.eye(2)


def rho_batch(family, deltas, d_z: int) -> np.ndarray:
    """Stack rho(delta_i) matrices, validating the declared code dimension."""
    if getattr(family, "rho", None) is None:
        raise ContractViolation(f"family {family.kind} declares no rho")
    mats = np.stack([family.rho(d) for d in np.atleast_1d(deltas)])
    if mats.shape[1] != d_z or mats.shape[2] != d_z:
        raise ContractViolation(
            f"rho matrices are {mats.shape[1]}x{mats.shape[2]} but d_z={d_z}")
    return mats


# ---------------------------------------------------------------------------
# Worlds and batches
# ---------------------------------------------------------------------------

@dataclass
class Atoms:
    """A finite (or finitely discretized) joint law of (X, Y):
    one row of ``x`` per atom, its probability mass, and P(Y | X=x).
    ``World.t_atoms`` gives the law of (T, Y) in the same form, with the
    orbit values in ``x``."""
    x: np.ndarray          # (m, d_x), or the orbit values (m,) or (m, k)
    weight: np.ndarray     # (m,), sums to 1
    posterior: np.ndarray  # (m, n_classes)


@dataclass
class World:
    name: str
    d_x: int
    transforms: object
    sample_x: object                    # (rng, n) -> (n, d_x)
    orbit_map: object                   # (X) -> (n,) or (n, k)
    nuisance: object = None             # (X, deltas) -> (n,)
    factors: object = None              # (X) -> (n, n_factors)
    factor_names: list = field(default_factory=list)
    label_fn: object = None             # (X) -> (n,) int labels
    a1_invariant: bool = False          # label constant on group orbits
    n_classes: int = 0
    atoms: object = None                # () -> Atoms, exact (discrete X only)
    discretized_atoms: object = None    # (resolution) -> Atoms
    t_atoms: object = None              # () -> Atoms over orbit values


@dataclass
class Batch:
    x: np.ndarray
    x_plus: np.ndarray
    deltas: np.ndarray
    v: np.ndarray | None = None
    t: np.ndarray | None = None
    y: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_batch(world: World, n: int, rng: Rng, sampler=None,
                 with_labels: bool = True) -> Batch:
    """Draw n i.i.d. inputs plus one transformed view each.

    ``sampler`` overrides the family's default measure over delta (the
    trainer passes ("gaussian", sigma_aug) for view sampling).
    """
    if n < 1:
        raise ContractViolation("sample_batch requires n >= 1")
    x = world.sample_x(rng, n)
    deltas = world.transforms.sample_delta(rng, n, sampler)
    x_plus = world.transforms.apply(deltas, x)
    v = world.nuisance(x, deltas) if world.nuisance is not None else None
    t = world.orbit_map(x)
    y = None
    if with_labels and world.label_fn is not None:
        y = world.label_fn(x)
    return Batch(x, x_plus, deltas, v, t, y)


# ---------------------------------------------------------------------------
# World constructors
# ---------------------------------------------------------------------------

def make_rotation_world(r_min: float = 0.5, r_max: float = 1.5,
                        radius_values=None) -> World:
    """Points x = r (cos theta, sin theta) with rotations as the group.

    The radius r is the orbit statistic; the applied angle is the nuisance.
    Radii are uniform on [r_min, r_max] by default, or uniform over the given
    discrete ``radius_values`` (which makes the orbit statistic finitely
    supported and all Bayes-risk oracles exact).
    The label 1[r > median radius] depends on the orbit only, so the
    group-invariance flag is true.
    """
    family = RotationFamily()
    if radius_values is not None:
        radii = np.sort(np.asarray(radius_values, dtype=np.float64))
        if radii.size < 2:
            raise ContractViolation("need at least two radius values")
        threshold = float(np.median(radii))

        def sample_r(rng, n):
            return rng.choice(radii, size=n)
    else:
        radii = None
        threshold = 0.5 * (r_min + r_max)

        def sample_r(rng, n):
            return rng.uniform(r_min, r_max, n)

    def sample_x(rng, n):
        r = sample_r(rng, n)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    def orbit_map(x):
        return np.linalg.norm(x, axis=1)

    def label_fn(x):
        return (orbit_map(x) > threshold).astype(np.int64)

    def factors(x):
        return np.column_stack([orbit_map(x), np.arctan2(x[:, 1], x[:, 0])])

    world = World(
        name="rotation",
        d_x=2,
        transforms=family,
        sample_x=sample_x,
        orbit_map=orbit_map,
        nuisance=lambda x, deltas: np.asarray(deltas, dtype=np.float64),
        factors=factors,
        factor_names=["radius", "angle"],
        label_fn=label_fn,
        a1_invariant=True,
        n_classes=2,
    )
    world.label_threshold = threshold

    if radii is not None:
        def t_atoms():
            return Atoms(radii.copy(), np.full(radii.size, 1.0 / radii.size),
                         np.eye(2)[(radii > threshold).astype(np.int64)])

        world.t_atoms = t_atoms

    def discretized_atoms(resolution: int) -> Atoms:
        if radii is not None:
            r_grid, r_w = radii, np.full(radii.size, 1.0 / radii.size)
        else:
            edges = np.linspace(r_min, r_max, resolution + 1)
            r_grid = 0.5 * (edges[:-1] + edges[1:])
            r_w = np.full(resolution, 1.0 / resolution)
        theta = (np.arange(resolution) + 0.5) * (2.0 * np.pi / resolution)
        rr, tt = np.meshgrid(r_grid, theta, indexing="ij")
        x = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
        w = np.repeat(r_w / resolution, resolution)
        return Atoms(x, w, np.eye(2)[label_fn(x)])

    world.discretized_atoms = discretized_atoms
    return world


def make_bernoulli_uv_world() -> World:
    """X = (U, V), two i.i.d. fair bits; Y = V; the group flips V.

    The orbit under the flip is determined by U alone, P(Y=1 | U) = 1/2,
    and the label is not group-invariant: the canonical over-invariance
    counterexample.
    """
    family = FlipVFamily()

    def sample_x(rng, n):
        return rng.integers(0, 2, size=(n, 2)).astype(np.float64)

    world = World(
        name="bernoulli_uv",
        d_x=2,
        transforms=family,
        sample_x=sample_x,
        orbit_map=lambda x: x[:, 0].copy(),
        nuisance=lambda x, deltas: x[:, 1].copy(),
        factors=lambda x: x.copy(),
        factor_names=["u", "v"],
        label_fn=lambda x: x[:, 1].astype(np.int64),
        a1_invariant=False,
        n_classes=2,
    )

    def atoms() -> Atoms:
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        return Atoms(x, np.full(4, 0.25), np.eye(2)[x[:, 1].astype(int)])

    def t_atoms():
        t = np.array([0.0, 1.0])
        w = np.array([0.5, 0.5])
        post = np.full((2, 2), 0.5)  # P(Y=1 | U) = 1/2 for both orbits
        return Atoms(t, w, post)

    world.atoms = atoms
    world.t_atoms = t_atoms
    return world


def make_six_nine_world(center=(3.0, 0.0), sigma: float = 0.5) -> World:
    """Two Gaussian clusters at +c (class 0) and -c (class 1); the group is
    the 180-degree rotation, which maps each cluster onto the other, so the
    label is not invariant."""
    c = np.asarray(center, dtype=np.float64)
    family = NegationFamily()

    def sample_x(rng, n):
        y = rng.integers(0, 2, size=n)
        signs = (1.0 - 2.0 * y)[:, None]
        return signs * c + sigma * rng.normal(size=(n, 2))

    def orbit_map(x):
        # canonical representative: the lexicographically larger of {x, -x}
        flip = (x[:, 0] < 0) | ((x[:, 0] == 0) & (x[:, 1] < 0))
        out = x.copy()
        out[flip] *= -1.0
        return out

    def label_fn(x):
        d_pos = np.linalg.norm(x - c, axis=1)
        d_neg = np.linalg.norm(x + c, axis=1)
        return (d_neg < d_pos).astype(np.int64)

    world = World(
        name="six_nine",
        d_x=2,
        transforms=family,
        sample_x=sample_x,
        orbit_map=orbit_map,
        nuisance=lambda x, deltas: np.asarray(deltas, dtype=np.float64),
        label_fn=label_fn,
        a1_invariant=False,
        n_classes=2,
    )
    world.center = c
    world.sigma = sigma

    def discretized_atoms(resolution: int) -> Atoms:
        lim = np.abs(c).max() + 4.0 * sigma
        axis = np.linspace(-lim, lim, resolution)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        x = np.column_stack([xx.ravel(), yy.ravel()])
        d_pos = np.sum((x - c) ** 2, axis=1)
        d_neg = np.sum((x + c) ** 2, axis=1)
        g_pos = np.exp(-0.5 * d_pos / sigma ** 2)
        g_neg = np.exp(-0.5 * d_neg / sigma ** 2)
        w = 0.5 * (g_pos + g_neg)
        w /= w.sum()
        post = np.column_stack([g_pos, g_neg])
        post /= post.sum(axis=1, keepdims=True)
        return Atoms(x, w, post)

    world.discretized_atoms = discretized_atoms
    return world


WORLD_BUILDERS = {
    "rotation": make_rotation_world,
    "bernoulli_uv": make_bernoulli_uv_world,
    "six_nine": make_six_nine_world,
}


# ---------------------------------------------------------------------------
# Batch export (columnar text for the certifier and external tools)
# ---------------------------------------------------------------------------

def _t_columns(t: np.ndarray) -> tuple[list[str], np.ndarray]:
    if t.ndim == 1:
        return ["t"], t[:, None]
    return [f"t_{k}" for k in range(t.shape[1])], t


def export_batch_csv(batch: Batch, path) -> None:
    """Write a batch as CSV with full round-trip float formatting."""
    d = batch.x.shape[1]
    header = [f"x_{j}" for j in range(d)] + [f"xp_{j}" for j in range(d)] + ["delta"]
    cols = [batch.x, batch.x_plus, batch.deltas[:, None]]
    if batch.v is not None:
        header.append("v")
        cols.append(np.asarray(batch.v, dtype=np.float64)[:, None])
    if batch.t is not None:
        names, tc = _t_columns(np.asarray(batch.t, dtype=np.float64))
        header += names
        cols.append(tc)
    if batch.y is not None:
        header.append("y")
        cols.append(np.asarray(batch.y, dtype=np.float64)[:, None])
    data = np.hstack(cols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(repr(float(val)) for val in row) + "\n")


def magnitude_transform(world: World, alpha: float):
    """tau_alpha for invariance curves; errors on non-parameterizable groups."""
    fam = world.transforms
    if not getattr(fam, "magnitude_parameterized", False):
        raise NotApplicableError(
            f"world {world.name!r} has no magnitude-parameterized transforms")
    return fam.by_magnitude(alpha)
