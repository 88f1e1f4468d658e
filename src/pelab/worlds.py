"""Synthetic data sources with known group structure.

Each world bundles: one joint law of (X, Y) (``sample_xy`` draws inputs with
their labels; ``posterior`` is P(Y | X), which every exact, discretized and
orbit law reads), a transform family with its sampling measure, an orbit map
constant on group orbits, an optional nuisance variable, and optional
generative factors.  Labels exist for the theory/probe code paths only;
perception training never reads them.

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

from .errors import ConfigurationError, ContractViolation
from .numerics import Rng


# ---------------------------------------------------------------------------
# Transform families
# ---------------------------------------------------------------------------

class RotationFamily:
    """Planar rotations T_alpha, parameterized by angle.

    Angles are uniform on [0, 2*pi) by default, and N(0, sigma) when a
    view spread ``sigma`` is given (the trainer's views).
    """

    kind = "rotation2d"
    smooth = True                  # differentiable in delta at the identity
    magnitude_parameterized = True

    def sample_delta(self, rng: Rng, n: int, sigma=None) -> np.ndarray:
        if sigma is None:
            return rng.uniform(0.0, 2.0 * np.pi, n)
        return rng.normal(0.0, sigma, n)

    def apply(self, deltas, x: np.ndarray) -> np.ndarray:
        deltas = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        c, s = np.cos(deltas), np.sin(deltas)
        out = np.empty_like(x)
        out[:, 0] = c * x[:, 0] - s * x[:, 1]
        out[:, 1] = s * x[:, 0] + c * x[:, 1]
        return out

    def rho(self, delta) -> np.ndarray:
        """Code-space representation: the same rotation acting on a 2-d
        code; (2, 2) for one angle, (n, 2, 2) for an array of n angles."""
        c, s = np.cos(delta), np.sin(delta)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


class FlipVFamily:
    """G = {id, tau} with tau.(u, v) = (u, 1 - v); delta in {0, 1} uniform,
    whatever the view spread ``sigma``."""

    kind = "flip_v"
    smooth = False
    magnitude_parameterized = False
    rho = None

    def sample_delta(self, rng: Rng, n: int, sigma=None) -> np.ndarray:
        return rng.integers(0, 2, size=n).astype(np.float64)

    def apply(self, deltas, x: np.ndarray) -> np.ndarray:
        d = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        out = x.copy()
        out[:, 1] = (1.0 - d) * x[:, 1] + d * (1.0 - x[:, 1])
        return out


class NegationFamily:
    """G = {id, 180-degree rotation}; delta in {0, 1} uniform, whatever the
    view spread ``sigma``; T_1 x = -x."""

    kind = "discrete_set"
    smooth = False
    magnitude_parameterized = False

    def sample_delta(self, rng: Rng, n: int, sigma=None) -> np.ndarray:
        return rng.integers(0, 2, size=n).astype(np.float64)

    def apply(self, deltas, x: np.ndarray) -> np.ndarray:
        d = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        return x * (1.0 - 2.0 * d)[:, None]

    def rho(self, delta) -> np.ndarray:
        """-I for delta = 1, I for delta = 0; (2, 2) for one delta, (n, 2, 2)
        for an array of n."""
        sign = np.where(np.asarray(delta) >= 0.5, -1.0, 1.0)
        return sign[..., None, None] * np.eye(2)


def rho_batch(family, deltas, d_z: int) -> np.ndarray:
    """The (n, d_z, d_z) stack of rho(delta_i), validating the declared code
    dimension.  A family's ``rho`` maps an array of n deltas to that stack
    in one call (and one delta to one matrix)."""
    if getattr(family, "rho", None) is None:
        raise ConfigurationError(
            "w_eq > 0 requires a transform family with rho")
    mats = family.rho(np.atleast_1d(np.asarray(deltas, dtype=np.float64)))
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
    orbit values in ``x``; ``sample_law`` gives the empirical law of a
    sample, with the one-hot posterior of each drawn label."""
    x: np.ndarray          # (m, d_x), or the orbit values (m,) or (m, k)
    weight: np.ndarray     # (m,), sums to 1
    posterior: np.ndarray  # (m, n_classes)


@dataclass
class World:
    name: str
    d_x: int
    transforms: object
    sample_xy: object                   # (rng, n) -> (n, d_x), (n,) labels
    posterior: object                   # (X) -> (n, n_classes), P(Y | X)
    orbit_map: object                   # (X) -> (n,) or (n, k)
    nuisance: object = None             # (X, deltas) -> (n,)
    factors: object = None              # (X) -> (n, n_factors)
    factor_names: list = field(default_factory=list)
    a1_invariant: bool = False          # posterior constant on group orbits
    n_classes: int = 0
    atoms: object = None                # () -> Atoms, exact (discrete X only)
    discretized_atoms: object = None    # (resolution) -> Atoms
    t_atoms: object = None              # () -> Atoms over orbit values


@dataclass
class Batch:
    """n view pairs.  ``pairs`` stacks the inputs once, (2n, d_x) with the
    first views over the second; ``x`` and ``x_plus`` are its two halves,
    so a two-view pass reads both views without copying them."""
    x: np.ndarray
    x_plus: np.ndarray
    deltas: np.ndarray
    v: np.ndarray | None = None
    t: np.ndarray | None = None
    y: np.ndarray | None = None
    pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.x)
        self.pairs = np.concatenate([self.x, self.x_plus])
        self.x, self.x_plus = self.pairs[:n], self.pairs[n:]

    @property
    def n(self) -> int:
        return self.x.shape[0]


def sample_batch(world: World, n: int, rng: Rng, sigma=None,
                 with_labels: bool = True) -> Batch:
    """Draw n i.i.d. inputs plus one transformed view each; ``sigma`` is
    passed to the family's ``sample_delta`` (the trainer's view spread)."""
    if n < 1:
        raise ContractViolation("sample_batch requires n >= 1")
    x, y = world.sample_xy(rng, n)
    deltas = world.transforms.sample_delta(rng, n, sigma)
    x_plus = world.transforms.apply(deltas, x)
    v = world.nuisance(x, deltas) if world.nuisance is not None else None
    t = world.orbit_map(x)
    return Batch(x, x_plus, deltas, v, t, y if with_labels else None)


def sample_law(world: World, rng: Rng, n: int) -> Atoms:
    """The empirical law of n pairs drawn by ``world.sample_xy(rng, n)``:
    one atom per row, of mass 1/n, with the one-hot posterior of its drawn
    label."""
    x, y = world.sample_xy(rng, n)
    return Atoms(x, np.full(n, 1.0 / n), np.eye(world.n_classes)[y])


# ---------------------------------------------------------------------------
# World constructors
# ---------------------------------------------------------------------------

def make_rotation_world(r_min: float = 0.5, r_max: float = 1.5,
                        radius_values=()) -> World:
    """Points x = r (cos theta, sin theta) with rotations as the group.

    The radius r is the orbit statistic; the applied angle is the nuisance.
    Radii are uniform on [r_min, r_max] when ``radius_values`` is empty, or
    uniform over those discrete values (which makes the orbit statistic
    finitely supported and all Bayes-risk oracles exact); an empty interval
    or fewer than two distinct values is a ``ConfigurationError``.
    The label 1[r > threshold] depends on the orbit only, so the
    group-invariance flag is true.  The threshold is the middle of
    [r_min, r_max], or the midpoint between the largest discrete radius at
    or below the median and the next one up: no radius sits on it, so
    rounding in |x| cannot flip a label.
    """
    family = RotationFamily()
    if len(radius_values):
        radii = np.sort(np.asarray(radius_values, dtype=np.float64))
        distinct = np.unique(radii)
        if distinct.size < 2:
            raise ConfigurationError(
                "radius_values must hold at least two distinct values, "
                f"got {tuple(radius_values)!r}")
        # a median equal to the largest radius splits below it
        k = min(int(np.searchsorted(distinct, np.median(radii), "right")),
                distinct.size - 1)
        threshold = 0.5 * float(distinct[k - 1] + distinct[k])

        def sample_r(rng, n):
            return rng.choice(radii, size=n)
    else:
        # at r_min == r_max every radius sits on the threshold
        if not r_min < r_max:
            raise ConfigurationError(
                f"r_min must be < r_max = {r_max!r} when radius_values is "
                f"empty, got {r_min!r}")
        radii = None
        threshold = 0.5 * (r_min + r_max)

        def sample_r(rng, n):
            return rng.uniform(r_min, r_max, n)

    def sample_xy(rng, n):
        r = sample_r(rng, n)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        x = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        return x, (r > threshold).astype(np.int64)

    def orbit_map(x):
        return np.linalg.norm(x, axis=1)

    def posterior(x):
        return np.eye(2)[(orbit_map(x) > threshold).astype(np.int64)]

    def factors(x):
        return np.column_stack([orbit_map(x), np.arctan2(x[:, 1], x[:, 0])])

    world = World(
        name="rotation",
        d_x=2,
        transforms=family,
        sample_xy=sample_xy,
        posterior=posterior,
        orbit_map=orbit_map,
        nuisance=lambda x, deltas: np.asarray(deltas, dtype=np.float64),
        factors=factors,
        factor_names=["radius", "angle"],
        a1_invariant=True,
        n_classes=2,
    )

    if radii is not None:
        def t_atoms():
            # the posterior is constant on each orbit: read it at (r, 0)
            return Atoms(radii.copy(), np.full(radii.size, 1.0 / radii.size),
                         posterior(radii[:, None] * [1.0, 0.0]))

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
        return Atoms(x, w, posterior(x))

    world.discretized_atoms = discretized_atoms
    return world


def make_bernoulli_uv_world() -> World:
    """X = (U, V), two i.i.d. fair bits; Y = V; the group flips V.

    The orbit under the flip is determined by U alone, P(Y=1 | U) = 1/2,
    and the label is not group-invariant: the canonical over-invariance
    counterexample.
    """
    family = FlipVFamily()

    def sample_xy(rng, n):
        x = rng.integers(0, 2, size=(n, 2))
        return x.astype(np.float64), x[:, 1]

    world = World(
        name="bernoulli_uv",
        d_x=2,
        transforms=family,
        sample_xy=sample_xy,
        posterior=lambda x: np.eye(2)[x[:, 1].astype(np.int64)],
        orbit_map=lambda x: x[:, 0].copy(),
        nuisance=lambda x, deltas: x[:, 1].copy(),
        factors=lambda x: x.copy(),
        factor_names=["u", "v"],
        a1_invariant=False,
        n_classes=2,
    )

    def atoms() -> Atoms:
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        return Atoms(x, np.full(4, 0.25), world.posterior(x))

    def t_atoms():
        t = np.array([0.0, 1.0])
        w = np.array([0.5, 0.5])
        post = np.full((2, 2), 0.5)  # P(Y=1 | U) = 1/2 for both orbits
        return Atoms(t, w, post)

    world.atoms = atoms
    world.t_atoms = t_atoms
    return world


def make_six_nine_world(center_x: float = 3.0, center_y: float = 0.0,
                        sigma: float = 0.5) -> World:
    """Two Gaussian clusters at +c (class 0) and -c (class 1); the group is
    the 180-degree rotation, which maps each cluster onto the other, so the
    label is not invariant.  c = (center_x, center_y).  The label is the
    drawn cluster; its posterior weighs the two clusters' densities."""
    c = np.array([center_x, center_y], dtype=np.float64)
    family = NegationFamily()

    def sample_xy(rng, n):
        y = rng.integers(0, 2, size=n)
        signs = (1.0 - 2.0 * y)[:, None]
        return signs * c + sigma * rng.normal(size=(n, 2)), y

    def orbit_map(x):
        # canonical representative: the lexicographically larger of {x, -x}
        flip = (x[:, 0] < 0) | ((x[:, 0] == 0) & (x[:, 1] < 0))
        out = x.copy()
        out[flip] *= -1.0
        return out

    def densities(x):   # (n, 2), unnormalized
        d_pos = np.sum((x - c) ** 2, axis=1)
        d_neg = np.sum((x + c) ** 2, axis=1)
        return np.column_stack([np.exp(-0.5 * d_pos / sigma ** 2),
                                np.exp(-0.5 * d_neg / sigma ** 2)])

    def posterior(x):
        g = densities(x)
        return g / g.sum(axis=1, keepdims=True)

    world = World(
        name="six_nine",
        d_x=2,
        transforms=family,
        sample_xy=sample_xy,
        posterior=posterior,
        orbit_map=orbit_map,
        nuisance=lambda x, deltas: np.asarray(deltas, dtype=np.float64),
        a1_invariant=False,
        n_classes=2,
    )

    def discretized_atoms(resolution: int) -> Atoms:
        lim = np.abs(c).max() + 4.0 * sigma
        axis = np.linspace(-lim, lim, resolution)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        x = np.column_stack([xx.ravel(), yy.ravel()])
        w = densities(x).sum(axis=1)
        w /= w.sum()
        return Atoms(x, w, posterior(x))

    world.discretized_atoms = discretized_atoms
    return world


WORLD_BUILDERS = {
    "rotation": make_rotation_world,
    "bernoulli_uv": make_bernoulli_uv_world,
    "six_nine": make_six_nine_world,
}


# ---------------------------------------------------------------------------
# Batch export (inputs, views and factors as CSV for external tools; it
# holds no code columns z_*, so it is not an input of ``pelab certify``)
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

