import inspect

import numpy as np
import pytest

from pelab.errors import ContractViolation
from pelab.numerics import Rng
from pelab.worlds import (WORLD_BUILDERS, export_batch_csv, make_rotation_world,
                          rho_batch,
                          sample_batch)


def test_rotation_orbit_map_is_radius(rotation_world):
    t = rotation_world.orbit_map(np.array([[0.0, 1.0]]))
    assert t[0] == 1.0


def test_rotation_half_turn(rotation_world):
    out = rotation_world.transforms.apply(np.array([np.pi]),
                                          np.array([[1.0, 0.0]]))
    assert np.allclose(out, [[-1.0, 0.0]], atol=1e-12)


def test_rotation_label_invariant_on_samples(rotation_world, rng):
    batch = sample_batch(rotation_world, 10_000, rng)
    y = rotation_world.label_fn(batch.x)
    yt = rotation_world.label_fn(batch.x_plus)
    assert int(np.sum(y != yt)) == 0


def test_bernoulli_flip_action(bernoulli_world):
    out = bernoulli_world.transforms.apply(np.array([1.0]),
                                           np.array([[0.0, 1.0]]))
    assert np.array_equal(out, [[0.0, 0.0]])


def test_bernoulli_orbit_merges_v(bernoulli_world):
    t = bernoulli_world.orbit_map(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert t[0] == t[1]


def test_bernoulli_posterior_is_half_given_u(bernoulli_world):
    atoms = bernoulli_world.atoms()
    for u in (0.0, 1.0):
        mask = atoms.x[:, 0] == u
        w = atoms.weight[mask]
        post = np.sum(w[:, None] * atoms.posterior[mask], axis=0) / w.sum()
        assert post[1] == 0.5


def test_bernoulli_empirical_bit_frequency(bernoulli_world):
    batch = sample_batch(bernoulli_world, 10_000, Rng(77))
    p_u = float(np.mean(batch.x[:, 0]))
    assert 0.48 <= p_u <= 0.52


def test_six_nine_rotation_swaps_clusters(six_nine_world):
    rng = Rng(5)
    x = six_nine_world.sample_x(rng, 4000)
    y = six_nine_world.label_fn(x)
    x0 = x[y == 0]
    rotated = six_nine_world.transforms.apply(np.ones(x0.shape[0]), x0)
    # rotating class 0 lands in the class-1 region; the 3-sigma box around
    # -c captures it (the Euclidean 3-sigma ball only holds 98.9% mass in 2d)
    assert np.mean(six_nine_world.label_fn(rotated) == 1) >= 0.99
    box = np.all(np.abs(rotated - (-six_nine_world.center))
                 <= 3.0 * six_nine_world.sigma, axis=1)
    assert np.mean(box) >= 0.99


def test_six_nine_orbit_representative_canonical(six_nine_world):
    x = Rng(6).normal(size=(200, 2)) * 3.0
    assert np.array_equal(six_nine_world.orbit_map(x),
                          six_nine_world.orbit_map(-x))


def test_a1_flags(rotation_world, bernoulli_world, six_nine_world):
    assert rotation_world.a1_invariant
    assert not bernoulli_world.a1_invariant
    assert not six_nine_world.a1_invariant


def test_a1_false_worlds_have_violating_pairs(bernoulli_world, six_nine_world):
    for world in (bernoulli_world, six_nine_world):
        batch = sample_batch(world, 1000, Rng(8))
        y = world.label_fn(batch.x)
        yt = world.label_fn(batch.x_plus)
        assert int(np.sum(y != yt)) > 0, world.name


def test_sample_batch_rejects_empty(rotation_world, rng):
    with pytest.raises(ContractViolation):
        sample_batch(rotation_world, 0, rng)


def test_sample_batch_deterministic(rotation_world):
    b1 = sample_batch(rotation_world, 64, Rng(123))
    b2 = sample_batch(rotation_world, 64, Rng(123))
    assert b1.x.tobytes() == b2.x.tobytes()
    assert b1.x_plus.tobytes() == b2.x_plus.tobytes()
    assert b1.deltas.tobytes() == b2.deltas.tobytes()


def test_sample_batch_rows_aligned(rotation_world, rng):
    batch = sample_batch(rotation_world, 32, rng)
    rebuilt = rotation_world.transforms.apply(batch.deltas, batch.x)
    assert np.array_equal(batch.x_plus, rebuilt)


# the group law of each family: the inverse of delta, and the composition
# of two deltas; the flip and the half turn are involutions
_INVERSE = {"rotation_world": np.negative, "bernoulli_world": np.asarray,
            "six_nine_world": np.asarray}
_COMPOSE = {"rotation_world": np.add,
            "six_nine_world": lambda a, b: np.mod(a + b, 2.0)}


@pytest.mark.parametrize("world_fixture",
                         ["rotation_world", "bernoulli_world", "six_nine_world"])
def test_transforms_are_bijections(world_fixture, request):
    world = request.getfixturevalue(world_fixture)
    batch = sample_batch(world, 500, Rng(9))
    fam = world.transforms
    back = fam.apply(_INVERSE[world_fixture](batch.deltas), batch.x_plus)
    assert np.max(np.abs(back - batch.x)) <= 1e-9


@pytest.mark.parametrize("world_fixture", ["rotation_world", "six_nine_world"])
def test_rho_is_group_homomorphism(world_fixture, request):
    world = request.getfixturevalue(world_fixture)
    fam = world.transforms
    rng = Rng(10)
    d1 = fam.sample_delta(rng, 50)
    d2 = fam.sample_delta(rng, 50)
    for a, b in zip(d1, d2):
        lhs = fam.rho(a) @ fam.rho(b)
        rhs = fam.rho(float(_COMPOSE[world_fixture](a, b)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


@pytest.mark.parametrize("world_fixture",
                         ["rotation_world", "bernoulli_world", "six_nine_world"])
def test_orbit_map_constant_on_orbits(world_fixture, request):
    world = request.getfixturevalue(world_fixture)
    batch = sample_batch(world, 1000, Rng(11))
    t = np.asarray(world.orbit_map(batch.x), dtype=np.float64)
    tp = np.asarray(world.orbit_map(batch.x_plus), dtype=np.float64)
    dev = np.abs(t - tp) if t.ndim == 1 else np.linalg.norm(t - tp, axis=1)
    if world.name == "rotation":
        assert dev.max() <= 1e-9
    else:
        assert dev.max() == 0.0  # exact for the discrete group actions


@pytest.mark.parametrize("kind", sorted(WORLD_BUILDERS))
def test_sample_delta_takes_the_view_spread(kind):
    # every family draws through one signature; rotations draw N(0, sigma)
    # angles when given a spread, the finite groups ignore it
    fam = WORLD_BUILDERS[kind]().transforms
    params = inspect.signature(fam.sample_delta).parameters
    assert list(params) == ["rng", "n", "sigma"]
    assert params["sigma"].default is None
    spread = fam.sample_delta(Rng(21), 500, sigma=0.8)
    if fam.kind == "rotation2d":
        assert spread.tobytes() == Rng(21).normal(0.0, 0.8, 500).tobytes()
    else:
        assert spread.tobytes() == fam.sample_delta(Rng(21), 500).tobytes()


def test_rho_batch_rejects_wrong_code_dim(rotation_world):
    with pytest.raises(ContractViolation):
        rho_batch(rotation_world.transforms, np.array([0.1]), d_z=3)


def _per_pair_rho(kind, delta):
    """The former one-pair rho of each family, kept as the oracle."""
    if kind == "rotation2d":
        c, s = np.cos(float(delta)), np.sin(float(delta))
        return np.array([[c, -s], [s, c]])
    return -np.eye(2) if delta >= 0.5 else np.eye(2)


@pytest.mark.parametrize("world_fixture", ["rotation_world", "six_nine_world"])
def test_rho_batch_equals_the_per_pair_stack(world_fixture, request):
    fam = request.getfixturevalue(world_fixture).transforms
    rng = Rng(14)
    draws = [fam.sample_delta(rng, 4096),
             fam.sample_delta(rng, 4096, sigma=0.8)
             if fam.magnitude_parameterized else fam.sample_delta(rng, 7),
             np.array([0.0, -0.0, 0.5, 1.0, np.pi, -np.pi / 2, 1e6])]
    for deltas in draws:
        mats = rho_batch(fam, deltas, 2)
        ref = np.stack([_per_pair_rho(fam.kind, d) for d in deltas])
        assert mats.tobytes() == ref.tobytes()
        for d, m in zip(deltas[:20], mats):
            assert fam.rho(d).tobytes() == m.tobytes()
    # one delta, given as a scalar, is one matrix
    assert fam.rho(0.25).shape == (2, 2)
    assert rho_batch(fam, 0.25, 2).shape == (1, 2, 2)


def test_discrete_radius_world_threshold():
    world = make_rotation_world(radius_values=(0.6, 0.9, 1.1, 1.4))
    law = world.t_atoms()
    assert np.array_equal(law.x, [0.6, 0.9, 1.1, 1.4])
    assert np.allclose(law.weight, 0.25)
    assert np.array_equal(law.posterior[:, 1], [0.0, 0.0, 1.0, 1.0])


def test_batch_csv_round_trip(tmp_path, bernoulli_world):
    batch = sample_batch(bernoulli_world, 25, Rng(13))
    path = tmp_path / "batch.csv"
    export_batch_csv(batch, path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    assert header == ["x_0", "x_1", "xp_0", "xp_1", "delta", "v", "t", "y"]
    assert np.array_equal(rows[:, 0:2], batch.x)
    assert np.array_equal(rows[:, 2:4], batch.x_plus)
    assert np.array_equal(rows[:, 4], batch.deltas)
    assert np.array_equal(rows[:, 7], batch.y.astype(float))
