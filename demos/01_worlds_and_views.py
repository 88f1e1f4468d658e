"""Tour of the synthetic worlds: sampling, group actions, orbit maps.

Each world bundles one joint law of (X, Y) -- ``sample_xy`` draws inputs
with their labels, ``posterior`` gives P(Y | X = x) -- a transform family
with its sampling measure, an orbit map that is constant on group orbits,
and a nuisance variable.  Only the theory/probe code may touch the labels.
Run top to bottom; everything is seeded.
"""

import numpy as np

from pelab import (Rng, export_batch_csv, make_bernoulli_uv_world,
                   make_rotation_world, make_six_nine_world, sample_batch)

rng = Rng(0)

# --- rotation world: radii carry the signal, angles are pure nuisance ------
world = make_rotation_world(r_min=0.5, r_max=1.5)
batch = sample_batch(world, 8, rng)
print("rotation world")
print("  x[0]        =", np.round(batch.x[0], 3))
print("  view T_d x  =", np.round(batch.x_plus[0], 3), "(delta =", round(float(batch.deltas[0]), 3), "rad)")
print("  orbit stat  =", np.round(batch.t[:4], 3), "(the radius)")
print("  label       =", batch.y[:4], "(1[r > 1], invariant to rotation)")

# orbit constancy: the radius does not move under the group
t_after = world.orbit_map(batch.x_plus)
print("  max |t(Tx) - t(x)| over batch:", float(np.max(np.abs(t_after - batch.t))))

# --- two-bit world: the group flips the label bit ----------------------------
buv = make_bernoulli_uv_world()
bb = sample_batch(buv, 10_000, rng)
print("\nbernoulli_uv world")
print("  x rows are (U, V); tau.(u, v) = (u, 1 - v)")
flips = bb.deltas == 1.0
changed = np.any(bb.x[flips] != bb.x_plus[flips], axis=1)
print("  tau applied on", int(flips.sum()), "rows; all of them changed V:", bool(changed.all()))
moved = np.any(buv.posterior(bb.x) != buv.posterior(bb.x_plus), axis=1)
print("  P(Y | x) moved by the group on a share of", f"{np.mean(moved):.3f}",
      "(the label is NOT group-invariant here)")

# --- six-nine world: 180-degree rotation swaps the classes -------------------
sn = make_six_nine_world()
xs, ys = sn.sample_xy(rng, 5000)
rotated = sn.transforms.apply(np.ones(len(xs)), xs)
print("\nsix_nine world")
print("  rotating a class-0 draw gives a point of mean P(Y=1 | T x) =",
      f"{np.mean(sn.posterior(rotated[ys == 0])[:, 1]):.4f}")

# --- batches export to CSV for external tools -------------------------------
export_batch_csv(bb, "bernoulli_batch.csv")
print("\nwrote bernoulli_batch.csv (x_*, xp_*, delta, v, t, y columns)")
