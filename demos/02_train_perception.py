"""Train an encoder with task-agnostic signals only.

The composite loss pulls codes of rotated views together (invariance),
keeps distinct inputs distinguishable (symmetric contrastive term), and
holds per-dimension variance above a floor so nothing collapses.  No label
ever reaches this code path: the batches are drawn without their y column.
"""

import numpy as np

from pelab import (ObjectiveSpec, Rng, TrainConfig, invariance_curve,
                   make_encoder, make_rotation_world, train_perception)
from pelab.metrics import geometry_diagnostics, uniform_grid
from pelab.svg import render_curve_svg

world = make_rotation_world()
enc0 = make_encoder("mlp1", 2, 4, 32, Rng(0), init_scale=4.0)

spec = ObjectiveSpec(beta_inv=1.0, use_nce=True, tau=0.5, sim="cosine",
                     gamma=1.0, w_var=10.0, w_cov=1.0)
cfg = TrainConfig(steps=1500, batch_size=256, lr=3e-3, optimizer="adam",
                  seed=0, objective=spec, sigma_aug=0.8)

enc1, log = train_perception(world, enc0, cfg)

print("loss components, first vs last step:")
for name in ("inv", "nce", "var", "cov"):
    a = log.components[0].get(name, 0.0)
    b = log.components[-1].get(name, 0.0)
    print(f"  {name:4s} {a:10.4f} -> {b:10.4f}")

grid = uniform_grid(np.pi, 33)
curve0 = invariance_curve(enc0, world, grid, 4096, Rng(1000))
curve1 = invariance_curve(enc1, world, grid, 4096, Rng(1000))
print(f"\ninvariance-curve AUC: {curve0.auc:.2f} (untrained) -> "
      f"{curve1.auc:.2f} (trained), ratio {curve1.auc / curve0.auc:.3f}")

z = enc1.forward(world.sample_xy(Rng(2000), 4096)[0])
geo = geometry_diagnostics(z, gamma=1.0)
print("per-dimension variance after training:",
      [round(v, 3) for v in geo["per_dim_variance"]],
      "(floor gamma = 1.0: no collapse)")

for name, curve in (("untrained", curve0), ("trained", curve1)):
    path = f"invariance_{name}.svg"
    with open(path, "w") as fh:
        fh.write(render_curve_svg(curve.alphas, curve.values,
                                  f"D(alpha), {name} (auc={curve.auc:.3g})"))
    print("wrote", path)
