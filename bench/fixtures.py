"""Seeded input CSVs for the ``certify_codes`` workload.

Both files hold codes ``z_*`` of a seeded, untrained ``mlp1`` encoder, since
``export_batch_csv`` writes no code columns.  Every value is written with
``repr`` so it round-trips exactly.

* rotation CSV: 2 000 rows of ``z_*``, ``v``, ``t``, ``y``.  ``v`` (the applied
  angle) and ``t`` (the radius) stay continuous and unbinned, so the orbit
  groups (a median split of ``t``) stay under the 2 048-row cap, and the
  leakage probe sees one class per distinct angle.
* bernoulli CSV: 10 000 rows of ``z_*``, ``x_*``, ``v``, ``t``, ``y`` from the
  two-bit world.  Its two orbit groups exceed the cap, and the discrete
  ``x_*`` columns enable the sufficiency metric.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pelab.numerics import Rng, make_encoder
from pelab.worlds import (make_bernoulli_uv_world, make_rotation_world,
                          sample_batch)

ROTATION_ROWS = 2000
BERNOULLI_ROWS = 10000


def _write_csv(path: Path, header: list[str], columns) -> None:
    data = np.column_stack(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in data.tolist():
            fh.write(",".join(repr(v) for v in row) + "\n")


def _codes_table(world, n: int, seed: int):
    enc_rng, data_rng = Rng(seed).split(2)
    enc = make_encoder("mlp1", world.d_x, 4, 32, enc_rng, init_scale=4.0)
    batch = sample_batch(world, n, data_rng)
    z = enc.forward(batch.x)
    return batch, [f"z_{j}" for j in range(z.shape[1])], z


def write_fixtures(out_dir: Path, seed: int) -> dict:
    """Write both CSVs for ``seed`` into ``out_dir``; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"rotation": out_dir / f"rotation_{seed}.csv",
             "bernoulli": out_dir / f"bernoulli_{seed}.csv"}

    batch, z_names, z = _codes_table(make_rotation_world(), ROTATION_ROWS, seed)
    _write_csv(paths["rotation"], z_names + ["v", "t", "y"],
               [z, batch.v, batch.t, batch.y])

    batch, z_names, z = _codes_table(make_bernoulli_uv_world(), BERNOULLI_ROWS,
                                     seed)
    x_names = [f"x_{j}" for j in range(batch.x.shape[1])]
    _write_csv(paths["bernoulli"], z_names + x_names + ["v", "t", "y"],
               [z, batch.x, batch.v, batch.t, batch.y])
    return paths
