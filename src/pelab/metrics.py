"""Task-agnostic certification metrics computed on frozen encoders.

The suite covers invariance curves with AUC summaries, nuisance leakage
(probe AUC and normalized mutual information), smoothness, geometry
diagnostics, factor disentanglement, nuisance Fisher trace, a sufficiency
surrogate, two-sample separability, and secondary label probes.

Each metric is defined once, in ``REGISTRY``, by the inputs it needs and the
body that adds its report entries.  ``certify`` runs the registry over one
``MetricInputs``; the frozen-encoder suite, the external-CSV audit and the
training snapshots differ only in the inputs they build.  Results are
assembled into a MetricReport whose serialization is byte-deterministic for
fixed config and seed.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import infotheory as it
from .errors import ContractViolation, DegenerateError, NotApplicableError
from .numerics import (Encoder, Rng, as_samples, distinct_rows, evenly_spaced,
                       matmul, row_blocks)
from .objectives import diversity_value_grad
from .probes import fit_linear_probe, evaluate_probe, probe_split_evaluate
from .worlds import World, sample_batch


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass
class Curve:
    """D(alpha) over a strictly increasing magnitude grid, with its
    trapezoidal area."""
    alphas: np.ndarray
    values: np.ndarray
    auc: float = field(init=False)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.alphas.ndim != 1 or self.alphas.shape != self.values.shape:
            raise ContractViolation("curve grid/values must be aligned 1-d arrays")
        if np.any(np.diff(self.alphas) <= 0):
            raise ContractViolation("curve grid must be strictly increasing")
        if np.any(self.values < 0):
            raise ContractViolation("curve values must be >= 0")
        self.auc = float(np.trapezoid(self.values, self.alphas))

    def to_dict(self):
        return {"alphas": [float(a) for a in self.alphas],
                "values": [float(v) for v in self.values],
                "auc": self.auc}

def invariance_curve(enc: Encoder, world: World, grid, n: int, rng: Rng) -> Curve:
    """Monte Carlo D(alpha) = E||f(x) - f(tau_alpha x)||^2 on a magnitude grid.

    One input sample of size n is reused across all grid points; alpha = 0 is
    the identity, so D(0) is exactly zero.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid[0] != 0.0:
        raise ContractViolation("curve grid must include alpha = 0 first")
    if not world.transforms.magnitude_parameterized:
        raise NotApplicableError(
            f"world {world.name!r} has no magnitude-parameterized transforms")
    x = world.sample_xy(rng, n)[0]
    z = enc.forward(x)
    values = np.empty(grid.size)
    for i, alpha in enumerate(grid):
        xa = world.transforms.apply(np.full(n, alpha), x)
        diff = z - enc.forward(xa)
        values[i] = float(np.mean(np.sum(diff * diff, axis=1)))
    return Curve(grid, values)


def uniform_grid(alpha_max: float, points: int) -> np.ndarray:
    return np.linspace(0.0, alpha_max, points)


# ---------------------------------------------------------------------------
# Leakage
# ---------------------------------------------------------------------------

# below this many rows a held-out probe AUC or a plug-in MI over up to
# n_bins**max_dims cells is mostly estimator noise
_NUISANCE_N_MIN = 100


def leakage_probe(zbatch, v, rng: Rng) -> dict:
    """Linear logistic probe predicting the nuisance from the code.

    Returns held-out one-vs-rest macro AUC, error rate, and the symmetric
    leakage score 2*|AUC - 1/2| (AUC far from 1/2 in either direction means
    the nuisance is decodable).
    """
    z = as_samples(zbatch)
    if z.shape[0] < _NUISANCE_N_MIN:
        raise DegenerateError(f"leakage probe requires n >= {_NUISANCE_N_MIN}")
    v_codes = it.codes_of(v)
    if np.unique(v_codes).size < 2:
        raise DegenerateError("AUC is undefined for a single-class nuisance")
    _, ev = probe_split_evaluate(z, v_codes, rng)
    return {"auc": ev.auc, "error": ev.error,
            "leakage_score": float(abs(ev.auc - 0.5) * 2.0),
            "n_heldout": ev.n}


def normalized_mi(zbatch, v, n_bins: int = 8) -> float:
    """Plug-in I(binned Z; V) / H(V); quantile bins on at most two leading
    principal directions."""
    z = np.asarray(zbatch, dtype=np.float64)
    if z.shape[0] < _NUISANCE_N_MIN:
        raise DegenerateError(f"normalized MI requires n >= {_NUISANCE_N_MIN}")
    v_codes = it.codes_of(v)
    h_v = it.entropy_bits(v_codes)
    if h_v <= 0.0:
        raise DegenerateError("H(V) = 0: normalized MI undefined")
    z_codes = it.discretize_codes(z, n_bins=n_bins)
    return (h_v - it.conditional_entropy_bits(v_codes, z_codes)) / h_v


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def smoothness(enc: Encoder, world: World, n: int, rng: Rng) -> float:
    """Monte Carlo E||d f / d x||_F^2 (Jacobian energy), from the Jacobians
    of the whole sample at once."""
    x = world.sample_xy(rng, n)[0]
    jac = enc.input_jacobians(x)
    return float(np.mean(np.sum((jac * jac).reshape(len(jac), -1), axis=1)))


def geometry_diagnostics(zbatch, gamma: float) -> dict:
    """Variance-floor shortfall, squared off-diagonal covariance and
    per-dimension variances of a code batch.  Finite codes whose second
    moments overflow float64 (entries near 1e154 and beyond) raise
    DegenerateError, and the overflow prints no warning."""
    z = np.asarray(zbatch, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        var_violation, cov_offdiag, _ = diversity_value_grad(z, gamma, 1.0,
                                                             1.0)
        per_dim = z.var(axis=0, ddof=1)
    if np.isfinite(z).all() and not (np.isfinite(cov_offdiag)
                                     and np.isfinite(per_dim).all()):
        raise DegenerateError("the codes' second moments overflow float64")
    return {"var_floor_violation": float(var_violation),
            "cov_offdiag": float(cov_offdiag),
            "per_dim_variance": [float(v) for v in per_dim],
            "gamma": float(gamma)}


_FISHER_STEP = 1e-3


def fisher_trace(enc: Encoder, world: World, n: int, rng: Rng) -> float:
    """Expected squared sensitivity of the code to the transform parameter at
    the identity: trace of E[J_delta J_delta^T] via central differences."""
    fam = world.transforms
    if not fam.smooth:
        raise NotApplicableError(
            f"transform family {fam.kind!r} is not smooth in delta")
    x = world.sample_xy(rng, n)[0]
    zp = enc.forward(fam.apply(np.full(n, _FISHER_STEP), x))
    zm = enc.forward(fam.apply(np.full(n, -_FISHER_STEP), x))
    j = (zp - zm) / (2.0 * _FISHER_STEP)
    return float(np.mean(np.sum(j * j, axis=1)))


# ---------------------------------------------------------------------------
# Disentanglement and sufficiency
# ---------------------------------------------------------------------------

def disentanglement_nmi(zbatch, factors, n_bins: int = 8) -> dict:
    """Sum over factors of the shortfall of the best dimension's NMI,
    I / sqrt(H_dim H_factor) (0 when an entropy is 0).  Constant factors
    are skipped and recorded as warnings."""
    z = as_samples(zbatch)
    factors = as_samples(factors)
    z_codes = [it.quantile_codes(z[:, d], n_bins) for d in range(z.shape[1])]
    z_bits = [it.entropy_bits(zc) for zc in z_codes]
    score = 0.0
    per_factor = []
    skipped = []
    for u in range(factors.shape[1]):
        col = factors[:, u]
        if np.unique(col).size < 2:
            skipped.append(u)
            continue
        u_codes = it.quantile_codes(col, n_bins)
        hu = it.entropy_bits(u_codes)
        best = max(
            (hu - it.conditional_entropy_bits(u_codes, zc)) / np.sqrt(hz * hu)
            if hz > 0.0 and hu > 0.0 else 0.0
            for zc, hz in zip(z_codes, z_bits))
        per_factor.append(float(best))
        score += 1.0 - best
    return {"score": float(score), "best_nmi_per_factor": per_factor,
            "skipped_constant_factors": skipped}


_DISCRETE_SUPPORT_MAX = 64


def sufficiency_surrogate(zbatch, xbatch, orbit_ids, n_bins: int = 8) -> float:
    """Plug-in conditional mutual information in bits,
    I(X; Z | T) = H(X | T) - H(X | Z, T).

    Requires a finitely supported input space; continuous X is rejected with
    a not-applicable error.  Codes with small discrete support are used
    exactly, otherwise they are quantile-binned.
    """
    x_codes = it.rows_as_codes(xbatch)
    if np.unique(x_codes).size > _DISCRETE_SUPPORT_MAX:
        raise NotApplicableError("sufficiency surrogate requires discrete X")
    z = as_samples(zbatch)
    z_codes = it.rows_as_codes(z)
    if np.unique(z_codes).size > _DISCRETE_SUPPORT_MAX:
        z_codes = it.discretize_codes(z, n_bins=n_bins)
    t_codes = it.rows_as_codes(orbit_ids)
    zt_codes = it.joint_codes(z_codes, t_codes)
    return (it.conditional_entropy_bits(x_codes, t_codes)
            - it.conditional_entropy_bits(x_codes, zt_codes))


# ---------------------------------------------------------------------------
# Separability
# ---------------------------------------------------------------------------

_BANDWIDTH_SAMPLE_MAX = 512

# A squared distance taken as (aa + bb) - 2ab rounds by about (d + 2) eps
# (aa + bb).  Below _NEAR (aa + bb) that is a large share of it, so such
# near pairs take their distance from differences; at every other pair the
# rounding is at most (d + 2) eps / _NEAR of the distance, and it moves a
# kernel entry exp(-d^2 / 2h^2) by at most (d + 2) eps / (e _NEAR).  Where
# max(aa + bb) / (2 h^2) <= 1 / (e _NEAR) no pair's rounding moves an entry
# by more than that either, and the kernel sums leave the distances as
# they are: finding the near pairs of every kernel block made separability
# on two 1 000-row groups of 4-d codes 11.4 -> 17.8 ms.  The bandwidth's
# one 512-row median always takes them.
_NEAR = 2.0 ** -8


def _near_matters(sq_sum_max: float, two_h2: float) -> bool:
    """Whether the expansion's rounding at squared norms summing to at most
    ``sq_sum_max`` can move a kernel entry at the scale ``two_h2`` = 2 h^2
    by more than it moves one at a pair that is not near:
    max(aa + bb) / (2 h^2) > 1 / (e _NEAR)."""
    return sq_sum_max * np.e * _NEAR > two_h2


def _near_from_differences(d2, sums, a, b):
    """Overwrite the entries of ``d2`` = (aa + bb) - 2 a b' (rows of ``a``
    against rows of ``b``; a view will do) that lie below ``_NEAR``
    (aa + bb) with |a_i - b_j|^2 summed from differences; ``sums`` holds
    aa + bb and is scaled in place.  Bitwise-equal rows get exactly 0."""
    sums *= _NEAR
    k = np.flatnonzero(d2 < sums)
    if k.size:
        i, j = np.divmod(k, d2.shape[1])
        # np.take gathers rows several times faster than a[i]
        diff = np.take(a, i, axis=0)
        diff -= np.take(b, j, axis=0)
        d2.flat[k] = np.einsum("ij,ij->i", diff, diff)


def median_bandwidth_sq(pooled: np.ndarray) -> float:
    """Half the median squared distance over the pairs of an evenly spaced
    subsample of at most 512 rows, or 1.0 when that median is 0.

    The distances are taken as max((aa + bb) - 2 ab, 0) in the row blocks
    of ``numerics.row_blocks`` (the reported bandwidth depends on this
    order of operations), the near pairs' from differences
    (``_near_from_differences``), and each block's pairs above the diagonal
    are written into one condensed vector of n (n - 1) / 2 entries, so no
    n x n matrix exists.  Two bitwise-equal rows are at distance exactly 0,
    not the rounding noise of that formula."""
    pooled = evenly_spaced(pooled, _BANDWIDTH_SAMPLE_MAX)
    n, d = pooled.shape
    sq = np.sum(pooled * pooled, axis=1)
    cols = np.arange(n)
    d2 = np.empty(n * (n - 1) // 2)
    at = 0
    for lo, hi in row_blocks(n, d, n):
        dist = np.matmul(pooled[lo:hi], pooled.T)
        dist *= 2.0
        sums = sq[lo:hi, None] + sq
        np.subtract(sums, dist, out=dist)
        # only the columns from the diagonal block on are kept
        _near_from_differences(dist[:, lo:], sums[:, lo:], pooled[lo:hi],
                               pooled[lo:])
        np.maximum(dist, 0.0, out=dist)
        upper = dist[cols > cols[lo:hi, None]]
        d2[at:at + upper.size] = upper
        at += upper.size
    med = float(np.median(d2, overwrite_input=True))
    return med / 2.0 if med > 0 else 1.0


_SQUARES_OVERFLOW = "the codes' squared distances overflow float64"


def _fisher_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """Squared mean gap over summed within-group variance (inf when the
    groups have no spread).  Finite codes whose squared deviations overflow
    float64 raise DegenerateError, and the overflow prints no warning."""
    if a.shape[0] < 20 or b.shape[0] < 20:
        raise DegenerateError("separability requires >= 20 samples per group")
    with np.errstate(over="ignore", invalid="ignore"):
        within = float(np.sum(a.var(axis=0, ddof=1)) + np.sum(b.var(axis=0, ddof=1)))
        gap = float(np.sum((a.mean(axis=0) - b.mean(axis=0)) ** 2))
    if not (np.isfinite(within) and np.isfinite(gap)):
        raise DegenerateError(_SQUARES_OVERFLOW)
    return gap / within if within > 0 else float("inf")


def _kernel_sum(a: np.ndarray, wa: np.ndarray, b: np.ndarray,
                wb: np.ndarray, inv_2h2: float, same: bool) -> float:
    """Sum of wa_i wb_j exp(-|a_i - b_j|^2 * inv_2h2) over all pairs (i, j),
    built one ``numerics.row_blocks`` block (one BLAS call) at a time so
    that no len(a) x len(b) matrix exists.  With ``same`` (b is a, wb is wa)
    the pairs of an input row with itself, sum_i wa_i k(a_i, a_i), are left
    out and only the blocks on and right of the diagonal are formed.
    Unit weights (rows all distinct) change no bit and are not multiplied
    in, so those sums cost no pass over the kernel entries.

    Near pairs take their squared distance from differences where that
    can matter (``_near_matters``, ``_near_from_differences``)."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    near = _near_matters(aa.max() + bb.max(), 1.0 / inv_2h2)
    weighted = wa.max() > 1 or wb.max() > 1
    total = 0.0
    for lo, hi in row_blocks(a.shape[0], a.shape[1], b.shape[0]):
        cols = slice(lo, None) if same else slice(None)
        blk = matmul(a[lo:hi], b[cols].T)
        blk *= -2.0
        blk += aa[lo:hi]
        blk += bb[:, cols]
        if near:
            _near_from_differences(blk, aa[lo:hi] + bb[:, cols], a[lo:hi],
                                   b[cols])
        np.maximum(blk, 0.0, out=blk)
        blk *= -inv_2h2
        np.exp(blk, out=blk)
        if weighted:
            blk *= wa[lo:hi, None]
        if same:
            # the first hi - lo columns are the diagonal block; the rest
            # stand for themselves and their mirror images below it
            diagonal = np.trace(blk)
            if weighted:
                blk *= wb[cols]
            total += ((blk[:, :hi - lo].sum() - diagonal)
                      + 2.0 * blk[:, hi - lo:].sum())
        else:
            if weighted:
                blk *= wb
            total += blk.sum()
        del blk                   # freed before the next block is formed
    return float(total)


def separability(zbatch_a, zbatch_b) -> dict:
    """Fisher ratio and unbiased RBF-kernel MMD^2 between two code groups.

    The kernel sums run over the distinct rows of each group, each weighted
    by its count (``numerics.distinct_rows``), and are accumulated one block
    of rows at a time, so memory stays O(block x distinct rows): one
    32 x 2 048 block (0.5 MB) for two 2 048-row groups of 4-d codes, against
    32 MB for each full kernel matrix.  The bandwidth holds a 1 MB condensed
    vector of distances and one row block.  Codes whose squared distances
    overflow float64 raise DegenerateError, silently."""
    a, b = as_samples(zbatch_a), as_samples(zbatch_b)
    m, n = a.shape[0], b.shape[0]
    fisher = _fisher_ratio(a, b)

    with np.errstate(over="ignore", invalid="ignore"):
        h2 = median_bandwidth_sq(np.vstack([a, b]))
        inv_2h2 = 1.0 / (2.0 * h2)
        first, wa = distinct_rows(a)
        a = a[first]
        first, wb = distinct_rows(b)
        b = b[first]
        mmd2 = (_kernel_sum(a, wa, a, wa, inv_2h2, True) / (m * (m - 1))
                + _kernel_sum(b, wb, b, wb, inv_2h2, True) / (n * (n - 1))
                - 2.0 * _kernel_sum(a, wa, b, wb, inv_2h2, False) / (m * n))
    if not (np.isfinite(h2) and np.isfinite(mmd2)):
        raise DegenerateError(_SQUARES_OVERFLOW)
    return {"fisher_ratio": float(fisher), "mmd2": float(mmd2),
            "bandwidth_sq": h2}


def radial_fisher(zbatch_a, zbatch_b) -> float:
    """Fisher ratio on code norms only (interpretation of the 'radial'
    separability diagnostic; flagged as such in reports)."""
    with np.errstate(over="ignore"):   # an overflowing norm fails below
        na = np.linalg.norm(as_samples(zbatch_a), axis=1)
        nb = np.linalg.norm(as_samples(zbatch_b), axis=1)
    return _fisher_ratio(na[:, None], nb[:, None])


# ---------------------------------------------------------------------------
# Probe data-efficiency (secondary)
# ---------------------------------------------------------------------------

_HELDOUT_N = 2000


def probe_data_efficiency(enc: Encoder, world: World, label_budgets,
                          rng: Rng, pool_n: int = 4096) -> dict:
    """Held-out accuracy of a linear probe per label budget (nested subsets
    of one labeled pool).  Secondary metric: uses labels by design."""
    budgets = [int(b) for b in label_budgets]
    if any(b < 2 for b in budgets):
        raise ContractViolation("label budgets must be >= 2")
    if max(budgets) > pool_n:
        raise ContractViolation(
            f"budget {max(budgets)} exceeds available pool of {pool_n}")
    data_rng, probe_rng = rng.split(2)
    x_pool, y_pool = world.sample_xy(data_rng, pool_n)
    z_pool = enc.forward(x_pool)
    x_test, y_test = world.sample_xy(data_rng, _HELDOUT_N)
    z_test = enc.forward(x_test)
    acc = {}
    for budget in budgets:
        head = fit_linear_probe(z_pool[:budget], y_pool[:budget], probe_rng)
        acc[str(budget)] = evaluate_probe(head, z_test, y_test).accuracy
    return {"accuracy_per_budget": acc, "heldout_n": _HELDOUT_N,
            "secondary": True}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class MetricEntry:
    value: float | None = None
    status: str = "ok"          # ok | not_applicable | degenerate
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {"value": self.value, "status": self.status, "detail": self.detail}

@dataclass
class MetricReport:
    metrics: dict = field(default_factory=dict)    # name -> MetricEntry
    curves: dict = field(default_factory=dict)     # name -> Curve
    theory: dict = field(default_factory=dict)     # name -> verdict dict
    notes: list = field(default_factory=list)
    config_hash: str = ""
    seed: int = 0

    def add(self, name: str, value=None, status="ok", **detail):
        """Record one entry; an entry whose value or detail holds a
        non-finite number is recorded as degenerate with a null value."""
        try:
            json.dumps([value, detail], allow_nan=False)
        except ValueError:
            value, status, detail = None, "degenerate", {
                "reason": "non-finite value or detail"}
        self.metrics[name] = MetricEntry(value=value, status=status, detail=detail)

    def to_json(self) -> str:
        doc = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "metrics": {k: v.to_dict() for k, v in sorted(self.metrics.items())},
            "curves": {k: v.to_dict() for k, v in sorted(self.curves.items())},
            "theory": self.theory,
            "notes": self.notes,
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

@dataclass
class MetricSuiteOptions:
    n: int = 10000
    curve_points: int = 33
    curve_alpha_max: float = float(np.pi)
    gamma: float = 1.0
    mi_bins: int = 8
    probe_budgets: tuple = (64, 256, 1024)
    probe_pool: int = 4096
    probe_efficiency: bool = True


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass
class MetricInputs:
    """What a source of codes offers the registry; None marks an input the
    source does not have."""
    z: np.ndarray
    x: np.ndarray | None = None
    t: np.ndarray | None = None
    v: np.ndarray | None = None
    y: np.ndarray | None = None
    encoder: Encoder | None = None
    world: World | None = None


@dataclass(frozen=True)
class Metric:
    """One registry entry.  ``body(inputs, opts, rng, report)`` adds the
    report entries named by ``entries`` (default: ``name``); it runs only
    when every input named in ``needs`` is present."""
    name: str
    needs: tuple
    body: Callable
    entries: tuple = ()


def _invariance_body(inp, opts, rng, report):
    curve = invariance_curve(
        inp.encoder, inp.world,
        uniform_grid(opts.curve_alpha_max, opts.curve_points), opts.n, rng)
    report.curves["invariance"] = curve
    report.add("invariance_auc", value=curve.auc,
               grid_points=opts.curve_points, alpha_max=opts.curve_alpha_max,
               n=opts.n)


def _leakage_body(inp, opts, rng, report):
    res = leakage_probe(inp.z, inp.v, rng)
    report.add("leakage_probe_auc", value=res["auc"],
               leakage_score=res["leakage_score"], error=res["error"],
               n_heldout=res["n_heldout"])


def _nmi_body(inp, opts, rng, report):
    report.add("normalized_mi",
               value=normalized_mi(inp.z, inp.v, n_bins=opts.mi_bins),
               bins=opts.mi_bins, n=inp.z.shape[0])


def _smoothness_body(inp, opts, rng, report):
    report.add("smoothness",
               value=smoothness(inp.encoder, inp.world, opts.n, rng), n=opts.n)


def _geometry_body(inp, opts, rng, report):
    geo = geometry_diagnostics(inp.z, opts.gamma)
    report.add("var_floor_violation", value=geo["var_floor_violation"],
               gamma=opts.gamma)
    report.add("cov_offdiag", value=geo["cov_offdiag"])
    report.add("per_dim_variance", value=float(min(geo["per_dim_variance"])),
               per_dim=geo["per_dim_variance"])


def _disentanglement_body(inp, opts, rng, report):
    world = inp.world
    if world.factors is None:
        raise NotApplicableError("world exposes no generative factors")
    res = disentanglement_nmi(inp.z, world.factors(inp.x), n_bins=opts.mi_bins)
    report.add("disentanglement_nmi", value=res["score"],
               best_nmi_per_factor=res["best_nmi_per_factor"],
               skipped_constant_factors=res["skipped_constant_factors"],
               factor_names=world.factor_names)


def _fisher_trace_body(inp, opts, rng, report):
    report.add("fisher_trace",
               value=fisher_trace(inp.encoder, inp.world, opts.n, rng), n=opts.n)


def _sufficiency_body(inp, opts, rng, report):
    report.add("sufficiency_cmi_bits",
               value=sufficiency_surrogate(inp.z, inp.x, inp.t,
                                           n_bins=opts.mi_bins))


def _separability_body(inp, opts, rng, report):
    groups = _two_orbit_groups(inp.z, inp.t)
    if groups is None:
        raise DegenerateError("need two orbit groups with >= 20 samples")
    res = separability(*groups)
    report.add("fisher_ratio", value=res["fisher_ratio"],
               bandwidth_sq=res["bandwidth_sq"])
    report.add("mmd2", value=res["mmd2"], bandwidth_sq=res["bandwidth_sq"])
    report.add("radial_fisher", value=radial_fisher(*groups),
               interpretation="fisher ratio on code norms")


def _probe_efficiency_body(inp, opts, rng, report):
    if not opts.probe_efficiency:
        raise NotApplicableError("probe efficiency disabled")
    res = probe_data_efficiency(inp.encoder, inp.world, opts.probe_budgets,
                                rng, pool_n=opts.probe_pool)
    report.add("probe_data_efficiency",
               value=res["accuracy_per_budget"][str(max(opts.probe_budgets))],
               accuracy_per_budget=res["accuracy_per_budget"], secondary=True)


def _label_probe_body(inp, opts, rng, report):
    if np.unique(inp.y).size < 2:
        raise DegenerateError("y has a single class")
    _, ev = probe_split_evaluate(inp.z, inp.y, rng)
    report.add("label_probe_accuracy", value=ev.accuracy, auc=ev.auc,
               secondary=True)


# Fixed evaluation order.  Only metrics that share a stream depend on it: the
# CSV path draws the leakage probe and then the label probe from one stream.
REGISTRY = (
    Metric("invariance_auc", ("encoder", "world"), _invariance_body),
    Metric("leakage_probe_auc", ("z", "v"), _leakage_body),
    Metric("normalized_mi", ("z", "v"), _nmi_body),
    Metric("smoothness", ("encoder", "world"), _smoothness_body),
    Metric("geometry", ("z",), _geometry_body,
           ("var_floor_violation", "cov_offdiag", "per_dim_variance")),
    Metric("disentanglement_nmi", ("z", "x", "world"), _disentanglement_body),
    Metric("fisher_trace", ("encoder", "world"), _fisher_trace_body),
    Metric("sufficiency_cmi_bits", ("z", "x", "t"), _sufficiency_body),
    Metric("separability", ("z", "t"), _separability_body,
           ("fisher_ratio", "mmd2", "radial_fisher")),
    Metric("probe_data_efficiency", ("encoder", "world"),
           _probe_efficiency_body),
    Metric("label_probe_accuracy", ("z", "y"), _label_probe_body),
)


def certify(inputs: MetricInputs, opts: MetricSuiteOptions, streams: dict,
            names=None, config_hash: str = "", seed: int = 0) -> MetricReport:
    """Run the registry (only the metrics in ``names``, when given).

    ``streams`` maps a metric name to the Rng its body draws from.  A metric
    with a missing input, or whose body raises NotApplicableError, gets a
    not_applicable entry; one whose data fail a precondition
    (DegenerateError) gets a degenerate entry.  Both record the reason; any
    other error propagates to the caller.
    """
    report = MetricReport(config_hash=config_hash, seed=seed)
    for metric in REGISTRY:
        if names is not None and metric.name not in names:
            continue
        missing = [k for k in metric.needs if getattr(inputs, k) is None]
        try:
            if missing:
                raise NotApplicableError(f"missing input: {', '.join(missing)}")
            metric.body(inputs, opts, streams.get(metric.name), report)
            continue
        except NotApplicableError as exc:
            status, reason = "not_applicable", str(exc)
        except DegenerateError as exc:
            status, reason = "degenerate", str(exc)
        for entry in metric.entries or (metric.name,):
            report.add(entry, status=status, reason=reason)
    return report


def certify_encoder(enc: Encoder, world: World, opts: MetricSuiteOptions,
                    rng: Rng, config_hash: str = "", seed: int = 0) -> MetricReport:
    """Run the certification suite on a frozen encoder.

    Each metric draws from its own pre-split RNG substream, so results do not
    depend on evaluation order.  The suite is label-free apart from
    probe_data_efficiency, so metrics that read ``y`` are left out.
    """
    streams = rng.split(8)
    batch = sample_batch(world, opts.n, streams[0])
    inputs = MetricInputs(
        z=enc.forward(batch.x), x=batch.x, t=batch.t,
        v=None if batch.v is None else _discrete_nuisance(batch.v,
                                                          opts.mi_bins),
        encoder=enc, world=world)
    report = certify(
        inputs, opts,
        dict(zip(("invariance_auc", "leakage_probe_auc", "smoothness",
                  "fisher_trace", "probe_data_efficiency"), streams[1:])),
        names=[m.name for m in REGISTRY if "y" not in m.needs],
        config_hash=config_hash, seed=seed)
    report.notes.append("fisher_trace/invariance_auc are Euclidean functionals "
                        "and metric-dependent under reparameterization")
    return report


def _discrete_nuisance(v: np.ndarray, n_bins: int = 8) -> np.ndarray:
    """Probe targets must be discrete; bin continuous nuisances (angles)."""
    v = np.asarray(v, dtype=np.float64)
    if np.unique(v).size <= n_bins:
        return it.codes_of(v)
    return it.quantile_codes(v, n_bins)


_GROUP_SAMPLE_MAX = 2048


def _cap_group(z: np.ndarray) -> np.ndarray:
    # bound the O(n^2) kernel time (memory is blocked in separability);
    # evenly spaced, hence deterministic
    return evenly_spaced(z, _GROUP_SAMPLE_MAX)


def _two_orbit_groups(z: np.ndarray, t) -> tuple | None:
    """Split codes into two groups by orbit statistic: the two most common
    orbit cells (``rows_as_codes``), or below/above the median for a 1-d t
    with more than 64 cells."""
    t = np.asarray(t, dtype=np.float64)
    t_codes = it.rows_as_codes(t)
    counts = np.bincount(t_codes)
    if counts.size < 2:
        return None
    if t.ndim == 1 and counts.size > _DISCRETE_SUPPORT_MAX:
        med = np.median(t)
        mask_a, mask_b = t <= med, t > med
    else:
        top = np.argsort(counts)[::-1][:2]
        mask_a, mask_b = t_codes == top[0], t_codes == top[1]
    if mask_a.sum() < 20 or mask_b.sum() < 20:
        return None
    return _cap_group(z[mask_a]), _cap_group(z[mask_b])
