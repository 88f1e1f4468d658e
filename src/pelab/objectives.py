"""Task-agnostic perception loss terms and their composite.

Every term is differentiable through the encoder: the code-level functions
return the loss value together with its exact gradient with respect to the
code matrices, and the composite backpropagates those through the encoder's
parameters in one stacked pass over both views.  No labels are consumed
anywhere in this module.

InfoNCE exponentiates its n x n logit matrix in place, unshifted, and
takes its gradient through thin (n x d) matmuls against it, so no dense n x n
gradient is built.  That needs |L| <= bound with 2 bound <= 700, where bound
costs O(n d): 1/tau for cosine logits, max|z_i| max|z+_j| / tau for dot
logits (Cauchy-Schwarz).  Wider dot logits fall back to a per-row-shifted
two-pass softmax with a dense gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DegenerateError
from .numerics import UNSHIFTED_EXP_MAX_SPREAD, param_gradient
from .worlds import rho_batch

SIM_DOT = "dot"
SIM_COSINE = "cosine"

# Numerical floor for cosine normalization; codes this small are degenerate.
_NORM_FLOOR = 1e-12


@dataclass
class ObjectiveSpec:
    """Weights and hyperparameters selecting terms of the perception loss."""
    beta_inv: float = 1.0
    use_nce: bool = False
    tau: float = 0.5
    gamma: float = 1.0
    w_var: float = 0.0
    w_cov: float = 0.0
    w_eq: float = 0.0
    sim: str = SIM_COSINE
    symmetric_nce: bool = True

    def __post_init__(self):
        weights = (self.beta_inv, self.gamma, self.w_var, self.w_cov, self.w_eq)
        if any(not np.isfinite(w) or w < 0 for w in weights):
            raise ConfigurationError("objective weights must be finite and >= 0")
        if not self.tau > 0:
            raise ConfigurationError("temperature tau must be > 0")
        if self.sim not in (SIM_DOT, SIM_COSINE):
            raise ConfigurationError(f"unknown similarity {self.sim!r}")


# ---------------------------------------------------------------------------
# Code-level losses: value plus exact gradient w.r.t. the code matrices
# ---------------------------------------------------------------------------

def invariance_value_grad(z, zp):
    """Mean squared code distance between paired views."""
    n = z.shape[0]
    diff = z - zp
    value = float(np.sum(diff * diff)) / n
    g = (2.0 / n) * diff
    return value, g, -g


def equivariance_value_grad(z, zp, rho_mats):
    """Mean squared deviation from f(T x) = rho(delta) f(x)."""
    n = z.shape[0]
    rz = np.einsum("nij,nj->ni", rho_mats, z)
    resid = zp - rz
    value = float(np.sum(resid * resid)) / n
    gzp = (2.0 / n) * resid
    gz = -(2.0 / n) * np.einsum("nji,nj->ni", rho_mats, resid)
    return value, gz, gzp


def _softmax_ce_rows(logits):
    """Per-row softmax cross entropy with the diagonal as targets.
    Returns (mean loss, gradient w.r.t. logits)."""
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    p = np.subtract(logits, m)
    np.exp(p, out=p)
    denom = p.sum(axis=1, keepdims=True)
    log_denom = m[:, 0] + np.log(denom[:, 0])
    value = float(np.mean(log_denom - np.diag(logits)))
    p /= denom
    p[np.arange(n), np.arange(n)] -= 1.0
    p /= n
    return value, p


def _nce_thin(x, y, bound, symmetric):
    """InfoNCE on the logits L = x @ y.T, whose diagonal holds the positives,
    given an upper bound on |L|.  Returns (mean loss, dL/dx, dL/dy).

    The gradient w.r.t. the logits is ds = E o (a 1' + 1 b') - I/n with
    E = exp(L), a = w/(n rowsum E) and b = w/(n colsum E) (w = 1/2 for the
    symmetric loss; w = 1 and b = 0 one-sided), so ds @ y and ds' @ x take
    thin matmuls against E and ds is never built.
    """
    n = x.shape[0]
    logits = x @ y.T
    if 2.0 * bound > UNSHIFTED_EXP_MAX_SPREAD:
        value, ds = _softmax_ce_rows(logits)
        if symmetric:
            v2, g2 = _softmax_ce_rows(logits.T)
            value, ds = 0.5 * (value + v2), 0.5 * (ds + g2.T)
        return value, ds @ y, ds.T @ x
    pos = logits.diagonal().copy()
    e = np.exp(logits, out=logits)
    rows = e.sum(axis=1)
    row_loss = float(np.mean(np.log(rows) - pos))
    if not symmetric:
        a = (1.0 / n / rows)[:, None]
        return row_loss, a * (e @ y) - y / n, e.T @ (a * x) - x / n
    cols = e.sum(axis=0)
    value = 0.5 * (row_loss + float(np.mean(np.log(cols) - pos)))
    a = (0.5 / n / rows)[:, None]
    b = (0.5 / n / cols)[:, None]
    gx = a * (e @ y) + e @ (b * y) - y / n
    gy = e.T @ (a * x) + b * (e.T @ x) - x / n
    return value, gx, gy


def infonce_value_grad(z, zp, tau, sim=SIM_DOT, symmetric=True):
    """Contrastive loss with in-batch negatives: for row i the negatives are
    the other rows' transformed codes."""
    n = z.shape[0]
    if n < 2:
        raise ContractViolation("infonce requires batch size >= 2")
    if sim == SIM_DOT:
        x = z / tau
        # Cauchy-Schwarz: |x_i . zp_j| <= max|x_i| max|zp_j|
        bound = (np.linalg.norm(x, axis=1).max()
                 * np.linalg.norm(zp, axis=1).max())
        value, gx, gzp = _nce_thin(x, zp, bound, symmetric)
        return value, gx / tau, gzp
    # cosine: normalize rows, differentiate through the normalization
    zn = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), _NORM_FLOOR)
    zpn = np.maximum(np.linalg.norm(zp, axis=1, keepdims=True), _NORM_FLOOR)
    zh, zph = z / zn, zp / zpn
    value, gx, gzph = _nce_thin(zh / tau, zph, 1.0 / tau, symmetric)
    gzh = gx / tau
    gz = (gzh - np.sum(gzh * zh, axis=1, keepdims=True) * zh) / zn
    gzp = (gzph - np.sum(gzph * zph, axis=1, keepdims=True) * zph) / zpn
    return value, gz, gzp


def variance_floor_value_grad(z, gamma):
    """Hinge shortfall of per-dimension unbiased variance below gamma.

    The subgradient at Var(Z_d) == gamma is taken on the inactive side
    (zero), so gradient checks skip that measure-zero kink.
    """
    n = z.shape[0]
    if n < 2:
        raise DegenerateError("variance floor requires n >= 2")
    centered = z - z.mean(axis=0)
    var = np.sum(centered * centered, axis=0) / (n - 1)
    active = var < gamma
    value = float(np.sum(gamma - var[active]))
    grad = np.zeros_like(z)
    # d Var_d / d z_id = 2 centered_id / (n-1); centering adds nothing because
    # the per-column gradient sums already vanish.
    grad[:, active] = -(2.0 / (n - 1)) * centered[:, active]
    return value, grad


def covariance_penalty_value_grad(z):
    """Sum of squared off-diagonal covariance entries (both orderings)."""
    n = z.shape[0]
    if n < 2:
        raise DegenerateError("covariance penalty requires n >= 2")
    centered = z - z.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    off = cov - np.diag(np.diag(cov))
    value = float(np.sum(off * off))
    # dPhi/dC is 2*off (symmetric, zero diagonal); columns of the result sum
    # to zero, so the centering chain rule is again a no-op.
    grad = (2.0 / (n - 1)) * centered @ (2.0 * off)
    return value, grad


# ---------------------------------------------------------------------------
# Encoder-level wrappers
# ---------------------------------------------------------------------------

def invariance_loss(enc, batch) -> float:
    value, _, _ = invariance_value_grad(enc.forward(batch.x), enc.forward(batch.x_plus))
    return value


def equivariance_loss(enc, batch, rho) -> float:
    """``rho`` is a transform family declaring a code-space representation."""
    z = enc.forward(batch.x)
    mats = rho_batch(rho, batch.deltas, z.shape[1])
    value, _, _ = equivariance_value_grad(z, enc.forward(batch.x_plus), mats)
    return value


def infonce_loss(enc, batch, tau, sim=SIM_DOT, symmetric=True) -> float:
    value, _, _ = infonce_value_grad(
        enc.forward(batch.x), enc.forward(batch.x_plus), tau, sim, symmetric)
    return value


def variance_floor(zbatch, gamma) -> float:
    value, _ = variance_floor_value_grad(np.asarray(zbatch, dtype=np.float64), gamma)
    return value


def covariance_penalty(zbatch) -> float:
    value, _ = covariance_penalty_value_grad(np.asarray(zbatch, dtype=np.float64))
    return value


def perc_loss(enc, batch, spec: ObjectiveSpec, rho_source=None):
    """Composite perception loss with exact analytic parameter gradient.

    Returns (total, flat gradient, components) where ``components`` holds the
    weighted contribution of each active term and sums to the total.
    """
    components: dict[str, float] = {}

    def code_loss(z, zp):
        gz = np.zeros_like(z)
        gzp = np.zeros_like(zp)
        if spec.beta_inv > 0:
            v, g, gp = invariance_value_grad(z, zp)
            components["inv"] = spec.beta_inv * v
            gz += spec.beta_inv * g
            gzp += spec.beta_inv * gp
        if spec.use_nce:
            v, g, gp = infonce_value_grad(z, zp, spec.tau, spec.sim,
                                          spec.symmetric_nce)
            components["nce"] = v
            gz += g
            gzp += gp
        if spec.w_var > 0:
            v, g = variance_floor_value_grad(z, spec.gamma)
            components["var"] = spec.w_var * v
            gz += spec.w_var * g
        if spec.w_cov > 0:
            v, g = covariance_penalty_value_grad(z)
            components["cov"] = spec.w_cov * v
            gz += spec.w_cov * g
        if spec.w_eq > 0:
            if rho_source is None or getattr(rho_source, "rho", None) is None:
                raise ConfigurationError(
                    "w_eq > 0 requires a transform family with rho")
            mats = rho_batch(rho_source, batch.deltas, z.shape[1])
            v, g, gp = equivariance_value_grad(z, zp, mats)
            components["eq"] = spec.w_eq * v
            gz += spec.w_eq * g
            gzp += spec.w_eq * gp
        return float(sum(components.values())), gz, gzp

    total, grad = param_gradient(enc, code_loss, batch.x, batch.x_plus)
    return total, grad, components
