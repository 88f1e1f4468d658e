"""Task-agnostic perception loss terms and their composite.

Every term is differentiable through the encoder: the code-level functions
return the loss value together with its exact gradient with respect to the
code matrices, and the composite backpropagates those through the encoder's
parameters in one stacked pass over both views.  No labels are consumed
anywhere in this module.

The symmetric InfoNCE shares one exp pass between its row and column
softmaxes, shifted by the global logit maximum.  When the logits spread over
more than 700 (possible only with dot similarity; cosine logits satisfy
|L| <= 1/tau) a shared shift could underflow a whole row, so it falls back to
two per-row-shifted passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DegenerateError
from .numerics import param_gradient
from .worlds import rho_batch

SIM_DOT = "dot"
SIM_COSINE = "cosine"

# Numerical floor for cosine normalization; codes this small are degenerate.
_NORM_FLOOR = 1e-12

# Widest logit spread one shared exp shift tolerates: exp(-700) is still a
# normal float64, so no row or column sum of the shifted exponentials is 0.
_SHARED_SHIFT_MAX_SPREAD = 700.0


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


def nce_from_logits(logits, symmetric=True):
    """InfoNCE core on a logit matrix whose diagonal holds the positives.
    Returns (mean loss, gradient w.r.t. logits); ``logits`` is not modified."""
    if not symmetric:
        return _softmax_ce_rows(logits)
    hi = logits.max()
    if hi - logits.min() > _SHARED_SHIFT_MAX_SPREAD:
        v1, g1 = _softmax_ce_rows(logits)
        v2, g2 = _softmax_ce_rows(logits.T)
        return 0.5 * (v1 + v2), 0.5 * (g1 + g2.T)
    n = logits.shape[0]
    e = np.subtract(logits, hi)
    np.exp(e, out=e)
    rows = e.sum(axis=1)
    cols = e.sum(axis=0)
    pos = np.diag(logits) - hi
    value = 0.5 * (float(np.mean(np.log(rows) - pos))
                   + float(np.mean(np.log(cols) - pos)))
    # d/dL_ij = (softmax_row_ij + softmax_col_ij) / 2n - [i == j] / n
    grad = e * (0.5 / n / rows)[:, None]
    e *= (0.5 / n / cols)[None, :]
    grad += e
    grad[np.arange(n), np.arange(n)] -= 1.0 / n
    return value, grad


def infonce_value_grad(z, zp, tau, sim=SIM_DOT, symmetric=True):
    """Contrastive loss with in-batch negatives: for row i the negatives are
    the other rows' transformed codes."""
    n = z.shape[0]
    if n < 2:
        raise ContractViolation("infonce requires batch size >= 2")
    if sim == SIM_DOT:
        logits = (z / tau) @ zp.T
        value, ds = nce_from_logits(logits, symmetric)
        return value, (ds @ zp) / tau, (ds.T @ z) / tau
    # cosine: normalize rows, differentiate through the normalization
    zn = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), _NORM_FLOOR)
    zpn = np.maximum(np.linalg.norm(zp, axis=1, keepdims=True), _NORM_FLOOR)
    zh, zph = z / zn, zp / zpn
    logits = (zh / tau) @ zph.T
    value, ds = nce_from_logits(logits, symmetric)
    gzh = (ds @ zph) / tau
    gzph = (ds.T @ zh) / tau
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
