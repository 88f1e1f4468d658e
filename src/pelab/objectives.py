"""Task-agnostic perception loss terms and their composite.

Every term is differentiable through the encoder: the code-level functions
return the loss value together with its exact gradient with respect to the
code matrices, and the composite backpropagates those through the encoder's
parameters in one stacked pass over both views.  No labels are consumed
anywhere in this module.

InfoNCE exponentiates its n x n logit matrix in place and takes its
gradient through thin (n x d) matmuls against it, so no dense n x n
gradient is built.  The shift rule reads an O(n d) bound on |L|: 1/tau for
cosine logits, max|z_i| max|z+_j| / tau for dot logits (Cauchy-Schwarz).
While 2 bound <= 700 the logits stay unshifted and one exp pass serves both
directions of the symmetric loss, its row sums taken by one einsum pass;
wider dot logits are shifted per row (``numerics.exp_rows``), and the
symmetric loss is then the mean of the two one-sided losses, taken one
after the other with one n x n buffer each.  Cosine logits read their row
norms, and the normalization's gradient its row dots, from einsum.

The variance floor and the covariance penalty are priced by one kernel,
``diversity_value_grad``, from one centred covariance: both gradients are
the centred codes times one d x d matrix; the geometry diagnostics read
both values from one call.  ``variance_floor_value_grad`` and
``covariance_penalty_value_grad`` are its two terms on their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, DegenerateError
from .numerics import exp_rows, exp_shifts, matmul, param_gradient
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
        for name in ("beta_inv", "gamma", "w_var", "w_cov", "w_eq"):
            w = getattr(self, name)
            if not np.isfinite(w) or w < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {w}")
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be > 0, got {self.tau}")
        if self.sim not in (SIM_DOT, SIM_COSINE):
            raise ConfigurationError(f"sim must be dot or cosine, got {self.sim!r}")


# ---------------------------------------------------------------------------
# Code-level losses: value plus exact gradient w.r.t. the code matrices
# ---------------------------------------------------------------------------

def invariance_value_grad(z, zp):
    """Mean squared code distance between paired views."""
    n = z.shape[0]
    g = z - zp
    # ndarray.sum skips np.sum's dispatch layer, which costs as much as a
    # sum of this size; the gradient is scaled in place
    value = float((g * g).sum()) / n
    g *= 2.0 / n
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


def _nce_thin(x, y, bound, symmetric):
    """InfoNCE on the logits L = x @ y.T, whose diagonal holds the positives,
    given an upper bound on |L|.  Returns (mean loss, dL/dx, dL/dy).

    The gradient w.r.t. the logits is ds = E o (a 1' + 1 b') - I/n with
    E = exp(L - c 1'), a = w/(n rowsum E) and b = w/(n colsum E) (w = 1/2
    for the symmetric loss; w = 1 and b = 0 one-sided), so ds @ y and
    ds' @ x take thin matmuls against E and ds is never built.  A row shift
    c leaves a o E unchanged; column sums need c = 0, so shifted symmetric
    logits take the one-sided loss of (x, y) and of (y, x).
    """
    n = x.shape[0]
    if symmetric and exp_shifts(bound):
        v1, gx1, gy1 = _nce_thin(x, y, bound, False)
        v2, gy2, gx2 = _nce_thin(y, x, bound, False)
        return 0.5 * (v1 + v2), 0.5 * (gx1 + gx2), 0.5 * (gy1 + gy2)
    e = matmul(x, y.T)
    pos = e.diagonal().copy()
    if not symmetric:
        c, rows = exp_rows(e, bound)
        a = (1.0 / n / rows)[:, None]
        return (float(np.mean(c + np.log(rows) - pos)),
                a * matmul(e, y) - y / n, matmul(e.T, a * x) - x / n)
    # unshifted: exp_rows without its row sums, which one einsum pass
    # takes in about half the time of e.sum(axis=1)
    np.exp(e, out=e)
    rows, cols = np.einsum("ij->i", e), e.sum(axis=0)
    value = 0.5 * (float((np.log(rows) - pos).sum()) / n
                   + float((np.log(cols) - pos).sum()) / n)
    a = (0.5 / n / rows)[:, None]
    b = (0.5 / n / cols)[:, None]
    gx = a * matmul(e, y) + matmul(e, b * y) - y / n
    gy = matmul(e.T, a * x) + b * matmul(e.T, x) - x / n
    return value, gx, gy


def _row_dots(a, b):
    """The dot product of each row of ``a`` with the same row of ``b``, as
    an (n, 1) column: one einsum pass, without ``np.sum``'s dispatch."""
    return np.einsum("ij,ij->i", a, b)[:, None]


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
    zn = np.maximum(np.sqrt(_row_dots(z, z)), _NORM_FLOOR)
    zpn = np.maximum(np.sqrt(_row_dots(zp, zp)), _NORM_FLOOR)
    zh, zph = z / zn, zp / zpn
    value, gx, gzph = _nce_thin(zh / tau, zph, 1.0 / tau, symmetric)
    gzh = gx / tau
    gz = (gzh - _row_dots(gzh, zh) * zh) / zn
    gzp = (gzph - _row_dots(gzph, zph) * zph) / zpn
    return value, gz, gzp


def diversity_value_grad(z, gamma, w_var, w_cov):
    """The variance floor and the covariance penalty of one code batch from
    one centred covariance: (variance-floor value, covariance value,
    w_var dVar/dz + w_cov dCov/dz).

    The variance floor is the hinge shortfall of each dimension's unbiased
    variance below gamma; its subgradient at Var(Z_d) == gamma is taken on
    the inactive side (zero), so gradient checks skip that measure-zero
    kink.  The covariance penalty is the sum of squared off-diagonal
    covariance entries (both orderings).
    """
    n = z.shape[0]
    if n < 2:
        raise DegenerateError(
            "the variance floor and the covariance penalty require n >= 2")
    # ndarray methods skip np.sum's and np.mean's dispatch layers, with the
    # same bits (a mean is the sum over n)
    centered = z - z.sum(axis=0) / n
    var = (centered * centered).sum(axis=0) / (n - 1)
    active = var < gamma
    var_value = float((gamma - var[active]).sum())
    cov = centered.T @ centered / (n - 1)
    off = cov - np.diag(np.diag(cov))
    cov_value = float((off * off).sum())
    # both gradients are centered @ K: d Var_d / d z_id = 2 centered_id /
    # (n-1) puts -2 w_var / (n-1) on K's active diagonal, and dPhi/dC =
    # 2 off (symmetric, zero diagonal) puts 4 w_cov off / (n-1) beside it.
    # The columns of the result sum to zero, so the centering's chain rule
    # adds nothing.
    k = (4.0 * w_cov / (n - 1)) * off
    k.flat[::k.shape[0] + 1] = np.where(active, -2.0 * w_var / (n - 1), 0.0)
    return var_value, cov_value, matmul(centered, k)


def variance_floor_value_grad(z, gamma):
    """Hinge shortfall of per-dimension unbiased variance below gamma
    (``diversity_value_grad``'s first term)."""
    value, _, grad = diversity_value_grad(z, gamma, 1.0, 0.0)
    return value, grad


def covariance_penalty_value_grad(z):
    """Sum of squared off-diagonal covariance entries, both orderings
    (``diversity_value_grad``'s second term)."""
    _, value, grad = diversity_value_grad(z, 0.0, 0.0, 1.0)
    return value, grad


def perc_loss(enc, batch, spec: ObjectiveSpec, rho_source=None):
    """Composite perception loss with exact analytic parameter gradient.

    Returns (total, flat gradient, components) where ``components`` holds the
    weighted contribution of each active term and sums to the total.
    """
    components: dict[str, float] = {}
    n = batch.n

    def code_loss(z2):
        # the codes of both views, stacked; each view's gradient is a half
        z, zp = z2[:n], z2[n:]
        grads = []   # (weight, dL/dz, dL/dzp or None)
        if spec.beta_inv > 0:
            v, g, gp = invariance_value_grad(z, zp)
            components["inv"] = spec.beta_inv * v
            grads.append((spec.beta_inv, g, gp))
        if spec.use_nce:
            v, g, gp = infonce_value_grad(z, zp, spec.tau, spec.sim,
                                          spec.symmetric_nce)
            components["nce"] = v
            grads.append((1.0, g, gp))
        if spec.w_var > 0 or spec.w_cov > 0:
            # one kernel prices both terms; its gradient carries both weights
            v_var, v_cov, g = diversity_value_grad(z, spec.gamma, spec.w_var,
                                                   spec.w_cov)
            if spec.w_var > 0:
                components["var"] = spec.w_var * v_var
            if spec.w_cov > 0:
                components["cov"] = spec.w_cov * v_cov
            grads.append((1.0, g, None))
        if spec.w_eq > 0:
            mats = rho_batch(rho_source, batch.deltas, z.shape[1])
            v, g, gp = equivariance_value_grad(z, zp, mats)
            components["eq"] = spec.w_eq * v
            grads.append((spec.w_eq, g, gp))
        g2 = np.zeros(z2.shape)
        gz, gzp = g2[:n], g2[n:]
        for w, g, gp in grads:
            # a weight of 1 multiplies nothing: 1.0 * g is g, bit for bit
            gz += g if w == 1.0 else w * g
            if gp is not None:
                gzp += gp if w == 1.0 else w * gp
        return float(sum(components.values())), g2

    total, grad = param_gradient(enc, code_loss, batch.pairs)
    return total, grad, components
