"""Dense float64 numerics: deterministic RNG streams, the two-layer encoder
family with exact analytic gradients, and the central-difference oracle that
every analytic gradient in this package is validated against.

All arrays are numpy float64 in row-major layout.  Batches are (n, d) with one
sample per row.  Encoders are either a plain linear map or a one-hidden-layer
tanh network ("mlp1"); both expose forward evaluation, the input Jacobians of
a batch (one point is the one-row case), and parameter backpropagation for an
arbitrary upstream code gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

ARCH_LINEAR = "linear"
ARCH_MLP1 = "mlp1"

# Widest logit range [-bound, bound] (2 bound <= 700) exponentiated without a
# shift: exp(+-350) is a normal float64, so no row or column sum of exp(L)
# over fewer than 1e150 terms overflows or is 0.
UNSHIFTED_EXP_MAX_SPREAD = 700.0


def as_samples(a) -> np.ndarray:
    """A batch as float64 rows: a 1-d array becomes an (n, 1) column."""
    a = np.asarray(a, dtype=np.float64)
    return a[:, None] if a.ndim == 1 else a


# ---------------------------------------------------------------------------
# Deterministic pseudo-randomness
# ---------------------------------------------------------------------------

class Rng:
    """Seeded counter-based random stream with reproducible splitting.

    Identical seeds yield identical streams; ``split`` derives independent
    substreams whose identity depends only on the seed and the order of
    ``split`` calls, never on how much was drawn in between.
    """

    def __init__(self, seed: int, _ss: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._ss = np.random.SeedSequence(self.seed) if _ss is None else _ss
        self.gen = np.random.Generator(np.random.Philox(self._ss))

    def split(self, k: int) -> list["Rng"]:
        """Derive k independent, reproducible substreams."""
        return [Rng(self.seed, child) for child in self._ss.spawn(k)]

    # Thin delegation; keeps call sites short and the stream in one place.
    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size=size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self.gen.permutation(x)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

class Encoder:
    """Parameter container for the code map x -> z.

    arch "linear": z = W1 x + b1 with W1 of shape (d_z, d_x).
    arch "mlp1":   z = W2 tanh(W1 x + b1) + b2 with W1 (d_hidden, d_x),
                   W2 (d_z, d_hidden).

    Parameters mutate only through ``set_flat_params``/``add_to_params``;
    every mutation is counted so separation audits can assert that decision
    training never touched the encoder.
    """

    def __init__(self, arch: str, W1, b1, W2=None, b2=None):
        if arch not in (ARCH_LINEAR, ARCH_MLP1):
            raise ContractViolation(f"unknown encoder arch {arch!r}")
        self.arch = arch
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        if arch == ARCH_MLP1:
            if W2 is None or b2 is None:
                raise ContractViolation("mlp1 encoder requires W2 and b2")
            self.W2 = np.asarray(W2, dtype=np.float64)
            self.b2 = np.asarray(b2, dtype=np.float64)
        else:
            self.W2 = None
            self.b2 = None
        self.mutation_count = 0
        self._check_shapes()

    def _check_shapes(self):
        if self.W1.ndim != 2 or self.b1.ndim != 1:
            raise ContractViolation("W1 must be 2-d and b1 1-d")
        if self.W1.shape[0] != self.b1.shape[0]:
            raise ContractViolation("W1/b1 dimension mismatch")
        if self.arch == ARCH_MLP1:
            if self.W2.shape[1] != self.W1.shape[0]:
                raise ContractViolation("W2/W1 dimension mismatch")
            if self.W2.shape[0] != self.b2.shape[0]:
                raise ContractViolation("W2/b2 dimension mismatch")
        for a in self._param_arrays():
            if not np.all(np.isfinite(a)):
                raise ContractViolation("encoder parameters must be finite")

    # -- dimensions ---------------------------------------------------------
    @property
    def d_x(self) -> int:
        return self.W1.shape[1]

    @property
    def d_z(self) -> int:
        return self.b1.shape[0] if self.arch == ARCH_LINEAR else self.b2.shape[0]

    @property
    def d_hidden(self) -> int:
        return 0 if self.arch == ARCH_LINEAR else self.W1.shape[0]

    def _param_arrays(self):
        if self.arch == ARCH_LINEAR:
            return [self.W1, self.b1]
        return [self.W1, self.b1, self.W2, self.b2]

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self._param_arrays())

    # -- flat parameter view --------------------------------------------------
    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._param_arrays()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ContractViolation(
                f"expected {self.n_params} parameters, got {flat.shape}")
        off = 0
        for a in self._param_arrays():
            a[...] = flat[off:off + a.size].reshape(a.shape)
            off += a.size
        self.mutation_count += 1

    def add_to_params(self, delta: np.ndarray) -> None:
        self.set_flat_params(self.get_flat_params() + delta)

    def copy(self) -> "Encoder":
        if self.arch == ARCH_LINEAR:
            return Encoder(self.arch, self.W1.copy(), self.b1.copy())
        return Encoder(self.arch, self.W1.copy(), self.b1.copy(),
                       self.W2.copy(), self.b2.copy())

    # -- evaluation -----------------------------------------------------------
    def _hidden(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.W1.T + self.b1)

    def _as_batch(self, xbatch) -> np.ndarray:
        xbatch = np.asarray(xbatch, dtype=np.float64)
        if xbatch.ndim != 2 or xbatch.shape[1] != self.d_x:
            raise ContractViolation(
                f"expected batch of shape (n, {self.d_x}), got {xbatch.shape}")
        return xbatch

    def forward(self, xbatch: np.ndarray) -> np.ndarray:
        """Map a batch (n, d_x) of inputs to codes (n, d_z)."""
        xbatch = self._as_batch(xbatch)
        if self.arch == ARCH_LINEAR:
            return xbatch @ self.W1.T + self.b1
        # the hidden layer is freed before the bias add allocates the codes;
        # keeping it alive, as _forward_hidden must, raised the peak RSS of
        # a rotation_pel run by about 0.5 MB (its certification forwards)
        return self._hidden(xbatch) @ self.W2.T + self.b2

    def _forward_hidden(self, xbatch: np.ndarray):
        """``forward`` plus the hidden activations the codes were read from
        (None for the linear arch), for a backprop that follows."""
        if self.arch == ARCH_LINEAR:
            return self.forward(xbatch), None
        h = self._hidden(self._as_batch(xbatch))
        return h @ self.W2.T + self.b2, h

    def input_jacobians(self, xbatch: np.ndarray) -> np.ndarray:
        """Exact dz/dx at every row of a batch (n, d_x), shape (n, d_z, d_x):
        W1 for the linear arch, W2 diag(1 - h_i^2) W1 for mlp1."""
        xbatch = self._as_batch(xbatch)
        if self.arch == ARCH_LINEAR:
            return np.repeat(self.W1[None], xbatch.shape[0], axis=0)
        h = self._hidden(xbatch)
        return (self.W2 * (1.0 - h * h)[:, None, :]) @ self.W1

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Exact dz/dx at a single point, shape (d_z, d_x)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != (self.d_x,):
            raise ContractViolation(f"expected point of dim {self.d_x}")
        return self.input_jacobians(x[None])[0]

    def backprop_params(self, xbatch: np.ndarray, grad_z: np.ndarray,
                        hidden: np.ndarray | None = None) -> np.ndarray:
        """Flat parameter gradient of sum_i grad_z[i] . z_i for codes z = f(x).

        grad_z is the upstream dL/dZ of shape (n, d_z); the return value has
        the layout of ``get_flat_params``.  ``hidden`` is the forward pass's
        tanh layer for ``xbatch`` (mlp1 only); it is recomputed when None.
        """
        xbatch = np.asarray(xbatch, dtype=np.float64)
        grad_z = np.asarray(grad_z, dtype=np.float64)
        if grad_z.shape != (xbatch.shape[0], self.d_z):
            raise ContractViolation("grad_z shape must match forward output")
        if self.arch == ARCH_LINEAR:
            dW1 = grad_z.T @ xbatch
            db1 = grad_z.sum(axis=0)
            return np.concatenate([dW1.ravel(), db1])
        h = self._hidden(xbatch) if hidden is None else hidden
        dW2 = grad_z.T @ h
        db2 = grad_z.sum(axis=0)
        dh = grad_z @ self.W2
        da = dh * (1.0 - h * h)
        dW1 = da.T @ xbatch
        db1 = da.sum(axis=0)
        return np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def make_encoder(arch: str, d_x: int, d_z: int, d_hidden: int = 0,
                 rng: Rng | None = None, init_scale: float = 1.0) -> Encoder:
    """Construct an encoder with Gaussian fan-in-scaled init (zero biases).

    rng=None gives an all-zero initialization.
    """
    def init(shape):
        if rng is None:
            return np.zeros(shape)
        return rng.normal(0.0, init_scale / np.sqrt(shape[1]), shape)

    if arch == ARCH_LINEAR:
        return Encoder(arch, init((d_z, d_x)), np.zeros(d_z))
    if arch == ARCH_MLP1:
        if d_hidden < 1:
            raise ContractViolation("mlp1 requires d_hidden >= 1")
        return Encoder(arch, init((d_hidden, d_x)), np.zeros(d_hidden),
                       init((d_z, d_hidden)), np.zeros(d_z))
    raise ContractViolation(f"unknown encoder arch {arch!r}")


def identity_encoder(d: int) -> Encoder:
    return Encoder(ARCH_LINEAR, np.eye(d), np.zeros(d))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def param_gradient(enc: Encoder, code_loss, xbatch: np.ndarray,
                   xplus: np.ndarray | None = None):
    """Exact analytic parameter gradient of a code-level loss.

    code_loss(Z) -> (value, dL/dZ) for single-view losses, or
    code_loss(Z, Zplus) -> (value, dL/dZ, dL/dZplus) when ``xplus`` is given.
    The two views go through one forward and one backprop of the stacked
    batch, and the backprop reuses the forward's hidden activations.
    Returns (value, flat gradient).
    """
    if xplus is None:
        z, h = enc._forward_hidden(xbatch)
        value, gz = code_loss(z)
        return value, enc.backprop_params(xbatch, gz, h)
    n = len(xbatch)
    x2 = np.concatenate([xbatch, xplus])
    z2, h2 = enc._forward_hidden(x2)
    value, gz, gzp = code_loss(z2[:n], z2[n:])
    return value, enc.backprop_params(x2, np.concatenate([gz, gzp]), h2)


def finite_diff(fn, params: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of a flat
    parameter vector.  The derivative oracle for every analytic gradient."""
    if step <= 0:
        raise ContractViolation("finite_diff step must be > 0")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = step
        grad[i] = (fn(params + bump) - fn(params - bump)) / (2.0 * step)
    return grad


def relative_l2_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """|a - b| / max(|a|, |b|, 1e-12) in the L2 sense."""
    denom = max(float(np.linalg.norm(approx)), float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / denom


# ---------------------------------------------------------------------------
# Parameter serialization (columnar text, one value per line)
# ---------------------------------------------------------------------------

def save_params(enc: Encoder, path) -> None:
    lines = [f"# arch={enc.arch} d_x={enc.d_x} d_z={enc.d_z} d_hidden={enc.d_hidden}"]
    lines += [repr(float(v)) for v in enc.get_flat_params()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> Encoder:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        values = np.array([float(line) for line in fh if line.strip()])
    if not header.startswith("# arch="):
        raise ContractViolation(f"{path}: missing parameter header")
    fields = dict(item.split("=") for item in header[2:].split())
    arch = fields["arch"]
    d_x, d_z, d_h = int(fields["d_x"]), int(fields["d_z"]), int(fields["d_hidden"])
    enc = make_encoder(arch, d_x, d_z, d_h)
    enc.set_flat_params(values)
    enc.mutation_count = 0
    return enc
