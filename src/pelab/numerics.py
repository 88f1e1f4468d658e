"""Dense float64 numerics: deterministic RNG streams, the two-layer encoder
family with exact analytic gradients, and the central-difference oracle that
every analytic gradient in this package is validated against.

All arrays are numpy float64 in row-major layout.  Batches are (n, d) with one
sample per row.  Encoders are either a plain linear map or a one-hidden-layer
tanh network ("mlp1"); both expose forward evaluation, the input Jacobians of
a batch (one point is the one-row case), and parameter backpropagation for an
arbitrary upstream code gradient; the mlp1 bias gradients are column sums
taken by einsum, without BLAS.  An encoder keeps its parameters in one
flat buffer whose views are its weight matrices and biases, so a descent step
adds its update in place.  A two-view loss reads a batch of view pairs
stacked once (``worlds.Batch.pairs``, first views over second views): both
views go through one forward and one backprop, and their code gradients are
the two halves of one array.  ``distinct_rows`` gives the first occurrence
and the count of each distinct row, the weights by which the probes and the
kernel sums visit repeated rows once.  ``exp_rows`` is the row
exponentiation that the probes and InfoNCE's shifted and one-sided losses
share: unshifted while the logits' bound allows it, shifted by each row's
maximum beyond.  ``matmul`` is the
product that every matrix with one row per sample goes through: it keeps
each BLAS call small enough to run on the calling thread.  Its row blocks
(``row_blocks``) also serve code that consumes a product one block at a
time (a probe's epochs and held-out logits, the kernel sums, the bandwidth's
distances), one BLAS call per block, with the bits that ``matmul`` gives.
``import pelab`` loads the BLAS without a thread pool when it is the first
to import numpy; a process that loaded numpy earlier keeps the pool, and
there the row blocks keep every product off it and make its bits
independent of the thread count.
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


def exp_shifts(bound: float) -> bool:
    """Whether logits with |L| <= bound must be shifted before exp."""
    return 2.0 * bound > UNSHIFTED_EXP_MAX_SPREAD


def exp_rows(logits: np.ndarray, bound: float):
    """Overwrite ``logits`` (|L| <= bound) with exp(logits - c) and return
    (c, row sums): c is 0 while ``exp_shifts(bound)`` is false, else each
    row's maximum; ``np.inf`` always shifts."""
    c = 0.0
    if exp_shifts(bound):
        c = logits.max(axis=1)
        logits -= c[:, None]
    np.exp(logits, out=logits)
    return c, logits.sum(axis=1)


# OpenBLAS runs a product of at most 2**18 multiply-adds on the calling thread
# (its GEMM_MULTITHREAD_THRESHOLD of 4 x 65536) and hands a larger one to its
# thread pool, if the process has one (numpy was loaded before pelab), whose
# worker then spins after the call: on 2 cores that was 0.25 s of CPU in one
# certify of the rotation fixture, for no faster result.  A pool of 2 threads
# also rounds some products differently from one thread.
BLAS_ONE_THREAD_MAX = 1 << 18


# Entries per block where no product sets the blocks: the probe AUC ranks
# the n scores of max(1, BLOCK_ENTRIES // (7 n)) classes at a time, so its
# seven block arrays hold about this many entries in all; the CSV reader
# converts its rows once their text reaches this many characters.
BLOCK_ENTRIES = 1 << 16


def _rows_per_block(k: int, m: int) -> int:
    return max(1, BLAS_ONE_THREAD_MAX // max(1, k * m))


def row_blocks(n: int, k: int, m: int) -> list:
    """The (lo, hi) row ranges in which ``matmul`` takes an (n, k) @ (k, m)
    product: near-equal blocks of at most ``BLAS_ONE_THREAD_MAX``
    multiply-adds (or one row).  A caller that consumes each block of a
    product as it comes, ``np.matmul(a[lo:hi], b)``, gets the bits of
    ``matmul(a, b)`` one block at a time."""
    blocks = -(-n // _rows_per_block(k, m))
    return [(i * n // blocks, (i + 1) * n // blocks) for i in range(blocks)]


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """``a @ b`` for 2-d ``a`` (n, k) and ``b`` (k, m), taken in the row
    blocks of ``row_blocks``, so every BLAS call stays on the calling
    thread; a product that fits one block is a single ``np.matmul``.  The
    inner dimension is never split, but the BLAS picks its kernel by the
    size of each call, so a blocked product may differ from one
    ``np.matmul`` in the last bits.  It does not differ with the BLAS
    thread count."""
    n, k = a.shape
    m = b.shape[1]
    if n <= _rows_per_block(k, m):
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((n, m), dtype=np.result_type(a, b))
    for lo, hi in row_blocks(n, k, m):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def as_samples(a) -> np.ndarray:
    """A batch as float64 rows: a 1-d array becomes an (n, 1) column."""
    a = np.asarray(a, dtype=np.float64)
    return a[:, None] if a.ndim == 1 else a


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One void scalar per row of a 2-d array, equal when the rows' bytes
    are equal."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def distinct_rows(a: np.ndarray):
    """(first, counts) for the rows of a 2-d array: ``first`` indexes the
    first occurrence of each distinct row, in row order, and ``counts`` (as
    float64) says how many rows equal it.  Rows are compared by their bytes,
    so 0.0 and -0.0 count as different rows; a sum over ``a[first]``
    weighted by ``counts`` is still the sum over ``a``.  Rows that are all
    distinct give ``first`` = 0..n-1 and unit counts."""
    _, first, counts = np.unique(_row_keys(a), return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order].astype(np.float64)


def evenly_spaced(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` itself when it has at most ``k`` rows, else ``k`` evenly spaced
    rows of it (the first and the last among them): a deterministic
    subsample that keeps the rows' order."""
    if len(a) <= k:
        return a
    return a[np.linspace(0, len(a) - 1, k).astype(int)]


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

def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x W' + b for a batch x, the bias added in place."""
    a = matmul(x, W.T)
    a += b
    return a


class Encoder:
    """Parameter container for the code map x -> z.

    arch "linear": z = W1 x + b1 with W1 of shape (d_z, d_x).
    arch "mlp1":   z = W2 tanh(W1 x + b1) + b2 with W1 (d_hidden, d_x),
                   W2 (d_z, d_hidden).

    The parameters live in one flat float64 buffer in the order W1, b1, W2,
    b2 (row-major); ``W1``, ``b1``, ``W2`` and ``b2`` are views of it.  They
    mutate only through ``set_flat_params``/``add_to_params``, each one
    write of the buffer; every mutation is counted so separation audits can
    assert that decision training never touched the encoder.
    """

    def __init__(self, arch: str, W1, b1, W2=None, b2=None):
        if arch not in (ARCH_LINEAR, ARCH_MLP1):
            raise ContractViolation(f"unknown encoder arch {arch!r}")
        self.arch = arch
        arrays = [W1, b1]
        if arch == ARCH_MLP1:
            if W2 is None or b2 is None:
                raise ContractViolation("mlp1 encoder requires W2 and b2")
            arrays += [W2, b2]
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        self._flat = np.concatenate([a.ravel() for a in arrays])
        views, off = [], 0
        for a in arrays:
            views.append(self._flat[off:off + a.size].reshape(a.shape))
            off += a.size
        self.W1, self.b1 = views[:2]
        self.W2, self.b2 = views[2:] if arch == ARCH_MLP1 else (None, None)
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
        if not np.all(np.isfinite(self._flat)):
            raise ContractViolation("encoder parameters must be finite")

    # -- dimensions ---------------------------------------------------------
    @property
    def d_x(self) -> int:
        return self.W1.shape[1]

    @property
    def d_z(self) -> int:
        return self.b1.shape[0] if self.arch == ARCH_LINEAR else self.b2.shape[0]

    @property
    def n_params(self) -> int:
        return self._flat.size

    # -- flat parameter buffer ------------------------------------------------
    def get_flat_params(self) -> np.ndarray:
        """A copy of the flat parameters."""
        return self._flat.copy()

    def _checked(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._flat.shape:
            raise ContractViolation(
                f"expected {self.n_params} parameters, got {flat.shape}")
        return flat

    def set_flat_params(self, flat: np.ndarray) -> None:
        self._flat[...] = self._checked(flat)
        self.mutation_count += 1

    def add_to_params(self, delta: np.ndarray) -> None:
        """Add ``delta`` to the flat parameters in place (one mutation)."""
        self._flat += self._checked(delta)
        self.mutation_count += 1

    def copy(self) -> "Encoder":
        return Encoder(self.arch, self.W1, self.b1, self.W2, self.b2)

    # -- evaluation -----------------------------------------------------------
    def _hidden(self, x: np.ndarray) -> np.ndarray:
        # tanh over its own input: a large batch faults in one array, not two
        a = _affine(x, self.W1, self.b1)
        return np.tanh(a, out=a)

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
            return _affine(xbatch, self.W1, self.b1)
        # the hidden layer is freed as soon as the codes are computed;
        # keeping it alive, as _forward_hidden must, raised the peak RSS of
        # a rotation_pel run by about 0.5 MB (its certification forwards)
        return _affine(self._hidden(xbatch), self.W2, self.b2)

    def _forward_hidden(self, xbatch: np.ndarray):
        """``forward`` plus the hidden activations the codes were read from
        (None for the linear arch), for a backprop that follows."""
        if self.arch == ARCH_LINEAR:
            return self.forward(xbatch), None
        h = self._hidden(self._as_batch(xbatch))
        return _affine(h, self.W2, self.b2), h

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
            # ndarray.sum, not einsum: a one-column gradient (d_z = 1) sums
            # pairwise, and the over-invariance descent reports those bits
            db1 = grad_z.sum(axis=0)
            return np.concatenate([dW1.ravel(), db1])
        h = self._hidden(xbatch) if hidden is None else hidden
        dW2 = grad_z.T @ h
        da = matmul(grad_z, self.W2)
        slope = h * h                       # 1 - h^2, formed in place
        np.subtract(1.0, slope, out=slope)
        da *= slope
        dW1 = da.T @ xbatch
        # the bias gradients are column sums, which einsum adds row after
        # row in about half the time of ndarray.sum, and without BLAS (a
        # GEMV against a ones vector could reach a thread pool)
        return np.concatenate([dW1.ravel(), np.einsum("ij->j", da),
                               dW2.ravel(), np.einsum("ij->j", grad_z)])


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


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def param_gradient(enc: Encoder, code_loss, xbatch: np.ndarray):
    """Exact analytic parameter gradient of a code-level loss.

    code_loss(Z) -> (value, dL/dZ) for the codes Z of the rows of
    ``xbatch``.  A two-view loss reads a batch of view pairs stacked once,
    first views over second views (``worlds.Batch.pairs``): it splits Z
    into the codes of the two views and writes their gradients into the
    halves of one dL/dZ, so both views go through one forward and one
    backprop and neither the inputs nor the gradients are copied.  The
    backprop reuses the forward's hidden activations.
    Returns (value, flat gradient).
    """
    z, h = enc._forward_hidden(xbatch)
    value, gz = code_loss(z)
    return value, enc.backprop_params(xbatch, gz, h)


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
