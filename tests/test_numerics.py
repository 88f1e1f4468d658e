import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelab.errors import ContractViolation
from pelab.metrics import MetricSuiteOptions, certify_encoder
from pelab.numerics import (BLAS_ONE_THREAD_MAX, Encoder, Rng, distinct_rows,
                            exp_rows, finite_diff, make_encoder, matmul,
                            param_gradient)
from pelab.objectives import (ObjectiveSpec, covariance_penalty_value_grad,
                              infonce_value_grad, invariance_value_grad,
                              perc_loss)
from pelab.worlds import (Batch, make_bernoulli_uv_world, make_rotation_world,
                          sample_batch)

from conftest import (BLAS_THREAD_VARS, former_backprop,
                      former_covariance_penalty, former_infonce,
                      former_variance_floor, identity_encoder,
                      relative_l2_error, run_fresh_python, sum_rounding_bound)


def test_forward_identity_map():
    enc = identity_encoder(2)
    z = enc.forward(np.array([[0.3, -0.7]]))
    assert np.array_equal(z, np.array([[0.3, -0.7]]))


def test_forward_constant_map():
    enc = Encoder("linear", np.zeros((2, 2)), np.array([1.0, 1.0]))
    z = enc.forward(np.array([[5.0, -3.0], [0.0, 0.0]]))
    assert np.array_equal(z, np.ones((2, 2)))


def test_forward_zero_weight_mlp_returns_output_bias():
    b2 = np.array([0.4, -1.1, 2.0])
    enc = Encoder("mlp1", np.zeros((4, 2)), np.zeros(4), np.zeros((3, 4)), b2)
    z = enc.forward(np.array([[1.0, 2.0], [-3.0, 0.5]]))
    assert np.array_equal(z, np.tile(b2, (2, 1)))


def test_forward_dimension_mismatch():
    enc = identity_encoder(2)
    with pytest.raises(ContractViolation):
        enc.forward(np.zeros((3, 5)))


def test_forward_is_pure_bitwise():
    enc = make_encoder("mlp1", 2, 3, 8, Rng(0))
    x = Rng(1).normal(size=(16, 2))
    assert enc.forward(x).tobytes() == enc.forward(x).tobytes()


def test_input_jacobian_linear_is_weight_matrix():
    W = np.array([[1.0, 2.0], [-0.5, 3.0]])
    enc = Encoder("linear", W, np.zeros(2))
    assert np.array_equal(enc.input_jacobian(np.array([9.0, -4.0])), W)


def test_input_jacobian_constant_encoder_is_zero():
    enc = Encoder("linear", np.zeros((2, 2)), np.array([1.0, 1.0]))
    assert np.array_equal(enc.input_jacobian(np.zeros(2)), np.zeros((2, 2)))


def _fd_input_jacobian(enc, x, step=1e-5):
    fd = np.zeros((enc.d_z, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = step
        fd[:, j] = (enc.forward((x + e)[None, :])[0]
                    - enc.forward((x - e)[None, :])[0]) / (2 * step)
    return fd


def test_input_jacobian_mlp_matches_central_differences():
    rng = Rng(7)
    enc = make_encoder("mlp1", 2, 3, 8, rng)
    x = rng.normal(size=2)
    jac = enc.input_jacobian(x)
    assert relative_l2_error(_fd_input_jacobian(enc, x).ravel(),
                             jac.ravel()) <= 1e-6


def test_input_jacobian_20_random_configurations():
    rng = Rng(8)
    for trial in range(20):
        arch = "linear" if trial % 4 == 0 else "mlp1"
        enc = make_encoder(arch, 2, int(rng.integers(1, 5)),
                           int(rng.integers(2, 10)), rng)
        x = rng.normal(size=2) * 2.0
        err = relative_l2_error(_fd_input_jacobian(enc, x).ravel(),
                                enc.input_jacobian(x).ravel())
        assert err <= 1e-4, trial


def test_param_gradient_constant_loss_is_zero():
    enc = make_encoder("mlp1", 2, 2, 4, Rng(3))
    x = Rng(4).normal(size=(8, 2))
    _, grad = param_gradient(enc, lambda z: (1.0, np.zeros_like(z)), x)
    assert np.array_equal(grad, np.zeros(enc.n_params))


def _stacked(two_view_loss):
    """A two-view code loss (z, zp) -> (value, dL/dz, dL/dzp), read on the
    stacked codes of n view pairs."""
    def loss(z2):
        n = len(z2) // 2
        value, gz, gzp = two_view_loss(z2[:n], z2[n:])
        return value, np.concatenate([gz, gzp])
    return loss


def test_param_gradient_invariance_zero_under_identity_views():
    # x_plus == x: the invariance loss sits at its minimum, gradient vanishes
    enc = make_encoder("mlp1", 2, 3, 6, Rng(5))
    x = Rng(6).normal(size=(10, 2))
    value, grad = param_gradient(enc, _stacked(invariance_value_grad),
                                 np.concatenate([x, x]))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(enc.n_params))


@pytest.mark.parametrize("arch", ["linear", "mlp1"])
def test_param_gradient_matches_finite_differences(arch):
    rng = Rng(11)
    enc = make_encoder(arch, 2, 3, 6, rng)
    x = rng.normal(size=(12, 2))
    xp = rng.normal(size=(12, 2))
    value, grad = param_gradient(enc, _stacked(invariance_value_grad),
                                 np.concatenate([x, xp]))
    assert value > 0

    def f(p):
        e = enc.copy()
        e.set_flat_params(p)
        v, _, _ = invariance_value_grad(e.forward(x), e.forward(xp))
        return v

    fd = finite_diff(f, enc.get_flat_params(), 1e-5)
    assert relative_l2_error(grad, fd) <= 1e-4


def _two_view_loss(z, zp):
    v1, g1, g1p = infonce_value_grad(z, zp, tau=0.5, sim="cosine")
    v2, g2, g2p = invariance_value_grad(z, zp)
    return v1 + v2, g1 + g2, g1p + g2p


@pytest.mark.parametrize("arch", ["linear", "mlp1"])
@pytest.mark.parametrize("two_view", [False, True])
def test_param_gradient_stacked_equals_separate_backprops(arch, two_view):
    rng = Rng(17)
    enc = make_encoder(arch, 2, 3, 6, rng)
    x = rng.normal(size=(12, 2))
    xp = rng.normal(size=(12, 2))
    if two_view:
        value, grad = param_gradient(enc, _stacked(_two_view_loss),
                                     np.concatenate([x, xp]))
        ref_value, gz, gzp = _two_view_loss(enc.forward(x), enc.forward(xp))
        ref_grad = enc.backprop_params(x, gz) + enc.backprop_params(xp, gzp)
    else:
        value, grad = param_gradient(enc, covariance_penalty_value_grad, x)
        ref_value, gz = covariance_penalty_value_grad(enc.forward(x))
        ref_grad = enc.backprop_params(x, gz)
    assert abs(value - ref_value) <= 1e-12
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12


def _former_forward(enc, x):
    """The codes and hidden layer as the encoder computed them before its
    bias add moved in place."""
    if enc.arch == "linear":
        return matmul(x, enc.W1.T) + enc.b1, None
    h = np.tanh(matmul(x, enc.W1.T) + enc.b1)
    return matmul(h, enc.W2.T) + enc.b2, h


def _former_perc_loss(enc, batch, spec):
    """perc_loss as it was computed before the batch was stacked once and
    before its kernels were moved: the two views concatenated on every
    call, each view's code gradient accumulated in its own array, the
    former InfoNCE, variance, covariance and backprop formulas."""
    n = batch.n
    x2 = np.concatenate([batch.x.copy(), batch.x_plus.copy()])
    z2, h2 = _former_forward(enc, x2)
    z, zp = z2[:n], z2[n:]
    gz, gzp, total = np.zeros_like(z), np.zeros_like(zp), []
    if spec.beta_inv > 0:
        diff = z - zp
        v = float(np.sum(diff * diff)) / n
        g = (2.0 / n) * diff
        total.append(spec.beta_inv * v)
        gz += spec.beta_inv * g
        gzp += spec.beta_inv * -g
    if spec.use_nce:
        v, g, gp = former_infonce(z, zp, spec.tau, spec.sim,
                                  spec.symmetric_nce)
        total.append(v)
        gz += g
        gzp += gp
    if spec.w_var > 0:
        v, g = former_variance_floor(z, spec.gamma)
        total.append(spec.w_var * v)
        gz += spec.w_var * g
    if spec.w_cov > 0:
        v, g = former_covariance_penalty(z)
        total.append(spec.w_cov * v)
        gz += spec.w_cov * g
    return (float(sum(total)),
            former_backprop(enc, x2, np.concatenate([gz, gzp]), h2))


@pytest.mark.parametrize("arch", ["linear", "mlp1"])
@pytest.mark.parametrize("spec", [
    ObjectiveSpec(),
    ObjectiveSpec(beta_inv=0.7, use_nce=True, tau=0.5, sim="cosine",
                  gamma=1.0, w_var=10.0, w_cov=1.0),
    ObjectiveSpec(beta_inv=0.0, use_nce=True, tau=0.5, sim="dot", gamma=1.0,
                  w_var=1.0, w_cov=1.0),
], ids=["invariance", "rotation_pel", "contrastive_diversity"])
def test_stacked_param_gradient_keeps_the_former_bits(arch, spec):
    world = make_bernoulli_uv_world() if arch == "linear" \
        else make_rotation_world()
    rng = Rng(31)
    enc = make_encoder(arch, 2, 1 if arch == "linear" else 4, 32, rng,
                       init_scale=4.0)
    enc.add_to_params(0.1 * rng.normal(size=enc.n_params))   # nonzero biases
    # 250 pairs: a scale by 2/n rounds, and its order shows in the bits
    batch = sample_batch(world, 250, rng, with_labels=False)
    for x in (batch.x, batch.pairs):
        assert enc.forward(x).tobytes() == _former_forward(enc, x)[0].tobytes()
    total, grad, _ = perc_loss(enc, batch, spec)
    ref_total, ref_grad = _former_perc_loss(enc, batch, spec)
    if not (spec.use_nce or spec.w_var or spec.w_cov):
        # the invariance term is unchanged, and the bias sums of the
        # backprop add their (more than one) columns row after row, as
        # ndarray.sum does
        assert total == ref_total
        assert grad.tobytes() == ref_grad.tobytes()
        return
    # InfoNCE's row sums and norms and the shared diversity kernel add in
    # another order; the longest sums are the backprop's, over 2n rows
    tol = sum_rounding_bound(len(batch.pairs))
    assert abs(total - ref_total) <= tol * abs(ref_total)
    assert np.max(np.abs(grad - ref_grad)) <= tol * np.max(np.abs(ref_grad))


def test_batch_views_are_halves_of_one_stacked_array():
    batch = sample_batch(make_rotation_world(), 16, Rng(4))
    assert batch.pairs.shape == (32, 2)
    assert np.shares_memory(batch.x, batch.pairs)
    assert np.shares_memory(batch.x_plus, batch.pairs)
    assert np.array_equal(batch.pairs[:16], batch.x)
    assert np.array_equal(batch.pairs[16:], batch.x_plus)
    x, xp = np.ones((3, 2)), np.zeros((3, 2))
    built = Batch(x, xp, np.zeros(3))
    assert np.array_equal(built.pairs, np.concatenate([x, xp]))
    assert not np.shares_memory(built.x, x)


@pytest.mark.parametrize("arch", ["linear", "mlp1"])
def test_encoder_parameters_are_views_of_one_flat_buffer(arch):
    enc = make_encoder(arch, 2, 3, 4, Rng(12))
    arrays = [a for a in (enc.W1, enc.b1, enc.W2, enc.b2) if a is not None]
    assert len({id(a.base) for a in arrays}) == 1
    assert sum(a.size for a in arrays) == enc.n_params
    # get_flat_params is a copy: writing into it leaves the encoder alone
    flat = enc.get_flat_params()
    flat += 1.0
    assert not np.array_equal(enc.get_flat_params(), flat)
    # a write through a view shows in the flat parameters, in W1's slot
    enc.W1[0, 1] = 7.5
    assert enc.get_flat_params()[1] == 7.5
    assert enc.mutation_count == 0
    before = enc.get_flat_params()
    delta = Rng(13).normal(size=enc.n_params)
    enc.add_to_params(delta)
    assert enc.mutation_count == 1
    assert enc.get_flat_params().tobytes() == (before + delta).tobytes()
    enc.set_flat_params(before)
    assert enc.mutation_count == 2
    assert enc.get_flat_params().tobytes() == before.tobytes()
    with pytest.raises(ContractViolation):
        enc.add_to_params(delta[:-1])
    with pytest.raises(ContractViolation):
        enc.set_flat_params(before[:-1])
    assert enc.mutation_count == 2
    # a copy owns its own buffer
    twin = enc.copy()
    twin.add_to_params(delta)
    assert enc.get_flat_params().tobytes() == before.tobytes()


def test_encoder_does_not_alias_its_input_arrays():
    W1 = np.eye(2)
    enc = Encoder("linear", W1, np.zeros(2))
    W1[0, 0] = 3.0
    assert enc.W1[0, 0] == 1.0


@pytest.mark.parametrize("arch", ["linear", "mlp1"])
def test_backprop_with_forward_hidden_is_bit_identical(arch):
    rng = Rng(5)
    enc = make_encoder(arch, 2, 3, 6, rng)
    x = rng.normal(size=(20, 2))
    gz = rng.normal(size=(20, 3))
    z, hidden = enc._forward_hidden(x)
    assert np.array_equal(z, enc.forward(x))
    assert (hidden is None) == (arch == "linear")
    assert np.array_equal(enc.backprop_params(x, gz, hidden),
                          enc.backprop_params(x, gz))


@st.composite
def _products(draw):
    """(a, b, out) with a row count below, at or above one block, or past
    whole blocks by a remainder; b is C-ordered, a transposed weight (W.T)
    or a transposed column slice (b[cols].T); out is None or a buffer's rows."""
    k, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    step = BLAS_ONE_THREAD_MAX // (k * m)
    n = draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step,
                              3 * step - 1]) | st.integers(2, 3 * step + 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, k))
    w = rng.normal(size=(m + 3, k))
    b = draw(st.sampled_from([np.ascontiguousarray(w[:m].T), w[:m].T,
                              w[3:].T]))
    out = draw(st.sampled_from([None, np.full((n + 5, m), np.nan)[:n]]))
    return a, b, out


@settings(max_examples=60, deadline=None)
@given(_products())
def test_matmul_equals_np_matmul(product):
    a, b, out = product
    expected = np.matmul(a, b)
    got = matmul(a, b, out=out)
    assert out is None or got is out
    (n, k), m = a.shape, b.shape[1]
    if n * k * m <= BLAS_ONE_THREAD_MAX:
        assert np.array_equal(got, expected)   # one call: the same bits
    else:
        # every row is summed over the same k terms, but the BLAS kernel
        # chosen for a block's size may round its last bits differently:
        # bounded by twice the error of a k-term float64 dot product
        tol = 2 * k * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - expected) <= tol)


def test_matmul_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a child with one OpenBLAS thread stands for a one-core machine; there,
    # one np.matmul of (256, 4) @ (4, 1500) rounds its last columns
    # differently from the two-thread product on two cores
    shapes = [(256, 4, 1500), (4096, 32, 4), (512, 4, 512)]
    script = (
        "import sys, numpy as np\n"
        "from pelab.numerics import matmul\n"
        "rng = np.random.default_rng(0)\n"
        f"for i, (n, k, m) in enumerate({shapes}):\n"
        "    a, w = rng.normal(size=(n, k)), rng.normal(size=(m, k))\n"
        "    np.save(f'{sys.argv[1]}/{i}.npy', matmul(a, w.T))\n")
    run_fresh_python(["-c", script, str(tmp_path)], OPENBLAS_NUM_THREADS="1")
    rng = np.random.default_rng(0)
    for i, (n, k, m) in enumerate(shapes):
        a, w = rng.normal(size=(n, k)), rng.normal(size=(m, k))
        assert np.array_equal(matmul(a, w.T), np.load(tmp_path / f"{i}.npy"))


_OPENBLAS = "openblas" in str(np.show_config(mode="dicts")
                              ["Build Dependencies"]["blas"].get("name"))


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _OPENBLAS),
                    reason="counts OpenBLAS threads in /proc/self/task")
@pytest.mark.parametrize("blas_env, tasks", [
    ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2),
], ids=["default", "openblas_num_threads_2", "omp_num_threads_2"])
def test_importing_pelab_first_loads_the_blas_without_its_pool(blas_env,
                                                               tasks):
    # a product of 2000 * 300 * 300 multiply-adds, far above
    # BLAS_ONE_THREAD_MAX, would start any pool OpenBLAS had; an explicit
    # thread count wins, and the environment is left as it was given
    if tasks > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS runs no more threads than there are cores")
    script = ("import os, json, pelab, numpy as np\n"
              "np.matmul(np.ones((2000, 300)), np.ones((300, 300)))\n"
              "print(len(os.listdir('/proc/self/task')))\n"
              f"names = {BLAS_THREAD_VARS}\n"
              "print(json.dumps({k: os.environ[k] for k in names\n"
              "                  if k in os.environ}))\n")
    count, env = run_fresh_python(["-c", script], **blas_env).splitlines()
    assert int(count) == tasks
    assert json.loads(env) == blas_env


def _other_threads_cpu_ticks() -> int:
    """utime + stime, in clock ticks, of every thread but the calling one."""
    total = 0
    for task in Path("/proc/self/task").iterdir():
        if int(task.name) != threading.get_native_id():
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total


def _idle_ticks(timeout: float = 10.0) -> int:
    """The other threads' CPU ticks once they stop using CPU: an OpenBLAS
    worker spins for a while after each threaded call before it sleeps."""
    ticks = _other_threads_cpu_ticks()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        time.sleep(0.1)
        ticks, previous = _other_threads_cpu_ticks(), ticks
        if ticks == previous:
            return ticks
    pytest.fail("the process's other threads never went idle")


def _certify_rotation_pel_shape(world):
    enc = make_encoder("mlp1", 2, 4, 32, Rng(7), init_scale=4.0)
    certify_encoder(enc, world, MetricSuiteOptions(n=4096), Rng(8))


def _train_step_at_batch_512(world):
    enc = make_encoder("mlp1", 2, 4, 32, Rng(7), init_scale=4.0)
    perc_loss(enc, sample_batch(world, 512, Rng(9)),
              ObjectiveSpec(use_nce=True, w_var=10.0, w_cov=1.0))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads thread CPU times from /proc/self/task")
@pytest.mark.parametrize("work", [_certify_rotation_pel_shape,
                                  _train_step_at_batch_512],
                         ids=["certify_encoder_n4096", "perc_loss_batch512"])
def test_no_blas_product_wakes_a_second_thread(rotation_world, work):
    # numpy's BLAS starts its thread pool when it loads; a process with one
    # thread has no worker to wake
    if len(list(Path("/proc/self/task").iterdir())) < 2:
        pytest.skip("BLAS runs only one thread")
    before = _idle_ticks()
    work(rotation_world)
    assert _idle_ticks() - before < 2


def test_finite_diff_quadratic():
    grad = finite_diff(lambda p: 0.5 * np.sum(p * p), np.array([1.0, 2.0]), 1e-5)
    assert np.allclose(grad, [1.0, 2.0], atol=1e-8)


def test_finite_diff_constant():
    grad = finite_diff(lambda p: 3.25, np.array([0.3, -0.4, 7.0]), 1e-5)
    assert np.allclose(grad, 0.0)


def test_finite_diff_product_rule():
    grad = finite_diff(lambda p: p[0] * p[1], np.array([3.0, 5.0]), 1e-5)
    assert np.allclose(grad, [5.0, 3.0], atol=1e-8)


def test_finite_diff_rejects_nonpositive_step():
    with pytest.raises(ContractViolation):
        finite_diff(lambda p: 0.0, np.zeros(2), 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from([0.0, 1.5, -2.0, 7.0]),
                      min_size=2, max_size=2), min_size=n, max_size=n),
    st.booleans())))
def test_distinct_rows_keeps_first_occurrences_in_row_order(case):
    rows, continuous = case
    a = np.array(rows)
    if continuous:
        a = a + np.arange(len(a))[:, None] * 1e-3   # every row distinct
    first, counts = distinct_rows(a)
    assert counts.dtype == np.float64 and counts.sum() == len(a)
    assert np.all(np.diff(first) > 0)
    seen = {}
    for i, row in enumerate(map(tuple, a)):
        seen.setdefault(row, []).append(i)
    assert [v[0] for v in seen.values()] == list(first)
    assert [len(v) for v in seen.values()] == list(counts)
    if continuous:
        assert np.array_equal(first, np.arange(len(a)))


@pytest.mark.parametrize("bound, shifted", [
    (0.0, False), (3.0, False), (350.0, False),
    (float(np.nextafter(350.0, np.inf)), True), (1e3, True), (np.inf, True)])
def test_exp_rows_shifts_exactly_beyond_spread_limit(bound, shifted):
    logits = np.array([[0.0, 1.0, -2.0], [3.0, -1.0, 0.5]])
    e = logits.copy()
    c, rows = exp_rows(e, bound)
    if shifted:
        assert np.array_equal(c, logits.max(axis=1))
        expected = np.exp(logits - logits.max(axis=1)[:, None])
    else:
        assert np.ndim(c) == 0 and c == 0.0
        expected = np.exp(logits)
    assert np.array_equal(e, expected)
    assert np.array_equal(rows, expected.sum(axis=1))


def test_exp_rows_keeps_a_far_negative_row_finite():
    # unshifted, exp(-1 000) underflows to 0 and the log row sum to -inf
    e = np.array([[-1000.0, -1001.0, -1000.0], [0.0, 1.0, 2.0]])
    c, rows = exp_rows(e, 1001.0)
    log_sum_exp = c + np.log(rows)
    assert np.all(np.isfinite(e)) and np.all(np.isfinite(log_sum_exp))
    assert abs(log_sum_exp[0] - (-1000.0 + np.log(2.0 + np.exp(-1.0)))) <= 1e-12


def test_flat_params_round_trip_bitwise():
    enc = make_encoder("mlp1", 2, 4, 5, Rng(21))
    flat = enc.get_flat_params()
    enc2 = make_encoder("mlp1", 2, 4, 5)
    enc2.set_flat_params(flat)
    assert enc2.get_flat_params().tobytes() == flat.tobytes()


def test_rng_reproducible_and_split_independent():
    a = Rng(42).normal(size=5)
    b = Rng(42).normal(size=5)
    assert np.array_equal(a, b)
    kids1 = Rng(42).split(2)
    kids2 = Rng(42).split(2)
    assert np.array_equal(kids1[0].normal(size=4), kids2[0].normal(size=4))
    # substreams differ from each other
    assert not np.array_equal(kids1[0].normal(size=4), kids1[1].normal(size=4))


def test_mutation_counter_advances_only_on_writes():
    enc = make_encoder("linear", 2, 2, rng=Rng(1))
    assert enc.mutation_count == 0
    enc.forward(np.zeros((3, 2)))
    enc.input_jacobian(np.zeros(2))
    assert enc.mutation_count == 0
    enc.set_flat_params(enc.get_flat_params())
    assert enc.mutation_count == 1
