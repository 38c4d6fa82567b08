import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachsafe import BLAS_THREAD_VARS, approx
from reachsafe.approx import (
    BLOCK,
    BackwardBeforeForward,
    Mlp,
    OneHot,
    Trainer,
    concat,
    load_mlp,
    save_mlp,
    soft_update,
    split_rows,
)
from reachsafe.cmdp import save_npz
from reachsafe.collect import collect_safe_dataset
from reachsafe.critics import make_feasibility_critic
from reachsafe.config import default_config
from reachsafe.dynamics import train_ensemble
from reachsafe.envs import behavior_mixture, make_double_integrator
from reachsafe.policy import make_reward_critic
from reachsafe.seeding import substream

from helpers import dynamics


def finite_difference_grads(net, x, upstream, step=1e-5):
    """Central-difference oracle for d(sum(upstream*out))/d(params)."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + step
            hi = float(np.sum(upstream * net.forward(x)))
            flat[k] = old - step
            lo = float(np.sum(upstream * net.forward(x)))
            flat[k] = old
            gflat[k] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def relative_error(a, b):
    num = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((num / den).max())


def test_zero_weight_net_outputs_bias():
    net = Mlp([3, 4, 2], seed=0)
    net.params[:] = 0.0
    net.biases[-1][:] = [0.5, -1.5]
    out = net.forward(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[0.5, -1.5]])


def test_identity_linear_layer_passes_input_through():
    net = Mlp([3, 3], seed=0)
    net.weights[0][:] = np.eye(3)
    x = np.array([[0.3, -0.7, 2.0]])
    assert np.allclose(net.forward(x), x)


def test_forward_is_deterministic_per_seed():
    a = Mlp([4, 8, 8, 2], seed=42)
    b = Mlp([4, 8, 8, 2], seed=42)
    x = substream(1, "x").normal(size=(5, 4))
    assert np.array_equal(a.forward(x), b.forward(x))
    c = Mlp([4, 8, 8, 2], seed=43)
    assert not np.array_equal(a.forward(x), c.forward(x))


def test_linear_case_gradient_is_input():
    net = Mlp([3, 1], seed=1)
    x = np.array([[1.0, -2.0, 0.5]])
    net.forward(x)
    grads = net.split(net.backward(np.array([[1.0]])))
    assert np.allclose(grads[0].ravel(), x)
    assert np.allclose(grads[1], [1.0])


def test_zero_upstream_gives_zero_gradients():
    net = Mlp([3, 5, 2], seed=2)
    net.forward(np.ones((1, 3)))
    assert np.all(net.backward(np.zeros((1, 2))) == 0)


def test_backward_without_forward_raises():
    net = Mlp([2, 2], seed=0)
    with pytest.raises(BackwardBeforeForward):
        net.backward(np.ones((1, 2)))


def test_dimension_mismatch_raises():
    net = Mlp([3, 2], seed=0)
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 4)))


@pytest.mark.parametrize("shape", [(3,), (2, 1, 3), ()])
def test_input_that_is_not_a_batch_raises_naming_its_shape(shape):
    net = Mlp([3, 2], seed=0)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        net.forward(np.ones(shape))


def test_gradients_match_finite_differences():
    # 100 random (net, input, upstream) cases on 2-hidden-layer nets.
    worst = 0.0
    for case in range(100):
        rng = substream(7, "gradcheck", case)
        net = Mlp([3, 6, 5, 2], seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(2, 3))
        upstream = rng.normal(size=(2, 2))
        net.forward(x)
        grads = net.split(net.backward(upstream))
        numeric = finite_difference_grads(net, x, upstream)
        for g, n in zip(grads, numeric):
            worst = max(worst, relative_error(g, n))
    assert worst < 1e-3, worst


def reference_backward(net, x, upstream):
    """The per-layer formulas on a dense copy of ``x``: (output, grads,
    the gradient at layer 0's output)."""
    acts = [np.asarray(x, dtype=float)]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < len(net.weights) - 1 else z)
    g, grads = upstream, [None] * (2 * len(net.weights))
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1:
            g = g * (1 - acts[i + 1] * acts[i + 1])
        grads[2 * i] = acts[i].T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g0, g = g, g @ net.weights[i].T
    return acts[-1], grads, g0


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("kind", ["dense", "onehot"])
def test_backward_is_bit_exact_to_the_per_layer_formulas(kind, depth):
    rng = np.random.default_rng(depth)
    for n in (1, 7, 256):
        net = Mlp([9, *[64, 17, 128][:depth], 2], seed=n)
        for p in net.biases:
            p[:] = rng.normal(size=p.shape)
        x = rng.normal(size=(n, 9)) if kind == "dense" else random_onehot(rng, n, [6, 3])
        upstream = rng.normal(size=(n, 2))
        want_out, want, _ = reference_backward(net, x, upstream)
        assert np.array_equal(net.forward(x), want_out)
        got = net.split(net.backward(upstream))
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n, depth)


def test_backward_overwrites_its_own_gradient_and_no_other():
    rng = np.random.default_rng(2)
    a, b = Mlp([4, 8, 2], seed=1), Mlp([4, 8, 2], seed=2)
    assert a.grad is None and b.grad is None  # allocated by the first backward
    x, upstream = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    a.forward(x)
    grad_a = a.backward(upstream)
    b.forward(x)
    grad_b = b.backward(upstream)
    kept_a, kept_b = grad_a.copy(), grad_b.copy()
    a.forward(2 * x)
    assert a.backward(upstream) is grad_a is a.grad
    assert not np.array_equal(grad_a, kept_a)
    assert np.array_equal(grad_b, kept_b)
    # The pass consumed its cached activations.
    with pytest.raises(BackwardBeforeForward):
        a.backward(upstream)


def test_zero_gradient_leaves_parameters_unchanged():
    net = Mlp([2, 3, 1], seed=3)
    trainer = Trainer(net, lr=1e-2)
    before = [p.copy() for p in net.parameters()]
    trainer.apply(np.zeros_like(net.params))
    assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), before))
    assert trainer.step == 1


def test_constant_gradient_moves_against_it():
    net = Mlp([2, 2], seed=0)
    net.params[:] = 0.0
    trainer = Trainer(net, lr=1e-2)
    for _ in range(50):
        trainer.apply(np.full(6, 0.7))
    assert all(np.all(p < 0) for p in net.parameters())


def test_optimizer_shape_mismatch_raises():
    net = Mlp([2, 2], seed=0)
    trainer = Trainer(net, lr=1e-2)
    before = [p.copy() for p in net.parameters()]
    for grad in (np.ones(7), np.ones(4), np.ones((6, 1)), np.ones(1)):
        with pytest.raises(ValueError, match="gradient shape"):
            trainer.apply(grad)
    # A refused step changes nothing, not even the leading parameters.
    assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), before))
    assert trainer.step == 0
    with pytest.raises(ValueError, match="one weight-decay coefficient"):
        Trainer(net, lr=1e-2, weight_decay=[0.1])


def test_trainer_is_textbook_adam_bit_for_bit():
    # Weight decay on the weights only and a learning-rate drop mid-run, as
    # the dynamics ensemble trains.
    rng = np.random.default_rng(4)
    net = Mlp([3, 5, 2], seed=7)
    decay = [1e-2, 0.0, 5e-3, 0.0]
    trainer = Trainer(net, lr=1e-2, weight_decay=decay)
    params = [p.copy() for p in net.parameters()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 9):
        lr = 1e-2 if t <= 5 else 2e-3
        trainer.lr = lr
        grads = [rng.normal(size=p.shape) for p in params]
        trainer.apply(np.concatenate([g.ravel() for g in grads]))
        for i, g in enumerate(grads):
            g = g + decay[i] * params[i]
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1 ** t)
            v_hat = v[i] / (1 - beta2 ** t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert all(np.array_equal(p, q) for p, q in zip(net.parameters(), params)), t
        moments = net.split(trainer.m) + net.split(trainer.v)
        assert all(np.array_equal(a, b) for a, b in zip(moments, m + v))
    assert trainer.step == 8


def test_training_runs_are_reproducible():
    def run():
        rng = substream(9, "train")
        net = Mlp([1, 16, 1], seed=4)
        trainer = Trainer(net, lr=1e-2)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=(16, 1))
            y = x * x
            pred = net.forward(x)
            trainer.apply(net.backward(2 * (pred - y) / len(x)))
        return net.parameters()

    a, b = run(), run()
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


def test_quadratic_regression_converges():
    # Convex toy problem: fit y = 0.5 x with a single linear layer.
    rng = substream(10, "quad")
    net = Mlp([1, 1], seed=6)
    trainer = Trainer(net, lr=5e-2)
    x = rng.uniform(-1, 1, size=(64, 1))
    y = 0.5 * x
    loss = None
    for _ in range(1000):
        pred = net.forward(x)
        loss = float(np.mean((pred - y) ** 2))
        trainer.apply(net.backward(2 * (pred - y) / len(x)))
    assert loss < 1e-6


def test_soft_update_mixes_parameters():
    a = Mlp([2, 3, 2], seed=1)
    b = Mlp([2, 3, 2], seed=2)
    rng = substream(3, "bias")
    for p in a.biases + b.biases:
        p[:] = rng.normal(size=p.shape)
    source = [p.copy() for p in b.parameters()]
    for rate in (0.1, 0.01, 0.005):
        ref = [(1 - rate) * t + rate * s for t, s in zip(a.parameters(), b.parameters())]
        soft_update(a, b, rate)
        assert all(np.array_equal(p, q) for p, q in zip(a.parameters(), ref)), rate
    assert all(np.array_equal(p, q) for p, q in zip(b.parameters(), source))


def shared_arrays(nets, trainers=()):
    """Index pairs of arrays, across all ``nets`` and ``trainers``, that share
    memory: parameter views, gradient vectors and Adam moments."""
    arrays = [p for net in nets for p in (*net.parameters(), net.grad) if p is not None]
    arrays += [a for trainer in trainers for a in (trainer.m, trainer.v)]
    return [(i, j) for i in range(len(arrays)) for j in range(i + 1, len(arrays))
            if np.shares_memory(arrays[i], arrays[j])]


def train_once(net, trainer=None):
    """One forward/backward (and Adam step) on a batch of ones."""
    net.forward(np.ones((2, net.sizes[0])))
    grad = net.backward(np.ones((2, net.sizes[-1])))
    if trainer is not None:
        trainer.apply(grad)


def test_no_two_nets_share_a_parameter_array(tmp_path):
    # Trainer, soft_update and backward write their vectors in place, so a
    # shared array would silently move two networks at once.
    net = Mlp([3, 4, 2], seed=1)
    twin = net.copy()
    assert twin.grad is None
    trainers = [Trainer(n, lr=1e-2) for n in (net, twin)]
    for n, trainer in zip((net, twin), trainers):
        train_once(n, trainer)
    assert shared_arrays([net, twin], trainers) == []
    save_mlp({"a": net, "b": net}, tmp_path / "twins.npz", {})
    nets, _ = load_mlp(tmp_path / "twins.npz")
    assert all(n.grad is None for n in nets.values())
    for n in nets.values():
        train_once(n)
    assert shared_arrays([net, *nets.values()], trainers) == []

    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    data = collect_safe_dataset(env, behavior_mixture(env, [("random", 1.0)]),
                                n_transitions=400, seed=3)
    learn = default_config("double_integrator").learn
    for critic in (make_feasibility_critic(env, data, learn, seed=2),
                   make_reward_critic(data, learn, seed=2)):
        train_once(critic.q_net, critic.q_trainer)
        train_once(critic.v_net, critic.v_trainer)
        assert critic.q_target.grad is None and critic.v_target.grad is None
        assert shared_arrays([critic.q_net, critic.v_net, critic.q_target, critic.v_target],
                             [critic.q_trainer, critic.v_trainer]) == []
    # Each member is a twin holding its best epoch's snapshot, without gradient.
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=2, epochs=3, hidden=[8],
                                            batch_size=64), seed=1)
    assert all(member.grad is None for member in model.members)
    assert shared_arrays(model.members) == []


def test_views_tile_each_vector_in_parameters_order():
    net = Mlp([3, 5, 4, 2], seed=1)
    trainer = Trainer(net, lr=1e-2)
    train_once(net, trainer)
    for vector in (net.params, net.grad, trainer.m, trainer.v):
        views = net.parameters() if vector is net.params else net.split(vector)
        assert [v.shape for v in views] == [p.shape for p in net.parameters()]
        at = vector.ctypes.data
        for view in views:
            assert view.flags.c_contiguous and view.ctypes.data == at
            at += view.nbytes
        assert at == vector.ctypes.data + vector.nbytes
    net.params[:] = np.arange(len(net.params))
    assert np.array_equal(np.concatenate([p.ravel() for p in net.parameters()]),
                          np.arange(len(net.params)))
    with pytest.raises(ValueError, match="expected a vector of 54"):
        net.split(np.zeros(53))


def test_save_from_the_flat_views_is_byte_equal_to_a_save_of_own_arrays(tmp_path):
    net, head = Mlp([3, 8, 2], seed=11), Mlp([2, 1], seed=12)
    save_mlp({"net": net, "head": head}, tmp_path / "views.npz", {"note": "x"})
    arrays = {f"{name}.{i}": np.array(p) for name, n in (("net", net), ("head", head))
              for i, p in enumerate(n.parameters())}
    save_npz(tmp_path / "arrays.npz", arrays,
             {"note": "x", "nets": {"net": net.sizes, "head": head.sizes}})
    assert (tmp_path / "views.npz").read_bytes() == (tmp_path / "arrays.npz").read_bytes()


def test_checkpoint_roundtrip(tmp_path):
    net = Mlp([3, 8, 2], seed=11)
    head = Mlp([2, 1], seed=12)
    path = tmp_path / "model.npz"
    save_mlp({"net": net, "head": head}, path, {"note": "x", "scale": 0.1})
    nets, meta = load_mlp(path)
    assert meta == {"note": "x", "scale": 0.1}
    assert nets["net"].sizes == net.sizes and nets["head"].sizes == head.sizes
    for p, q in zip(nets["net"].parameters(), net.parameters()):
        assert q.dtype == np.float64 and np.array_equal(p, q)
    x = substream(12, "ckpt").normal(size=(4, 3))
    # The payload is float64, so the reload computes exactly the same values.
    assert np.array_equal(nets["net"].forward(x), net.forward(x))


def test_checkpoint_rejects_mismatched_parameters(tmp_path):
    net = Mlp([3, 4, 2], seed=1)
    path = tmp_path / "bad.npz"
    params = {f"net.{i}": p for i, p in enumerate(net.parameters())}
    params["net.0"] = params["net.0"].T.copy()   # same size, wrong shape
    meta = json.dumps({"nets": {"net": net.sizes}})
    np.savez(path, meta=np.array(meta), **params)
    with pytest.raises(ValueError, match="do not match"):
        load_mlp(path)


# ---------------------------------------------------------------------------
# One-hot input batches: the gather path computes the dense path exactly.
# ---------------------------------------------------------------------------


def random_onehot(rng, n, widths):
    blocks = [OneHot(rng.integers(w, size=(n, 1)), w) for w in widths]
    return concat(blocks, axis=1)


def row_order_product(x, g):
    """``x.T @ g`` for a one-hot ``x``, summed over rows in row order."""
    out = np.zeros((x.width, g.shape[1]))
    for r in range(len(g)):
        for c in x.cols[r]:
            out[c] += g[r]
    return out


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 250), min_size=1, max_size=2),
       st.sampled_from([1, 384, 1000]), st.integers(0, 2**31 - 1))
def test_onehot_forward_and_gradients_equal_the_dense_input(widths, n, seed):
    rng = np.random.default_rng(seed)
    x = random_onehot(rng, n, widths)
    dense = np.asarray(x)
    assert x.shape == dense.shape == (n, sum(widths))
    assert np.array_equal(dense.sum(axis=1), np.full(n, len(widths)))
    net = Mlp([sum(widths), 64, 64, 1], seed=seed)
    for p in net.biases:
        p[:] = rng.normal(size=p.shape)
    upstream = rng.normal(size=(n, 1))
    out = net.forward(x)
    grads = net.split(net.backward(upstream))
    want_out, want, g0 = reference_backward(net, dense, upstream)
    assert np.array_equal(out, want_out)
    # Layer 0's weight gradient is the row-order sum for every batch; up to
    # 384 rows OpenBLAS's dense GEMM sums its rows in that order too. One
    # column makes the dense product a GEMV, which sums in another order.
    assert np.array_equal(grads[0], row_order_product(x, g0))
    if n <= 384 and x.width > 1:
        assert np.array_equal(grads[0], want[0])
    assert all(np.array_equal(g, w) for g, w in zip(grads[1:], want[1:]))
    assert np.array_equal(net.forward(x, cache=False), want_out)


def test_onehot_weight_gradient_sums_hot_rows_in_row_order():
    # Column 1 is hot in four rows: 1e16 + 1 rounds back to 1e16, so only
    # the row order gives 1.0. Columns 2-4 are never hot and read +0.0 under
    # negative upstream rows, as the dense product does.
    x = OneHot(np.array([[1], [1], [1], [1], [0]]), 5)
    upstream = np.array([[1e16], [1.0], [-1e16], [1.0], [-2.0]])
    net = Mlp([5, 1], seed=0)
    net.forward(x)
    got = net.split(net.backward(upstream))[0][:, 0]
    assert got.tolist() == [-2.0, 1.0, 0.0, 0.0, 0.0]
    assert not np.signbit(got[2:]).any()
    assert got.tobytes() == (np.asarray(x).T @ upstream)[:, 0].tobytes()


def test_onehot_rows_and_stacking_follow_the_dense_matrix():
    rng = np.random.default_rng(3)
    a, b = random_onehot(rng, 6, [5, 3]), random_onehot(rng, 4, [5, 3])
    da, db = np.asarray(a), np.asarray(b)
    assert len(a) == 6 and a.shape == da.shape == (6, 8)
    for batch in (a, split_rows(a)):  # a 2-D and an (n, 1, d) batch keep their row shape
        dense = np.asarray(batch)
        for rows, want in ((np.array([4, 0, 4]), dense[[4, 0, 4]]), (slice(1, 3), dense[1:3]),
                           (2, dense[2:3])):
            assert np.array_equal(np.asarray(batch[rows]), want)
    assert np.array_equal(np.asarray(concat([a, b])), np.concatenate([da, db]))
    assert np.array_equal(np.asarray(concat([a, a[:6]], axis=1)),
                          np.concatenate([da, da], axis=1))
    mixed = concat([a, np.ones((6, 2))], axis=1)
    assert isinstance(mixed, np.ndarray)
    assert np.array_equal(mixed, np.concatenate([da, np.ones((6, 2))], axis=1))
    with pytest.raises(ValueError, match="width"):
        concat([a, OneHot(np.zeros((1, 1), dtype=int), 4)])


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("kind", ["dense", "onehot"])
def test_forward_writes_into_no_input_parameter_or_earlier_output(kind, cache):
    rng = np.random.default_rng(7)
    net = Mlp([6, 8, 8, 3], seed=2)
    for p in net.biases:
        p[:] = rng.normal(size=p.shape)
    if kind == "dense":
        x1, x2 = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        snapshot = lambda x: x.copy()  # noqa: E731
    else:
        x1, x2 = random_onehot(rng, 5, [4, 2]), random_onehot(rng, 5, [4, 2])
        snapshot = lambda x: x.cols.copy()  # noqa: E731
    before = [snapshot(x1), snapshot(x2)]
    params = [p.copy() for p in net.parameters()]
    out1 = net.forward(x1, cache=cache)
    kept = out1.copy()
    out2 = net.forward(x2, cache=cache)
    if cache:
        net.backward(np.ones_like(out2))
    out3 = net.forward(x1, cache=cache)
    assert np.array_equal(out1, kept) and np.array_equal(out3, kept)
    for x, snap in zip((x1, x2), before):
        assert np.array_equal(snapshot(x), snap)
    assert all(np.array_equal(p, q) for p, q in zip(net.parameters(), params))
    for out in (out1, out2):
        others = [*net.parameters(), out3, x1 if kind == "dense" else x1.cols]
        assert not any(np.shares_memory(out, o) for o in others)


# ---------------------------------------------------------------------------
# A split (n, 1, d) pass multiplies each row on its own: row-exact.
# ---------------------------------------------------------------------------


def signed_zeros(rng, a, share):
    """``a`` with about ``share`` of its entries set to +0.0 or -0.0, in place."""
    hit = rng.random(a.shape) < share
    a[hit] = np.copysign(0.0, rng.normal(size=int(hit.sum())))
    return a


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.lists(st.integers(1, 96), max_size=3), st.integers(1, 4),
       st.integers(1, 50), st.integers(0, 2**31 - 1), st.sampled_from(["dense", "onehot"]))
@example(2, [64, 64], 1, 20, 0, "dense")   # the evaluation policy's shape
@example(1, [], 1, 1, 1, "dense")
@example(9, [1], 3, 7, 2, "onehot")
@example(3, [64, 64], 1, 2 * BLOCK + 1, 3, "dense")   # split passes run in row blocks
@example(245, [64, 64], 1, 3 * BLOCK - 1, 4, "onehot")
def test_split_row_pass_equals_one_row_passes_bit_for_bit(d_in, hidden, d_out, n, seed, kind):
    rng = np.random.default_rng(seed)
    net = Mlp([d_in, *hidden, d_out], seed=seed)
    for p in net.biases:
        p[:] = rng.normal(size=p.shape)
    for p in net.parameters():
        signed_zeros(rng, p, 0.2)
    if kind == "dense":
        x = signed_zeros(rng, rng.normal(scale=3.0, size=(n, d_in)), 0.3)
        x[0] = -0.0
    else:
        x = random_onehot(rng, n, [d_in])
    rows = [x[i:i + 1] for i in range(n)]
    got = net.forward(split_rows(x), cache=False)
    assert got.shape == (n, 1, d_out)
    want = np.concatenate([net.forward(r, cache=False) for r in rows])
    assert got[:, 0].tobytes() == want.tobytes()
    # The scratch blocks are reused; a second split pass is unchanged.
    assert net.forward(split_rows(x), cache=False).tobytes() == got.tobytes()


def test_split_rows_is_cache_free_only():
    net = Mlp([3, 4, 2], seed=0)
    x = split_rows(np.ones((5, 3)))
    with pytest.raises(ValueError, match=re.escape("got shape (5, 1, 3)")):
        net.forward(x)
    with pytest.raises(ValueError, match="input width 3, got 4"):
        net.forward(split_rows(np.ones((5, 4))), cache=False)
    onehot = random_onehot(np.random.default_rng(0), 4, [3])
    assert split_rows(onehot).shape == (4, 1, 3)
    assert np.array_equal(np.asarray(split_rows(onehot)), np.asarray(onehot)[:, None])


# ---------------------------------------------------------------------------
# Cache-free passes share two scratch blocks across calls and networks.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["dense", "onehot"])
def test_cache_free_passes_across_nets_keep_results_and_cached_activations(kind):
    rng = np.random.default_rng(11)
    # Net a of each pair caches, net b of the same sizes runs cache-free.
    pairs = [tuple(Mlp([9, *[16] * depth, 3], seed=seed) for seed in (1, 2))
             for depth in (1, 2, 3)]
    for net in (net for pair in pairs for net in pair):
        for p in net.biases:
            p[:] = rng.normal(size=p.shape)
    kept = []  # (result, its value when returned)
    # The scratch grows, then serves smaller batches.
    for n in (4, 64, 300, 700, 20, 1):
        x = rng.normal(size=(n, 9)) if kind == "dense" else random_onehot(rng, n, [6, 3])
        upstream = rng.normal(size=(n, 3))
        for a, b in pairs:
            ref = a.copy()
            want = ref.forward(x)
            want_grads = ref.backward(upstream)
            out_a = a.forward(x)
            out_b = b.forward(x, cache=False)
            assert np.array_equal(a.backward(upstream), want_grads)
            assert np.array_equal(out_a, want)
            assert np.array_equal(out_b, b.forward(x))
            free_a = a.forward(x, cache=False)
            assert np.array_equal(free_a, want)
            kept += [(out, out.copy()) for out in (out_a, out_b, free_a)]
    for i, (out, value) in enumerate(kept):
        assert np.array_equal(out, value)
        assert not any(np.shares_memory(out, other) for other, _ in kept[i + 1:])


# ---------------------------------------------------------------------------
# Each thread has its own scratch: concurrent cache-free passes stay exact.
# ---------------------------------------------------------------------------


def assert_concurrent_passes_equal_serial(cases, workers):
    """Threads cycling through (net, batch) cases for 1.5 s, with a short
    switch interval, get each case's serial cache-free output bit for bit."""
    want = [net.forward(x, cache=False) for net, x in cases]
    deadline = time.monotonic() + 1.5
    passes, mismatches, errors = [0] * workers, [], []

    def hammer(worker):
        k = worker * 5  # each thread starts on a different case
        try:
            while time.monotonic() < deadline:
                net, x = cases[k % len(cases)]
                got, expected = net.forward(x, cache=False), want[k % len(cases)]
                if got.dtype != expected.dtype or not np.array_equal(got, expected):
                    mismatches.append(k % len(cases))
                passes[worker] += 1
                k += 1
        except Exception as err:  # noqa: BLE001 - reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not mismatches
    assert min(passes) > 0


def test_concurrent_cache_free_passes_equal_the_serial_ones():
    rng = np.random.default_rng(5)
    nets = [Mlp([9, *[32] * depth, 3], seed=depth) for depth in (1, 2, 3)]
    for net in nets:
        for p in net.biases:
            p[:] = rng.normal(size=p.shape)
    inputs = [rng.normal(size=(n, 9)) for n in (1, 7, 64, 300, 1000)]
    inputs += [random_onehot(rng, n, [6, 3]) for n in (5, 500)]
    inputs += [split_rows(rng.normal(size=(n, 9))) for n in (3, 40)]
    assert_concurrent_passes_equal_serial([(net, x) for net in nets for x in inputs],
                                          workers=4)


def test_concurrent_float32_passes_equal_the_serial_ones():
    rng = np.random.default_rng(8)
    nets = [Mlp([3, 128, 128, 4], seed=1), Mlp([9, 32, 32, 32, 3], seed=2)]
    for net in nets:
        for p in net.biases:
            p[:] = rng.normal(size=p.shape)
    cases = [(net, rng.normal(size=(n, net.sizes[0])).astype(np.float32))
             for net in nets for n in (1, 300, 517, 2 * BLOCK + 9)]
    cases += [(net, split_rows(x[:40])) for net, x in cases[-2:]]
    assert_concurrent_passes_equal_serial(cases, workers=2)


def test_a_float32_pass_runs_in_float32_over_the_same_scratch():
    # A cache-free float32 pass casts the weights for the call and views
    # the thread's float64 scratch blocks as float32; everything else,
    # a caching pass over a float32 batch included, stays float64.
    net = Mlp([3, 128, 128, 4], seed=4)
    x = np.random.default_rng(9).normal(size=(1600, 3))
    out = {}

    def run():  # a fresh thread: its scratch starts empty
        out["double"] = net.forward(x, cache=False)
        before = list(approx._SCRATCH.blocks)
        out["single"] = net.forward(x.astype(np.float32), cache=False)
        out["same_blocks"] = all(a is b for a, b in zip(before, approx._SCRATCH.blocks))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert out["same_blocks"]
    assert out["double"].dtype == np.float64 and out["single"].dtype == np.float32
    assert np.abs(out["single"] - out["double"]).max() <= 1e-5
    x32 = x.astype(np.float32)
    assert net.forward(x32).dtype == np.float64
    assert net.forward(x32).tobytes() == net.forward(x32.astype(float)).tobytes()
    assert all(p.dtype == np.float64 for p in net.parameters())


# ---------------------------------------------------------------------------
# A cache-free pass over 2 * BLOCK rows or more runs in row blocks: the same
# bits as the whole pass, in float64 and float32, in one call, over bounded
# scratch.
# ---------------------------------------------------------------------------

# The default nets: the 64-wide critic, reward and integrator-policy nets,
# dense and one-hot (state blocks, then state and action blocks), and both
# dynamics ensembles.
DEFAULT_SHAPES = [([3, 64, 64, 1], None), ([2, 64, 64, 1], None), ([6, 64, 64, 1], None),
                  ([4, 64, 64, 1], None), ([245, 64, 64, 1], [245]),
                  ([250, 64, 64, 1], [245, 5]), ([3, 128, 128, 4], None),
                  ([6, 128, 128, 8], None)]
UNBLOCKED_ROWS = (511, 512, 513, 767, 1024, 1600, 2047, 2048)
BLOCKED_ROWS = (2049, 4095, 4096, 4097, 6143, 8000, 8001, 20480)
SPLIT_ROWS = 513


def whole_pass_float32(net: Mlp, x: np.ndarray) -> np.ndarray:
    """A plain float32 pass over all rows at once, the float32 reference."""
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.astype(np.float32) + b.astype(np.float32)
        if i < len(net.weights) - 1:
            h = np.tanh(h)
    return h


def blocked_pass_mismatches() -> list:
    """[sizes, n, dtype] of each default net shape, row count and precision
    where a cache-free pass differs in any bit from the whole pass (the
    cached pass in float64, ``whole_pass_float32`` in float32), and [sizes,
    n, dtype, "split"] where a split pass differs from its one-row passes.
    A one-hot shape's float32 batch is its dense 0/1 matrix."""
    rng = np.random.default_rng(21)
    mismatches = []
    for sizes, widths in DEFAULT_SHAPES:
        net = Mlp(sizes, seed=sizes[0])
        for p in net.biases:
            p[:] = rng.normal(size=p.shape)
        for n in (*UNBLOCKED_ROWS, *BLOCKED_ROWS):
            x = rng.normal(size=(n, sizes[0])) if widths is None else random_onehot(rng, n, widths)
            x32 = np.asarray(x, dtype=float).astype(np.float32)
            if net.forward(x, cache=False).tobytes() != net.forward(x).tobytes():
                mismatches.append([sizes, n, "float64"])
            if net.forward(x32, cache=False).tobytes() != whole_pass_float32(net, x32).tobytes():
                mismatches.append([sizes, n, "float32"])
        for batch, split, dtype in ((x, split_rows(x[:SPLIT_ROWS]), "float64"),
                                    (x32, x32[:SPLIT_ROWS, None], "float32")):
            got = net.forward(split, cache=False)[:, 0]
            one_rows = np.concatenate([net.forward(batch[i:i + 1], cache=False)
                                       for i in range(SPLIT_ROWS)])
            if got.dtype != one_rows.dtype or got.tobytes() != one_rows.tobytes():
                mismatches.append([sizes, SPLIT_ROWS, dtype, "split"])
    return mismatches


def test_blocked_pass_equals_the_whole_pass_with_blas_pinned():
    # Pinned as the CLI runs: the BLAS thread count decides how a whole pass
    # is partitioned, and a two-thread one-row tail moves its own last bits.
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS},
           "PYTHONPATH": os.pathsep.join([str(Path(approx.__file__).parents[1]),
                                          str(Path(__file__).parent)])}
    code = "import json, test_approx; print(json.dumps(test_approx.blocked_pass_mismatches()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("width, n", [(64, 8000), (128, 1600), (128, 20480)])
def test_a_long_cache_free_pass_is_one_call_over_bounded_scratch(monkeypatch, width, n):
    net = Mlp([3, width, width, 4], seed=5)
    x = np.random.default_rng(6).normal(size=(n, 3))
    seen = []
    forward = Mlp.__dict__["forward"]

    def wrapper(self, x, *args, **kwargs):  # a class-level wrapper, as the benchmark's tracer
        seen.append(len(x))
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(Mlp, "forward", wrapper)
    sizes = []

    def run():  # a fresh thread: its scratch starts empty, and blocks only grow
        for batch in (x, split_rows(x)):
            net.forward(batch, cache=False)
        sizes.extend(block.size for block in approx._SCRATCH.blocks)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [n, n]
    # Hidden layers 0 and 1 of one row block.
    assert len(sizes) == 2
    assert all(size <= min(n, 2 * BLOCK - 1) * width for size in sizes)
