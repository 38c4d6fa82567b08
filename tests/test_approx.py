import json
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachsafe.approx import (
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
    net.set_parameters([np.zeros_like(p) for p in net.parameters()])
    net.biases[-1] = np.array([0.5, -1.5])
    out = net.forward(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[0.5, -1.5]])


def test_identity_linear_layer_passes_input_through():
    net = Mlp([3, 3], seed=0)
    net.set_parameters([np.eye(3), np.zeros(3)])
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
    grads, _ = net.backward(np.array([[1.0]]))
    assert np.allclose(grads[0].ravel(), x)
    assert np.allclose(grads[1], [1.0])


def test_zero_upstream_gives_zero_gradients():
    net = Mlp([3, 5, 2], seed=2)
    net.forward(np.ones((1, 3)))
    grads, gx = net.backward(np.zeros((1, 2)))
    assert all(np.allclose(g, 0) for g in grads)
    assert np.allclose(gx, 0)


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
        grads, _ = net.backward(upstream)
        numeric = finite_difference_grads(net, x, upstream)
        for g, n in zip(grads, numeric):
            worst = max(worst, relative_error(g, n))
    assert worst < 1e-3, worst


def test_input_gradient_matches_finite_differences():
    rng = substream(8, "input-grad")
    net = Mlp([4, 8, 3], seed=5)
    x = rng.normal(size=(1, 4))
    upstream = rng.normal(size=(1, 3))
    net.forward(x)
    _, gx = net.backward(upstream)
    numeric = np.zeros_like(x)
    for k in range(x.size):
        dx = np.zeros_like(x)
        dx.flat[k] = 1e-5
        hi = float(np.sum(upstream * net.forward(x + dx)))
        lo = float(np.sum(upstream * net.forward(x - dx)))
        numeric.flat[k] = (hi - lo) / 2e-5
    assert relative_error(gx, numeric) < 1e-3


def test_zero_gradient_leaves_parameters_unchanged():
    net = Mlp([2, 3, 1], seed=3)
    trainer = Trainer(net, lr=1e-2)
    before = [p.copy() for p in net.parameters()]
    trainer.apply([np.zeros_like(p) for p in before])
    assert all(np.array_equal(a, b) for a, b in zip(net.parameters(), before))
    assert trainer.step == 1


def test_constant_gradient_moves_against_it():
    net = Mlp([2, 2], seed=0)
    net.set_parameters([np.zeros((2, 2)), np.zeros(2)])
    trainer = Trainer(net, lr=1e-2)
    for _ in range(50):
        trainer.apply([np.full((2, 2), 0.7), np.full(2, 0.7)])
    assert all(np.all(p < 0) for p in net.parameters())


def test_optimizer_shape_mismatch_raises():
    net = Mlp([2, 2], seed=0)
    trainer = Trainer(net, lr=1e-2)
    before = [p.copy() for p in net.parameters()]
    with pytest.raises(ValueError, match="gradient shapes"):
        trainer.apply([np.ones((2, 2)), np.ones(3)])
    with pytest.raises(ValueError, match="gradient shapes"):
        trainer.apply([np.ones((2, 2))])
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
        trainer.apply(grads)
        for i, g in enumerate(grads):
            g = g + decay[i] * params[i]
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1 ** t)
            v_hat = v[i] / (1 - beta2 ** t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert all(np.array_equal(p, q) for p, q in zip(net.parameters(), params)), t
        assert all(np.array_equal(a, b) for a, b in zip(trainer.m + trainer.v, m + v))
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
            grads, _ = net.backward(2 * (pred - y) / len(x))
            trainer.apply(grads)
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
        grads, _ = net.backward(2 * (pred - y) / len(x))
        trainer.apply(grads)
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


def shared_arrays(nets):
    """Index pairs of parameter arrays, across all ``nets``, that share memory."""
    arrays = [p for net in nets for p in net.parameters()]
    return [(i, j) for i in range(len(arrays)) for j in range(i + 1, len(arrays))
            if np.shares_memory(arrays[i], arrays[j])]


def test_no_two_nets_share_a_parameter_array(tmp_path):
    # Trainer and soft_update write parameters in place, so a shared array
    # would silently move two networks at once.
    net = Mlp([3, 4, 2], seed=1)
    assert shared_arrays([net, net.copy()]) == []
    save_mlp({"a": net, "b": net}, tmp_path / "twins.npz", {})
    nets, _ = load_mlp(tmp_path / "twins.npz")
    assert shared_arrays([net, *nets.values()]) == []

    env = make_double_integrator(x_lim=1.0, a_max=1.0, dt=0.1, horizon=60)
    data = collect_safe_dataset(env, behavior_mixture(env, [("random", 1.0)]),
                                n_transitions=400, seed=3)
    learn = default_config("double_integrator").learn
    for critic in (make_feasibility_critic(env, data, learn, seed=2),
                   make_reward_critic(data, learn, seed=2)):
        assert shared_arrays([critic.q_net, critic.v_net,
                              critic.q_target, critic.v_target]) == []
    # Each member is restored to its best epoch's snapshot.
    model = train_ensemble(data, **dynamics(n_total=3, n_elite=2, epochs=3, hidden=[8],
                                            batch_size=64), seed=1)
    assert shared_arrays([member.net for member in model.members]) == []


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
    grads, gx = net.backward(upstream)
    assert gx is None
    want = net.forward(dense)
    want_grads, _ = net.backward(upstream)
    assert np.array_equal(out, want)
    assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
    assert np.array_equal(net.forward(x, cache=False), want)


def test_onehot_rows_and_stacking_follow_the_dense_matrix():
    rng = np.random.default_rng(3)
    a, b = random_onehot(rng, 6, [5, 3]), random_onehot(rng, 4, [5, 3])
    da, db = np.asarray(a), np.asarray(b)
    assert len(a) == 6 and a.shape == da.shape == (6, 8)
    rows = np.array([4, 0, 4])
    assert np.array_equal(np.asarray(a[rows]), da[rows])
    assert np.array_equal(np.asarray(a[1:3]), da[1:3])
    assert np.array_equal(np.asarray(a[2]), da[2:3])
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
    for n in (4, 64, 300, 20, 1):  # the scratch grows, then serves smaller batches
        x = rng.normal(size=(n, 9)) if kind == "dense" else random_onehot(rng, n, [6, 3])
        upstream = rng.normal(size=(n, 3))
        for a, b in pairs:
            ref = a.copy()
            want = ref.forward(x)
            want_grads, _ = ref.backward(upstream)
            out_a = a.forward(x)
            out_b = b.forward(x, cache=False)
            grads, _ = a.backward(upstream)
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
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


def test_concurrent_cache_free_passes_equal_the_serial_ones():
    rng = np.random.default_rng(5)
    nets = [Mlp([9, *[32] * depth, 3], seed=depth) for depth in (1, 2, 3)]
    for net in nets:
        for p in net.biases:
            p[:] = rng.normal(size=p.shape)
    inputs = [rng.normal(size=(n, 9)) for n in (1, 7, 64, 300, 1000)]
    inputs += [random_onehot(rng, n, [6, 3]) for n in (5, 500)]
    inputs += [split_rows(rng.normal(size=(n, 9))) for n in (3, 40)]
    cases = [(net, x) for net in nets for x in inputs]
    want = [net.forward(x, cache=False) for net, x in cases]
    deadline = time.monotonic() + 1.5
    passes, mismatches, errors = [0] * 4, [], []

    def hammer(worker):
        k = worker * 5  # each thread starts on a different case
        try:
            while time.monotonic() < deadline:
                net, x = cases[k % len(cases)]
                if not np.array_equal(net.forward(x, cache=False), want[k % len(cases)]):
                    mismatches.append(k % len(cases))
                passes[worker] += 1
                k += 1
        except Exception as err:  # noqa: BLE001 - reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(len(passes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not mismatches
    assert min(passes) > 0
