"""Minimal MLP stack: forward, hand-rolled backward, adaptive-moment steps.

Everything is plain float64 numpy. A network is a list of dense layers
with tanh hidden activations and a linear head; ``forward`` caches the
activations the matching ``backward`` consumes. No graph, no broadcasting
cleverness: the shapes are (batch, features) throughout.

A ``OneHot`` input batch stores each row's hot columns: the first layer
sums the selected weight rows, exactly the dense product for one or two
blocks; ``backward`` keeps the dense GEMM and forms no input gradient.

An inference pass (``forward(..., cache=False)``) keeps nothing: hidden
layer i is written into one of two module-level scratch blocks, chosen by
i % 2, which grow on demand and are reused by every later cache-free pass
of any network. Only the output layer is a fresh array. The scratch makes
``forward`` single-threaded and not reentrant.

Checkpoints keep float64 as well: ``save_mlp`` writes every network of one
model (a critic's four nets, a policy, a dynamics ensemble) and a JSON
metadata string into a single ``.npz``, and ``load_mlp`` reads it back
without pickle, so a reloaded model computes exactly what the saved one did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cmdp import load_npz, save_npz
from .seeding import substream


class BackwardBeforeForward(RuntimeError):
    """backward() called without a cached forward pass."""


@dataclass(frozen=True)
class OneHot:
    """A (n, width) batch of concatenated one-hot blocks.

    ``cols`` (n, k) holds each row's hot column per block, offsets included.
    """

    cols: np.ndarray
    width: int

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cols), self.width)

    def __len__(self) -> int:
        return len(self.cols)

    def __getitem__(self, rows) -> OneHot:  # a batch, also for a single row
        return OneHot(self.cols[rows].reshape(-1, self.cols.shape[1]), self.width)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.zeros(self.shape)
        np.put_along_axis(out, self.cols, 1.0, axis=1)
        return out


def concat(parts, axis: int = 0):
    """``np.concatenate`` that keeps an all-``OneHot`` input one-hot."""
    if not all(isinstance(p, OneHot) for p in parts):
        return np.concatenate([np.asarray(p, dtype=float) for p in parts], axis=axis)
    if axis == 0:
        if len({p.width for p in parts}) > 1:
            raise ValueError("one-hot row blocks must share a width")
        return OneHot(np.concatenate([p.cols for p in parts]), parts[0].width)
    offsets = np.cumsum([0] + [p.width for p in parts])
    return OneHot(np.concatenate([p.cols + o for p, o in zip(parts, offsets)], axis=1),
                  int(offsets[-1]))


# Hidden layers of cache-free passes; layer i uses block i % 2, so a layer
# never overwrites its own input.
_SCRATCH = [np.empty(0), np.empty(0)]


def _scratch(i: int, shape: tuple[int, int]) -> np.ndarray:
    """A (rows, width) view of scratch block i % 2, grown if too small."""
    size = shape[0] * shape[1]
    if _SCRATCH[i % 2].size < size:
        _SCRATCH[i % 2] = np.empty(size)
    return _SCRATCH[i % 2][:size].reshape(shape)


def _product(h: np.ndarray | OneHot, w: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``h @ w`` written into ``out`` (a fresh array when None).

    A ``OneHot`` batch sums the selected weight rows in block order, which
    is exactly the dense product for one or two blocks.
    """
    if not isinstance(h, OneHot):
        return np.matmul(h, w, out=out)
    out = np.take(w, h.cols[:, 0], axis=0, out=out)
    for c in h.cols.T[1:]:
        out += w[c]
    return out


class Mlp:
    """Dense tanh network with a linear output layer.

    Parameters are ``weights[i]`` of shape (in_i, out_i) and ``biases[i]``
    of shape (out_i,), initialized with uniform fan-in scaling.
    """

    def __init__(self, sizes: list[int], seed: int = 0, init_scale: float = 1.0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rng = substream(seed, "mlp-init", *sizes)
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = init_scale / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._cache: list[np.ndarray] | None = None

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        flat = list(params)
        for i in range(len(self.weights)):
            self.weights[i] = flat[2 * i].reshape(self.weights[i].shape).astype(float)
            self.biases[i] = flat[2 * i + 1].reshape(self.biases[i].shape).astype(float)

    def copy(self) -> "Mlp":
        twin = Mlp(self.sizes)
        twin.set_parameters([p.copy() for p in self.parameters()])
        return twin

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the network, caching activations for ``backward``.

        ``cache=False`` is an inference-only pass: it keeps no activations
        and drops any an earlier pass left, so a large batch is not pinned
        in memory after the call. Its hidden layers live in the two shared
        scratch blocks (layer i in block i % 2), so no hidden layer is
        allocated per call; only the returned output layer is fresh. The
        scratch is shared by every network: ``forward`` is single-threaded
        and not reentrant. ``cache=True`` never touches the scratch. Bias
        and tanh act in place on each layer's own product, never on the
        input or the parameters.
        """
        x = x if isinstance(x, OneHot) else np.asarray(x, dtype=float)
        squeeze = len(x.shape) == 1
        h = x.reshape(1, -1) if squeeze else x
        if h.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input width {self.sizes[0]}, got {h.shape[1]}")
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            hidden = i < n_layers - 1
            out = _scratch(i, (len(h), w.shape[1])) if hidden and not cache else None
            h = _product(h, w, out)
            h += b
            if hidden:
                np.tanh(h, out=h)
            if cache:
                acts.append(h)
        self._cache = acts if cache else None
        self._squeezed = squeeze
        return h[0] if squeeze else h

    def backward(self, upstream: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Gradients of sum(upstream * output) w.r.t. parameters and input.

        Returns (grads, input_grad) with grads ordered like parameters();
        input_grad is None for a ``OneHot`` input.
        """
        if self._cache is None:
            raise BackwardBeforeForward("run forward() first")
        cache = self._cache
        g = np.asarray(upstream, dtype=float)
        if getattr(self, "_squeezed", False) and g.ndim == 1:
            g = g.reshape(1, -1)
        if g.shape != cache[-1].shape:
            raise ValueError(f"upstream shape {g.shape} != output shape {cache[-1].shape}")
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        n_layers = len(self.weights)
        for i in range(n_layers - 1, -1, -1):
            h_in, h_out = cache[i], cache[i + 1]
            if i < n_layers - 1:
                g = g * (1.0 - h_out * h_out)  # tanh'(z) = 1 - tanh(z)^2
            if isinstance(h_in, OneHot):
                # The dense GEMM keeps the dense input's summation order.
                grads[0], grads[1] = np.asarray(h_in).T @ g, g.sum(axis=0)
                return grads, None
            grads[2 * i] = h_in.T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ self.weights[i].T
        input_grad = g[0] if getattr(self, "_squeezed", False) else g
        return grads, input_grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """First/second moment accumulators plus the step counter."""

    lr: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: list[float] | None = None  # per-parameter L2 coefficients


def init_optimizer(params: list[np.ndarray], lr: float,
                   weight_decay: list[float] | None = None) -> OptimizerState:
    if weight_decay is not None and len(weight_decay) != len(params):
        raise ValueError("one weight-decay coefficient per parameter tensor")
    return OptimizerState(
        lr=lr,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        weight_decay=weight_decay,
    )


def optimizer_step(state: OptimizerState, params: list[np.ndarray],
                   grads: list[np.ndarray]) -> list[np.ndarray]:
    """One adaptive-moment update; mutates the accumulators, returns params."""
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("parameter/gradient count mismatch with optimizer state")
    state.step += 1
    t = state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if state.weight_decay is not None and state.weight_decay[i]:
            g = g + state.weight_decay[i] * p
        state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * g * g
        m_hat = state.m[i] / (1 - state.beta1 ** t)
        v_hat = state.v[i] / (1 - state.beta2 ** t)
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


@dataclass
class Trainer:
    """Convenience bundle of a network and its optimizer."""

    net: Mlp
    opt: OptimizerState = field(init=False)
    lr: float = 3e-4
    weight_decay: list[float] | None = None

    def __post_init__(self) -> None:
        self.opt = init_optimizer(self.net.parameters(), self.lr, self.weight_decay)

    def apply(self, grads: list[np.ndarray]) -> None:
        self.net.set_parameters(optimizer_step(self.opt, self.net.parameters(), grads))


def soft_update(target: Mlp, source: Mlp, rate: float) -> None:
    """Polyak mixing of source into target, in place."""
    mixed = [(1 - rate) * t + rate * s
             for t, s in zip(target.parameters(), source.parameters())]
    target.set_parameters(mixed)


# ---------------------------------------------------------------------------
# Checkpoints: one float64 .npz per model. Network ``name`` stores its
# parameters as ``name.0``, ``name.1``, ... in parameters() order; ``meta``
# is a JSON string with the caller's metadata and every network's sizes.
# ---------------------------------------------------------------------------


def save_mlp(nets: dict[str, Mlp], path, meta: dict) -> None:
    """Write the named networks of one model, plus its metadata, to ``path``."""
    arrays = {f"{name}.{i}": p for name, net in nets.items()
              for i, p in enumerate(net.parameters())}
    sizes = {name: net.sizes for name, net in nets.items()}
    save_npz(path, arrays, {**meta, "nets": sizes})


def load_mlp(path) -> tuple[dict[str, Mlp], dict]:
    """Read a ``save_mlp`` file back: (networks by name, metadata)."""
    arrays, meta = load_npz(path)
    nets = {}
    for name, sizes in meta.pop("nets").items():
        net = Mlp(sizes)
        params = [arrays[f"{name}.{i}"] for i in range(len(net.parameters()))]
        if [p.shape for p in params] != [p.shape for p in net.parameters()]:
            raise ValueError(f"{path}: {name} parameters do not match sizes {sizes}")
        net.set_parameters(params)
        nets[name] = net
    return nets, meta
