"""Minimal MLP stack: forward, hand-rolled backward, Adam steps.

Everything is plain float64 numpy. A network is a list of dense layers
with tanh hidden activations and a linear head; ``forward`` caches the
activations the matching ``backward`` consumes. No graph, no broadcasting
cleverness: inputs are (batch, features) arrays, or (batch, 1, features)
in a cache-free pass (below), and anything else raises.
``Trainer`` (Adam, Kingma & Ba 2015) and ``soft_update`` write parameter
arrays in place, so no two networks may share one.

A ``OneHot`` input batch stores each row's hot columns: the first layer
sums the selected weight rows, exactly the dense product for one or two
blocks; ``backward`` keeps the dense GEMM and forms no input gradient.

An inference pass (``forward(..., cache=False)``) keeps nothing: hidden
layer i is written into one of the calling thread's two scratch blocks,
chosen by i % 2, which grow on demand and are reused by its later
cache-free passes of any network. Only the output layer is a fresh array.
Thread contract: cache-free passes may run on several threads at once,
even on one network; a caching pass and the ``backward`` that consumes it
run on one thread per network, with no other pass of it in between.

A cache-free pass also takes an (n, 1, d) batch, ``split_rows`` of an
(n, d) one, and returns (n, 1, out). ``np.matmul`` then multiplies each
row on its own, a (1, d) @ (d, k) product with the kernel of a one-row
call, so row i is bit-identical to a pass over row i alone; an (n, d)
GEMM may sum a row in another order and move its last bit. The split
pass uses the scratch blocks under the same thread contract.

Checkpoints keep float64 as well: ``save_mlp`` writes every network of one
model (a critic's four nets, a policy, a dynamics ensemble) and a JSON
metadata string into a single ``.npz``, and ``load_mlp`` reads it back
without pickle, so a reloaded model computes exactly what the saved one did.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .cmdp import load_npz, save_npz
from .seeding import substream


class BackwardBeforeForward(RuntimeError):
    """backward() called without a cached forward pass."""


@dataclass(frozen=True)
class OneHot:
    """A (n, width) batch of concatenated one-hot blocks.

    ``cols`` (n, k) holds each row's hot column per block, offsets included;
    ``split_rows`` makes it (n, 1, k), an (n, 1, width) batch.
    """

    cols: np.ndarray
    width: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.cols.shape[:-1], self.width)

    def __len__(self) -> int:
        return len(self.cols)

    def __getitem__(self, rows) -> OneHot:  # a batch, also for a single row
        return OneHot(self.cols[rows].reshape(-1, self.cols.shape[1]), self.width)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.zeros(self.shape)
        np.put_along_axis(out, self.cols, 1.0, axis=-1)
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


def split_rows(x: np.ndarray | OneHot) -> np.ndarray | OneHot:
    """An (n, d) batch as (n, 1, d): a cache-free pass over it is row-exact."""
    if isinstance(x, OneHot):
        return OneHot(x.cols[:, None], x.width)
    return np.asarray(x, dtype=float)[:, None]


class _Scratch(threading.local):
    """Hidden layers of this thread's cache-free passes; layer i uses block
    i % 2, so a layer never overwrites its own input."""

    def __init__(self) -> None:
        self.blocks = [np.empty(0), np.empty(0)]


_SCRATCH = _Scratch()


def _scratch(i: int, shape: tuple[int, ...]) -> np.ndarray:
    """A view of ``shape`` on this thread's block i % 2, grown if too small."""
    blocks = _SCRATCH.blocks
    size = math.prod(shape)
    if blocks[i % 2].size < size:
        blocks[i % 2] = np.empty(size)
    return blocks[i % 2][:size].reshape(shape)


def _product(h: np.ndarray | OneHot, w: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``h @ w`` written into ``out`` (a fresh array when None).

    A ``OneHot`` batch sums the selected weight rows in block order, which
    is exactly the dense product for one or two blocks.
    """
    if not isinstance(h, OneHot):
        return np.matmul(h, w, out=out)
    out = np.take(w, h.cols[..., 0], axis=0, out=out)
    for c in np.moveaxis(h.cols, -1, 0)[1:]:
        out += w[c]
    return out


class Mlp:
    """Dense tanh network with a linear output layer.

    Parameters are ``weights[i]`` of shape (in_i, out_i) and ``biases[i]``
    of shape (out_i,), initialized with uniform fan-in scaling.
    """

    def __init__(self, sizes: list[int], seed: int = 0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rng = substream(seed, "mlp-init", *sizes)
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
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
        """Copy ``params`` in; the network never keeps a caller's array."""
        flat = list(params)
        for i in range(len(self.weights)):
            self.weights[i] = flat[2 * i].reshape(self.weights[i].shape).astype(float)
            self.biases[i] = flat[2 * i + 1].reshape(self.biases[i].shape).astype(float)

    def copy(self) -> "Mlp":
        twin = Mlp(self.sizes)
        twin.set_parameters(self.parameters())
        return twin

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the network, caching activations for ``backward``.

        ``cache=False`` is an inference-only pass: it keeps no activations
        and drops any an earlier pass left, so a large batch is not pinned
        in memory after the call. Its hidden layers live in the calling
        thread's two scratch blocks (layer i in block i % 2), so no hidden
        layer is allocated per call; only the returned output layer is
        fresh. Cache-free passes may run on several threads at once, even
        on one network. ``cache=True`` never touches the scratch; it and
        the matching ``backward`` run on one thread per network, with no
        other pass of that network in between. Bias and tanh act in place
        on each layer's own product, never on the input or the parameters.

        A cache-free pass also takes an (n, 1, d) batch (``split_rows``)
        and returns (n, 1, out); its row i is bit-identical to a pass over
        row i alone.
        """
        h = x if isinstance(x, OneHot) else np.asarray(x, dtype=float)
        split = not cache and len(h.shape) == 3 and h.shape[1] == 1
        if len(h.shape) != 2 and not split:
            raise ValueError(f"expected an (n, {self.sizes[0]}) batch, got shape {h.shape}")
        if h.shape[-1] != self.sizes[0]:
            raise ValueError(f"expected input width {self.sizes[0]}, got {h.shape[-1]}")
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            hidden = i < n_layers - 1
            out = _scratch(i, (*h.shape[:-1], w.shape[1])) if hidden and not cache else None
            h = _product(h, w, out)
            h += b
            if hidden:
                np.tanh(h, out=h)
            if cache:
                acts.append(h)
        self._cache = acts if cache else None
        return h

    def backward(self, upstream: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Gradients of sum(upstream * output) w.r.t. parameters and input.

        Returns (grads, input_grad) with grads ordered like parameters();
        input_grad is None for a ``OneHot`` input.
        """
        if self._cache is None:
            raise BackwardBeforeForward("run forward() first")
        cache = self._cache
        g = np.asarray(upstream, dtype=float)
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
        return grads, g


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class Trainer:
    """Adam on one network: moments, step count and in-place updates.

    ``lr`` may change between steps. ``weight_decay`` holds one L2
    coefficient per parameter tensor (0 skips it). ``apply`` updates the
    moments and the network's own parameter arrays in place, in the
    textbook operation order, so a run is bit-identical to the formula.
    """

    net: Mlp
    lr: float
    weight_decay: list[float] | None = None
    step: int = field(default=0, init=False)
    m: list[np.ndarray] = field(init=False, repr=False)
    v: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        params = self.net.parameters()
        if self.weight_decay is not None and len(self.weight_decay) != len(params):
            raise ValueError("one weight-decay coefficient per parameter tensor")
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def apply(self, grads: list[np.ndarray]) -> None:
        params = self.net.parameters()
        if [g.shape for g in grads] != [p.shape for p in params]:
            raise ValueError(f"gradient shapes {[g.shape for g in grads]} != "
                             f"parameter shapes {[p.shape for p in params]}")
        self.step += 1
        bias1, bias2 = 1 - BETA1 ** self.step, 1 - BETA2 ** self.step
        for i, (p, g, m, v) in enumerate(zip(params, grads, self.m, self.v)):
            if self.weight_decay is not None and self.weight_decay[i]:
                g = g + self.weight_decay[i] * p
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)


def soft_update(target: Mlp, source: Mlp, rate: float) -> None:
    """Polyak mixing ``(1 - rate) * target + rate * source``, in place."""
    for t, s in zip(target.parameters(), source.parameters()):
        t *= 1 - rate
        t += rate * s


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
