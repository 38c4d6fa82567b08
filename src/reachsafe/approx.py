"""Minimal MLP stack: forward, hand-rolled backward, Adam steps.

Parameters, gradients, optimizer moments and checkpoints are float64
numpy. The precision rule: a cache-free pass (below) handed a float32
batch runs in float32. It casts the weights for that call, views the
thread's scratch blocks as float32 (no block is added) and returns a
float32 output. Every other pass, caching passes and ``OneHot`` batches
included, runs in float64 (a float32 batch converted first).

A network is a list of dense layers
with tanh hidden activations and a linear head; ``forward`` caches the
activations the matching ``backward`` consumes. No graph, no broadcasting
cleverness: inputs are (batch, features) arrays, or (batch, 1, features)
in a cache-free pass (below), and anything else raises.

Layout: each network owns one contiguous vector ``params``. ``weights[i]``
(in_i, out_i) and ``biases[i]`` (out_i,) are views into it, in
parameters() order (w0, b0, w1, b1, ...); ``split`` cuts the same views
from any vector of that length. A network that runs ``backward`` also owns
``grad``, laid out the same way and allocated by its first ``backward``,
so target nets and loaded nets carry none. ``backward`` writes ``grad`` in
place and returns it; it is valid until that network's next ``backward``,
so a caller that keeps it longer copies it. ``Trainer`` (Adam, Kingma &
Ba 2015) keeps its moments as two more such vectors, and it and
``soft_update`` step whole vectors in place. Hence the rule: parameters
change in place only (``weights[i][...] = ...``, never
``weights[i] = ...``, which would leave the vector), and no two networks
share a vector.

A ``OneHot`` input batch stores each row's hot columns: the first layer
sums the selected weight rows, exactly the dense product for one or two
blocks. ``backward`` forms layer 0's weight gradient as a scatter: row by
row, in row order, each row's upstream is added into its hot columns'
gradient rows (one ``np.bincount``, which sums in input order), and a
column never hot reads +0.0. That is the definition for every batch; up
to 384 rows it is also OpenBLAS's dense GEMM bit for bit, which sums
those rows in the same order.

An inference pass (``forward(..., cache=False)``) keeps nothing: hidden
layer i runs over the whole row block into block i % 2 of the calling
thread's two scratch blocks (so a layer never overwrites its own input),
which grow on demand and are reused by its later cache-free passes of any
network; the output layer goes into the returned array. Each layer is one
product, one bias add and one tanh over the block: every numpy call hands
over the interpreter lock, so concurrent passes trade it a few times per
layer. A thread holds two blocks of at most 4,095 rows each (below).
Thread contract: cache-free passes may run on several threads at once,
even on one network; a caching pass and the ``backward`` that consumes it
run on one thread per network, with no other pass of it in between. The
flat layout leaves this contract as it was: ``backward`` writes only its
own network's ``grad``.

A cache-free pass also takes an (n, 1, d) batch, ``split_rows`` of an
(n, d) one, and returns (n, 1, out). ``np.matmul`` then multiplies each
row on its own, a (1, d) @ (d, k) product with the kernel of a one-row
call, so row i is bit-identical to a pass over row i alone; an (n, d)
GEMM may sum a row in another order and move its last bit. The split
pass uses the scratch blocks under the same thread contract.

A cache-free pass over n >= 2 * BLOCK rows runs, on the calling thread,
as n // BLOCK consecutive row blocks of BLOCK rows into one output array,
the last block also taking the n % BLOCK remainder; so a scratch block
holds at most 4,095 rows, not the largest batch. No block is
shorter than BLOCK because BLAS picks its kernel by problem size: such
blocks give the whole pass's bits on every default network shape, while
near-equal splits, one-row tails and blocks under about 1,953 rows move
the last bits of narrow outputs. The limit: a 4-64-64-2 net differs from
its whole pass at 8,000 rows or more, where the whole pass crosses a
kernel cutoff; no default pass has that shape and size (the grid policy
runs on 1,024-row rollouts and on split evaluation rows). The block and
split-row guarantees hold in float64 and in float32 (checked with BLAS
pinned, against a whole pass in the same precision).

Checkpoints keep float64: ``save_mlp`` writes every network of one
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


BLOCK = 2048  # rows per block of a long cache-free pass (module docstring)


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
        return OneHot(self.cols[rows].reshape(-1, *self.cols.shape[1:]), self.width)

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
    """Hidden layers of this thread's cache-free passes: hidden layer i of a
    row block in block i % 2, so a layer never overwrites its own input."""

    def __init__(self) -> None:
        self.blocks = [np.empty(0), np.empty(0)]


_SCRATCH = _Scratch()


def _scratch(k: int, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A ``dtype`` view of ``shape`` on this thread's float64 block k, grown
    if too small; a float32 view packs two values into each float64 slot."""
    blocks = _SCRATCH.blocks
    size = math.prod(shape)
    slots = -(-size * dtype.itemsize // 8)
    if blocks[k].size < slots:
        blocks[k] = np.empty(slots)
    return blocks[k][:slots].view(dtype)[:size].reshape(shape)


def _spans(n: int, size: int) -> list[tuple[int, int]]:
    """(lo, hi) of ``size``-row parts of n rows, the last part also taking
    the remainder; fewer than 2 * size rows stay one part."""
    edges = [0, n] if n < 2 * size else [*range(0, n - size + 1, size), n]
    return list(zip(edges, edges[1:]))


def _affine(h: np.ndarray | OneHot, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None, hidden: bool) -> np.ndarray:
    """``h @ w + b`` in ``out`` (fresh when None), tanh'd in place if hidden."""
    h = _product(h, w, out)
    h += b
    return np.tanh(h, out=h) if hidden else h


def _free_pass(h: np.ndarray | OneHot, layers: list, out: np.ndarray) -> None:
    """A cache-free pass over the row block ``h`` into ``out``: hidden layer
    i into scratch block i % 2, the output layer into ``out``."""
    *hidden, (w, b) = layers
    for i, (wi, bi) in enumerate(hidden):
        block = _scratch(i % 2, (*h.shape[:-1], wi.shape[1]), out.dtype)
        h = _affine(h, wi, bi, block, True)
    _affine(h, w, b, out, False)


def _scatter_rows(x: OneHot, g: np.ndarray, out: np.ndarray) -> None:
    """``x.T @ g`` into ``out``: each row's ``g[r]`` added into its hot
    columns' rows, in row order (``np.bincount`` sums in input order)."""
    k = g.shape[1]
    bins = (x.cols.reshape(-1, 1) * k + np.arange(k)).ravel()
    weights = np.repeat(g, x.cols.shape[1], axis=0).ravel()
    out[...] = np.bincount(bins, weights, minlength=out.size).reshape(out.shape)


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
    of shape (out_i,), views into ``params`` (see the module docstring),
    initialized with uniform fan-in scaling; ``seed=None`` leaves them zero
    for a twin or a load to fill.
    """

    def __init__(self, sizes: list[int], seed: int | None = 0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(int(s) for s in sizes)
        self.params = np.zeros(sum((i + 1) * o for i, o in zip(self.sizes, self.sizes[1:])))
        views = self.split(self.params)
        self.weights, self.biases = views[0::2], views[1::2]
        self.grad: np.ndarray | None = None
        self._grads: list[np.ndarray] = []
        self._cache: list[np.ndarray] | None = None
        if seed is not None:
            rng = substream(seed, "mlp-init", *sizes)
            for w in self.weights:
                bound = 1.0 / np.sqrt(w.shape[0])
                w[...] = rng.uniform(-bound, bound, size=w.shape)

    # -- parameter plumbing -------------------------------------------------

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``params``, in parameters() order."""
        if vector.shape != (len(self.params),):
            raise ValueError(f"expected a vector of {len(self.params)}, got shape {vector.shape}")
        views, at = [], 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            views.append(vector[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
            views.append(vector[at + fan_in * fan_out:at + (fan_in + 1) * fan_out])
            at += (fan_in + 1) * fan_out
        return views

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "Mlp":
        """A twin with its own parameter vector and no gradient."""
        twin = Mlp(self.sizes, seed=None)
        twin.params[:] = self.params
        return twin

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the network, caching activations for ``backward``.

        ``cache=False`` is an inference-only pass: it keeps no activations
        and drops any an earlier pass left, so a large batch is not pinned
        in memory after the call. Its hidden layers run over the calling
        thread's two scratch blocks (module docstring), so no hidden layer
        is allocated per call; only the returned output layer is fresh.
        Cache-free passes may run on several threads at once, even on one
        network. ``cache=True`` never touches the scratch; it and
        the matching ``backward`` run on one thread per network, with no
        other pass of that network in between. Bias and tanh act in place
        on each layer's own product, never on the input or the parameters.

        A cache-free pass also takes an (n, 1, d) batch (``split_rows``)
        and returns (n, 1, out); its row i is bit-identical to a pass over
        row i alone.

        A cache-free pass of n >= 2 * BLOCK rows runs inside this one call
        in n // BLOCK row blocks, none shorter than BLOCK, so a scratch
        block never holds more than 4,095 rows; the module docstring says
        why and where the result may differ from the whole pass.

        Precision: a cache-free pass over a float32 ndarray runs in float32
        (the weights cast for this call, the scratch viewed as float32) and
        returns float32; every other pass runs and returns float64.
        """
        single = not cache and getattr(x, "dtype", None) == np.float32
        h = x if isinstance(x, OneHot) or single else np.asarray(x, dtype=float)
        split = not cache and len(h.shape) == 3 and h.shape[1] == 1
        if len(h.shape) != 2 and not split:
            raise ValueError(f"expected an (n, {self.sizes[0]}) batch, got shape {h.shape}")
        if h.shape[-1] != self.sizes[0]:
            raise ValueError(f"expected input width {self.sizes[0]}, got {h.shape[-1]}")
        layers = list(zip(self.weights, self.biases))
        if cache:
            acts = [h]
            for i, (w, b) in enumerate(layers):
                acts.append(_affine(acts[-1], w, b, None, i < len(layers) - 1))
            self._cache = acts
            return acts[-1]
        self._cache = None
        if single:
            layers = [(w.astype(np.float32), b.astype(np.float32)) for w, b in layers]
        out = np.empty((*h.shape[:-1], self.sizes[-1]), dtype=np.float32 if single else float)
        for lo, hi in _spans(len(h), BLOCK):
            _free_pass(h[lo:hi], layers, out[lo:hi])
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Gradient of sum(upstream * output) w.r.t. the parameters.

        Returns ``grad``, written in place and valid until this network's
        next ``backward``; ``split`` gives its per-tensor views. The pass
        consumes the cached forward (tanh' is formed in its activations),
        stops at layer 0's parameters and forms no input gradient. A
        ``OneHot`` input's weight gradient is the row-order scatter of the
        module docstring; no dense one-hot matrix is built.
        """
        cache = self._cache
        if cache is None:
            raise BackwardBeforeForward("run forward() first")
        g = np.asarray(upstream, dtype=float)
        if g.shape != cache[-1].shape:
            raise ValueError(f"upstream shape {g.shape} != output shape {cache[-1].shape}")
        self._cache = None
        if self.grad is None:
            self.grad = np.empty_like(self.params)
            self._grads = self.split(self.grad)
        for i in range(len(self.weights) - 1, -1, -1):
            h_in = cache[i]
            if isinstance(h_in, OneHot):
                _scatter_rows(h_in, g, self._grads[2 * i])
            else:
                np.matmul(h_in.T, g, out=self._grads[2 * i])
            g.sum(axis=0, out=self._grads[2 * i + 1])
            if i:
                g = g @ self.weights[i].T
                h_in *= h_in  # tanh'(z) = 1 - tanh(z)^2
                np.subtract(1.0, h_in, out=h_in)
                g *= h_in
        return self.grad


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class Trainer:
    """Adam on one network: moments, step count and in-place updates.

    ``lr`` may change between steps. ``weight_decay`` holds one L2
    coefficient per parameter tensor. A 0 adds 0 * p, which changes only a
    gradient of -0.0 (into +0.0), and the moment sums after it only where
    a moment is itself -0.0. ``m`` and ``v`` are
    vectors laid out like the network's ``params``. ``apply`` updates them
    and the parameter vector in place, one whole-vector operation at a
    time in the textbook operation order, so a run is bit-identical to the
    formula applied tensor by tensor.
    """

    net: Mlp
    lr: float
    weight_decay: list[float] | None = None
    step: int = field(default=0, init=False)
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.net.params
        self.m, self.v = np.zeros_like(p), np.zeros_like(p)
        self._tmp = np.empty_like(p), np.empty_like(p)
        self._decay = None
        if self.weight_decay is not None:
            params = self.net.parameters()
            if len(self.weight_decay) != len(params):
                raise ValueError("one weight-decay coefficient per parameter tensor")
            self._decay = np.concatenate([np.full(q.size, c)
                                          for q, c in zip(params, self.weight_decay)])

    def apply(self, grad: np.ndarray) -> None:
        """One step from ``grad``, a vector laid out like ``net.params``."""
        p, m, v = self.net.params, self.m, self.v
        if grad.shape != p.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {p.shape}")
        t, u = self._tmp
        if self._decay is not None:
            grad = np.add(grad, np.multiply(self._decay, p, out=u), out=u)
        self.step += 1
        bias1, bias2 = 1 - BETA1 ** self.step, 1 - BETA2 ** self.step
        m *= BETA1
        m += np.multiply(grad, 1 - BETA1, out=t)
        v *= BETA2
        np.multiply(grad, 1 - BETA2, out=t)
        v += np.multiply(t, grad, out=t)
        np.sqrt(np.divide(v, bias2, out=t), out=t)
        t += EPS
        np.divide(m, bias1, out=u)
        u *= self.lr
        u /= t
        p -= u


def soft_update(target: Mlp, source: Mlp, rate: float) -> None:
    """Polyak mixing ``(1 - rate) * target + rate * source``, in place."""
    target.params *= 1 - rate
    target.params += rate * source.params


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
        net = Mlp(sizes, seed=None)
        params = [arrays[f"{name}.{i}"] for i in range(len(net.parameters()))]
        if [p.shape for p in params] != [p.shape for p in net.parameters()]:
            raise ValueError(f"{path}: {name} parameters do not match sizes {sizes}")
        np.concatenate([p.ravel() for p in params], out=net.params)
        nets[name] = net
    return nets, meta
