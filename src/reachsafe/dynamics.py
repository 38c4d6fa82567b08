"""Ensemble Gaussian dynamics models with elite selection.

Each member is an MLP mapping a normalized (state, action) pair to the
mean and log-variance of the normalized next-state delta. Members train
on their own shuffled splits by Gaussian negative log-likelihood, as in
MOPO (Yu et al., 2020); elites are the members with the lowest held-out
mean-squared prediction error, and all set-valued prediction and
conservative labeling go through elites only.

Training and checkpoints are float64; ``elite_predictions`` runs the elite
networks in float32 and one float64 Gaussian head over all elites'
outputs (tolerance and bit rules there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .approx import Mlp, Trainer, load_mlp, save_mlp
from .cmdp import ConfigurationError, OfflineDataset, Predicate, cost_labels
from .seeding import ordered_map, substream

LOGVAR_MAX = 0.5
# The floor keeps exp(-logvar) bounded: near-deterministic dimensions
# otherwise drive the inverse variance high enough that minibatch noise
# through the shared trunk stalls every other output.
LOGVAR_MIN = -6.0
# L2 coefficient per layer's weights, the last one repeated for deeper nets.
WEIGHT_DECAYS = (2.5e-5, 5e-5, 1e-4)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bound_logvar(raw: np.ndarray) -> np.ndarray:
    """Softly clamp raw log-variances into [LOGVAR_MIN, LOGVAR_MAX]."""
    return LOGVAR_MIN + _softplus(LOGVAR_MAX - _softplus(LOGVAR_MAX - raw) - LOGVAR_MIN)


def _bound_logvar_grad(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_bound_logvar`` and its derivative w.r.t. the raw output, which only
    the hand-rolled NLL backward pass needs; inference skips the sigmoids."""
    upper = LOGVAR_MAX - _softplus(LOGVAR_MAX - raw)
    bounded = LOGVAR_MIN + _softplus(upper - LOGVAR_MIN)
    return bounded, _sigmoid(upper - LOGVAR_MIN) * _sigmoid(LOGVAR_MAX - raw)


@dataclass
class EnsembleDynamics:
    """Trained ensemble with elite subset and normalization statistics.

    A member is its network; ``val_errors`` holds each member's held-out error.
    """

    members: list[Mlp]
    elites: list[int]
    in_mean: np.ndarray
    in_std: np.ndarray
    delta_mean: np.ndarray
    delta_std: np.ndarray
    d_s: int
    d_a: int
    val_errors: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("ensemble needs at least one member")
        if not self.elites:
            raise ConfigurationError("ensemble needs at least one elite")
        if any(e < 0 or e >= len(self.members) for e in self.elites):
            raise ConfigurationError("elite index out of range")

    @property
    def n_elites(self) -> int:
        return len(self.elites)

    def elite_predictions(self, s: np.ndarray, a: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Per-elite Gaussians over next states, denormalized.

        Returns float64 means and variances of shape (n_elites, batch, d_s).
        The batch is normalised in float64 and cast to float32 once; each
        elite's network runs in float32 (``Mlp.forward``'s precision rule).
        The outputs are stacked once into a float64 (n_elites, batch, 2 d_s)
        array, and the Gaussian head runs once over all elites: elementwise,
        so each elite's rows get the bits of a head over that elite alone.
        Against an all-float64 pass the means differ by at most 1e-6 and the
        variances by 1e-5 relative, and the any-elite labels agree row for
        row (checked on the trained integrator and gridworld ensembles of
        the tests, 20,000 rows each).
        """
        s2d = np.atleast_2d(np.asarray(s, dtype=float))
        x = np.concatenate([s2d, np.atleast_2d(np.asarray(a, dtype=float))], axis=1)
        x = ((x - self.in_mean) / self.in_std).astype(np.float32)
        out = np.stack([self.members[e].forward(x, cache=False) for e in self.elites],
                       dtype=float)
        mu, raw = out[..., :self.d_s], out[..., self.d_s:]
        return (s2d + mu * self.delta_std + self.delta_mean,
                np.exp(_bound_logvar(raw)) * self.delta_std ** 2)


def sample_next_batch(means: np.ndarray, variances: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw one successor per row from a uniformly chosen elite.

    ``means`` and ``variances`` are ``elite_predictions`` output, shape
    (n_elites, n, d_s).
    """
    n_elites, n, _ = means.shape
    picks = rng.integers(n_elites, size=n)
    rows = np.arange(n)
    mean = means[picks, rows]
    return mean + rng.normal(size=mean.shape) * np.sqrt(variances[picks, rows])


def conservative_cost_label_batch(means: np.ndarray, cost_fn: Predicate) -> np.ndarray:
    """Per row, 1 when any elite's mean successor is flagged by ``cost_fn``.

    ``means`` is the (n_elites, n, d_s) output of ``elite_predictions``;
    all elites are labelled in one predicate call.
    """
    n_elites, n, d_s = means.shape
    flagged = cost_labels(cost_fn, means.reshape(n_elites * n, d_s))
    return flagged.reshape(n_elites, n).any(axis=0).astype(int)


def train_ensemble(
    data: OfflineDataset,
    *,
    n_total: int,
    n_elite: int,
    val_fraction: float,
    epochs: int,
    lr: float,
    batch_size: int,
    hidden: list[int],
    seed: int,
) -> EnsembleDynamics:
    """Train all members on their own shuffled splits; pick elites.

    The keywords besides ``seed`` are the fields of the configuration's
    ``dynamics`` section, which ``stage_dynamics`` passes whole. They stay
    keywords rather than one section argument because the benchmark's
    probe (``perfbench/spans.py``) reads ``epochs`` and ``n_total`` from
    the call's keywords to count training samples.

    Determinism: every member derives its init, split and minibatch order
    from a named substream of ``seed``, so the members train as independent
    units through ``ordered_map`` and give the serial loop's result.
    """
    if len(data) == 0:
        raise ConfigurationError("cannot train a dynamics model on an empty dataset")
    if n_elite > n_total or n_elite < 1:
        raise ConfigurationError("need 1 <= n_elite <= n_total")

    d_s = data.s.shape[1]
    d_a = data.a.shape[1]
    inputs = np.concatenate([data.s, data.a], axis=1)
    deltas = data.s2 - data.s

    in_mean = inputs.mean(axis=0)
    in_std = np.maximum(inputs.std(axis=0), 1e-6)
    delta_mean = deltas.mean(axis=0)
    delta_std = np.maximum(deltas.std(axis=0), 1e-6)
    x_all = (inputs - in_mean) / in_std
    y_all = (deltas - delta_mean) / delta_std

    n_val = int(round(val_fraction * len(data)))
    n_train = len(data) - n_val
    if n_train < batch_size:
        raise ConfigurationError(
            f"training split of {n_train} is smaller than batch size {batch_size}"
        )

    sizes = [d_s + d_a, *hidden, 2 * d_s]
    decays: list[float] = []
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        wd = WEIGHT_DECAYS[min(i, len(WEIGHT_DECAYS) - 1)]
        decays.extend((wd, 0.0))  # decay weights, not biases

    def train_member(k: int) -> tuple[Mlp, float]:
        rng = substream(seed, "dynamics-member", k)
        perm = rng.permutation(len(data))
        val_idx = perm[:n_val]
        train_idx = perm[n_val:]
        ref_idx = val_idx if n_val else train_idx
        net = Mlp(sizes, seed=int(rng.integers(1 << 31)))
        trainer = Trainer(net, lr=lr, weight_decay=decays)
        best = net.copy()  # the member: a twin without gradient, like a loaded one
        best_err = np.inf

        for epoch in range(epochs):
            # Settle into the minimum once the bulk of training is done.
            trainer.lr = lr * (0.2 if epoch >= (2 * epochs) // 3 else 1.0)
            order = rng.permutation(len(train_idx))
            for lo in range(0, len(order) - batch_size + 1, batch_size):
                batch = train_idx[order[lo:lo + batch_size]]
                x, y = x_all[batch], y_all[batch]
                out = net.forward(x)
                mu, raw = out[:, :d_s], out[:, d_s:]
                logvar, dlv = _bound_logvar_grad(raw)
                inv_var = np.exp(-logvar)
                diff = mu - y
                loss = 0.5 * float(np.mean(np.sum(diff * diff * inv_var + logvar, axis=1)))
                upstream = np.zeros_like(out)
                upstream[:, :d_s] = diff * inv_var / len(x)
                upstream[:, d_s:] = 0.5 * (1.0 - diff * diff * inv_var) * dlv / len(x)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"dynamics member {k} diverged at epoch {epoch}: loss={loss}"
                    )
                trainer.apply(net.backward(upstream))

            # Snapshot the epoch with the best held-out mean prediction.
            mu_ref = net.forward(x_all[ref_idx], cache=False)[:, :d_s]
            err = float(np.mean((mu_ref - y_all[ref_idx]) ** 2))
            if err < best_err:
                best_err = err
                best.params[:] = net.params

        return best, best_err

    members, errors = zip(*ordered_map(train_member, range(n_total)))
    val_errors = np.array(errors)

    elites = list(np.argsort(val_errors, kind="stable")[:n_elite])
    return EnsembleDynamics(
        members=list(members), elites=[int(e) for e in elites],
        in_mean=in_mean, in_std=in_std,
        delta_mean=delta_mean, delta_std=delta_std,
        d_s=d_s, d_a=d_a, val_errors=val_errors,
    )


# ---------------------------------------------------------------------------
# Checkpointing: every member network and the statistics in one .npz.
# ---------------------------------------------------------------------------


def save_ensemble(model: EnsembleDynamics, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "elites": model.elites,
        "d_s": model.d_s,
        "d_a": model.d_a,
        "in_mean": model.in_mean.tolist(),
        "in_std": model.in_std.tolist(),
        "delta_mean": model.delta_mean.tolist(),
        "delta_std": model.delta_std.tolist(),
        "val_errors": model.val_errors.tolist(),
    }
    nets = {f"member_{k}": member for k, member in enumerate(model.members)}
    save_mlp(nets, directory / "ensemble.npz", meta)


def load_ensemble(directory: str | Path) -> EnsembleDynamics:
    nets, meta = load_mlp(Path(directory) / "ensemble.npz")
    return EnsembleDynamics(
        members=[nets[f"member_{k}"] for k in range(len(nets))],
        elites=list(meta["elites"]),
        in_mean=np.asarray(meta["in_mean"]), in_std=np.asarray(meta["in_std"]),
        delta_mean=np.asarray(meta["delta_mean"]),
        delta_std=np.asarray(meta["delta_std"]),
        d_s=meta["d_s"], d_a=meta["d_a"],
        val_errors=np.asarray(meta["val_errors"]),
    )
